//! Moving the calling thread between the CPUs this process may use, so a
//! single-threaded measurement samples every core of the host instead of
//! whichever one the scheduler happened to pick. On a shared host the cores
//! run at different speeds for minutes at a time.

/// Mask words passed to the kernel: room for 1024 CPUs.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending; empty if unknown.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; false if the kernel refused.
fn set_allowed(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &cpu in cpus {
        if cpu >= WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves the calling thread onto `cpu`, then lets it run anywhere in
/// `allowed` again. The thread stays where it was put until the scheduler
/// has a reason to move it, so it still escapes a CPU that other work
/// takes over.
pub fn move_to(cpu: usize, allowed: &[usize]) -> bool {
    // The kernel migrates the calling thread before this call returns.
    set_allowed(&[cpu]) && set_allowed(allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_within_the_allowed_set_and_releases() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        let last = cpus[cpus.len() - 1];
        assert!(set_allowed(&[last]));
        assert_eq!(allowed_cpus(), vec![last]);
        assert!(move_to(cpus[0], &cpus));
        assert_eq!(allowed_cpus(), cpus);
        assert!(!set_allowed(&[WORDS * 64]));
    }
}
