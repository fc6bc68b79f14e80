//! Deterministic parallel map over independent work items.
//!
//! Shared by the benchmark sweep driver (grid cells) and the spectrum
//! simulator (channel shards, per-receiver cluster decodes): every item's
//! result is derived from the item alone — never from execution order — so
//! fanning the items out over scoped worker threads and merging results back
//! in input order yields output byte-identical to a serial run.
//!
//! Built on [`std::thread::scope`] — no external thread-pool dependency. The
//! worker count comes from the `WAZABEE_THREADS` environment variable when
//! set (a positive integer), otherwise from
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count used when the caller does not pin one: `WAZABEE_THREADS`
/// when set to a positive integer, otherwise the machine's available
/// parallelism (falling back to 1 when even that is unknown).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("WAZABEE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `threads` worker threads (`None` means
/// [`default_threads`]), returning results in input order. The calling
/// thread is one of the workers, so it spawns at most `threads - 1`.
///
/// Work is distributed dynamically — an atomic cursor hands the next index to
/// whichever worker is free — but each result is stored at its item's index,
/// so the output order (and therefore any artifact rendered from it) is
/// independent of scheduling. `f` must derive everything it needs from the
/// item itself; with per-cell seeds that makes parallel runs byte-identical
/// to serial ones.
///
/// # Panics
///
/// Propagates a panic from any worker invocation of `f`.
pub fn par_map_with<T, U, F>(threads: Option<usize>, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = threads.unwrap_or_else(default_threads).max(1);
    if threads == 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    let cells: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            let item = cells[k]
                .lock()
                .expect("cell lock")
                .take()
                .expect("cell taken once");
            done.push((k, f(item)));
        }
        done
    };
    let mut buckets: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        // The calling thread is one of the workers: it spawns one fewer.
        let handles: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(work)).collect();
        let mine = work();
        std::iter::once(mine)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked")),
            )
            .collect()
    });

    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (k, u) in buckets.drain(..).flatten() {
        out[k] = Some(u);
    }
    out.into_iter()
        .map(|u| u.expect("every cell computed"))
        .collect()
}

/// [`par_map_with`] at the default worker count — the common entry point for
/// the benchmark binaries.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_with(None, items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [Some(1), Some(2), Some(4), Some(9)] {
            let items: Vec<usize> = (0..100).collect();
            let out = par_map_with(threads, items, |k| k * 3);
            assert_eq!(out, (0..100).map(|k| k * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let work = |k: u64| -> u64 {
            // A little deterministic arithmetic per cell.
            (0..500).fold(k, |a, b| a.wrapping_mul(6364136223846793005) ^ b)
        };
        let serial = par_map_with(Some(1), (0..64).collect(), work);
        let parallel = par_map_with(Some(8), (0..64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(Some(4), empty, |k| k).is_empty());
        assert_eq!(par_map_with(Some(4), vec![7u32], |k| k + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map_with(Some(32), (0..3).collect::<Vec<_>>(), |k| k);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
