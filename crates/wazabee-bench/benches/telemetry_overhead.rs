//! Measures what the telemetry probes cost: each probe kind alone.
//!
//! ```sh
//! cargo bench -p wazabee-bench --bench telemetry_overhead
//! ```
//!
//! Each row prices one probe. Probes sit at stage boundaries, a few per
//! hundreds of microseconds of kernel work, so timing a whole kernel shows
//! the host's drift, not the probe; kernel speeds are measured by the
//! `iq_kernels` and `packed_kernels` benches and the `rx_throughput` bin.
//! `artifacts/TELEMETRY_OVERHEAD.md` keeps the figures.
//!
//! `scope_enter_drop_contended` pins the measuring thread and a rival
//! scope loop to two different allowed CPUs, so every run measures two
//! threads contending for the trace-ring lock. With fewer than two CPUs
//! the row is skipped.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_probes(c: &mut Criterion) {
    let mut p = c.benchmark_group("telemetry_primitives");
    p.bench_function("counter_inc", |b| {
        b.iter(|| wazabee_telemetry::counter!("bench.counter").inc())
    });
    p.bench_function("histogram_record", |b| {
        b.iter(|| {
            wazabee_telemetry::histogram!("bench.hist", 0.0, 64.0)
                .record(std::hint::black_box(17.0))
        })
    });
    // A labeled lookup pays a label-set build + map probe per call; a cached
    // handle amortises that to one atomic add, matching the inline cell.
    p.bench_function("counter_with_inc_lookup", |b| {
        b.iter(|| {
            wazabee_telemetry::counter!("bench.labeled")
                .with(&[("channel", std::hint::black_box("15"))])
                .inc()
        })
    });
    p.bench_function("counter_handle_inc_cached", |b| {
        let handle = wazabee_telemetry::counter!("bench.labeled.cached").with(&[("channel", "15")]);
        b.iter(|| handle.inc())
    });
    p.bench_function("histogram_with_record_lookup", |b| {
        b.iter(|| {
            wazabee_telemetry::histogram!("bench.labeled.hist", 0.0, 64.0)
                .with(&[("stage", std::hint::black_box("fir"))])
                .record(17.0)
        })
    });
    // One timing probe: two clock reads, the thread-local child-time and
    // current-span swaps, four relaxed atomic adds and one trace-ring
    // append (the completed span, pushed when it closes).
    p.bench_function("scope_enter_drop", |b| {
        b.iter(|| {
            let _s = wazabee_telemetry::scope!("bench.scope");
            std::hint::black_box(());
        })
    });
    // The same probe while a second thread runs scopes in a loop, so both
    // contend for the one trace-ring lock — as netsim's shard threads and
    // serve's workers do. Each thread is pinned to its own CPU: a rival
    // sharing the measuring thread's CPU only runs when it is preempted,
    // and the row would read the uncontended cost.
    let cpus = affinity::allowed_cpus();
    if cpus.len() < 2 {
        eprintln!(
            "scope_enter_drop_contended skipped: the process may use {} CPU(s), \
             the row needs 2",
            cpus.len()
        );
    } else if !affinity::set_allowed(&cpus[..1]) {
        eprintln!(
            "scope_enter_drop_contended skipped: cannot pin to CPU {}",
            cpus[0]
        );
    } else {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                if !affinity::set_allowed(&cpus[1..2]) {
                    eprintln!(
                        "scope_enter_drop_contended: rival not pinned to CPU {}",
                        cpus[1]
                    );
                }
                while !stop.load(Ordering::Relaxed) {
                    let _s = wazabee_telemetry::scope!("bench.scope.rival");
                }
            });
            p.bench_function("scope_enter_drop_contended", |b| {
                b.iter(|| {
                    let _s = wazabee_telemetry::scope!("bench.scope");
                    std::hint::black_box(());
                })
            });
            stop.store(true, Ordering::Relaxed);
        });
        if !affinity::set_allowed(&cpus) {
            eprintln!("telemetry_overhead: cannot restore the CPU mask {cpus:?}");
        }
    }
    // The same with two static args — the cost of one
    // `scope!("rx.decode", ...)` around a committing decode attempt.
    p.bench_function("scope_with_args_enter_drop", |b| {
        b.iter(|| {
            let _s = wazabee_telemetry::scope!(
                "bench.scope.args",
                frame = std::hint::black_box(7u64),
                chan = 15u8
            );
            std::hint::black_box(());
        })
    });
    p.bench_function("wall_series_record", |b| {
        b.iter(|| wazabee_telemetry::timeseries!("bench.series", std::hint::black_box(1.0)))
    });
    // One trace-ring append alone (instant event with args), isolating the
    // ring's mutex + VecDeque push from the span stack machinery.
    p.bench_function("trace_ring_append", |b| {
        b.iter(|| {
            wazabee_telemetry::event!("bench.instant", seq = std::hint::black_box(3u64));
        })
    });
    // One watchdog tick over a single armed rule: registry scan, counter
    // sum, compare, latch check.
    p.bench_function("health_rule_evaluate", |b| {
        wazabee_telemetry::health_rule!(
            "bench.health",
            wazabee_telemetry::Signal::counter("bench.counter"),
            > 1e18
        );
        b.iter(|| std::hint::black_box(wazabee_telemetry::evaluate_health()))
    });
    p.finish();
}

/// Thread CPU affinity through the C library's `sched_getaffinity` /
/// `sched_setaffinity` on the calling thread (pid 0).
mod affinity {
    /// Mask words passed to the kernel: room for 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on, ascending; empty if unknown.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; false if the kernel refused.
    pub fn set_allowed(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus {
            if cpu >= WORDS * 64 {
                return false;
            }
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live, readable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_probes
}
criterion_main!(benches);
