//! Measures what the telemetry instrumentation costs the modem hot paths.
//!
//! Run twice and compare:
//!
//! ```sh
//! cargo bench -p wazabee-bench --bench telemetry_overhead
//! cargo bench -p wazabee-bench --bench telemetry_overhead --no-default-features
//! ```
//!
//! With the `telemetry` feature off every counter/histogram/scope call site
//! compiles to an empty inline no-op, so the two runs must agree to within
//! measurement noise. The `zero_cost_when_disabled` test in
//! `wazabee-telemetry` (run with `--no-default-features`) asserts the
//! disabled build really is dead code.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wazabee_ble::gfsk::{demodulate_aligned, modulate, GfskParams};
use wazabee_ble::BlePhy;
use wazabee_dot154::dsss::{despread_to_bytes, spread_bytes};

fn bench_instrumented_kernels(c: &mut Criterion) {
    let params = GfskParams::ble(BlePhy::Le2M, 8);
    let bits: Vec<u8> = (0..2048).map(|k| (k * 7 % 3 == 0) as u8).collect();
    let iq = modulate(&params, &bits);
    let psdu: Vec<u8> = (0..32).collect();
    let chips = spread_bytes(&psdu);

    let mut g = c.benchmark_group("telemetry_overhead");
    g.throughput(Throughput::Elements(bits.len() as u64));
    g.bench_function("gfsk_modulate", |b| {
        b.iter(|| modulate(&params, std::hint::black_box(&bits)))
    });
    g.bench_function("gfsk_demodulate", |b| {
        b.iter(|| demodulate_aligned(&params, std::hint::black_box(&iq), 0))
    });
    g.bench_function("dsss_despread", |b| {
        b.iter(|| despread_to_bytes(std::hint::black_box(&chips)))
    });
    g.finish();

    // Bare-primitive cost so regressions in the counter fast path are visible
    // without the modem arithmetic drowning them out.
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
    // serve's workers do.
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_instrumented_kernels
}
criterion_main!(benches);
