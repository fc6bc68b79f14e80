//! `stream-decoy`: a closed loop on one thread feeding one office-channel
//! capture, over and over, through one `StreamingRx` in 4096-sample planar
//! chunks, as serve workers do. Only the decode layers (the `wazabee`
//! stream engine and the `wazabee-dsp` kernels) work here; the decoys make
//! wasted resync attempts part of the cost.

use std::hint::black_box;
use std::time::Instant;

use wazabee::{WazaBeeError, WazaBeeRx};
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::ReceivedPpdu;

use crate::affinity;
use crate::capture::{self, FrameCheck, FRAMES, SPS};
use crate::stats;
use crate::trace::Tracer;
use crate::{setup_batch_s, stream_layer, Outcome, RunCfg};

/// Identical set-ups per timed batch, and batches timed at each CPU move,
/// so the set-ups are spread over the whole run.
const SETUPS_PER_BATCH: usize = 200;
const SETUP_BATCHES_PER_MOVE: usize = 4;
/// Set-up batches per window of the `setup_s` window median (ten CPU
/// moves, about four seconds).
const SETUP_WINDOW: usize = 40;

/// Passes run on one CPU before moving to the next.
const PASSES_PER_CPU: u64 = 32;

/// Pushes per latency window: the smallest count that supports a p99.
const LATENCY_WINDOW: usize = 1_000;

fn receiver() -> WazaBeeRx<BleModem> {
    WazaBeeRx::new(BleModem::new(BlePhy::Le2M, SPS)).expect("LE 2M diverts to 802.15.4")
}

/// Feeds decoded results to the output check.
fn account(results: Vec<Result<ReceivedPpdu, WazaBeeError>>, check: &mut FrameCheck<'_>) {
    for f in results.into_iter().flatten() {
        check.frame(&f.psdu, f.fcs_ok());
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    // What a user pays before samples flow: the receive primitive and its
    // streaming engine.
    let set_up = || {
        let rx = receiver();
        black_box(&rx.stream());
    };
    let mut setup_times = Vec::new();
    let cap = capture::build(cfg.seed, b'S');

    let rx = receiver();
    let mut stream = rx.stream();
    let mut check = FrameCheck::new(&cap.psdus);
    let mut passes = 0u64;

    // One untimed pass fills caches and grows the engine's buffers.
    for k in 0..cap.chunks() {
        account(stream.push_planar(cap.chunk(k)), &mut check);
    }
    passes += 1;
    wazabee_telemetry::reset();

    let pass_air_s = stats::airtime_s(cap.iq.len() as u64);
    let mut tracer = Tracer::new(cfg.epoch, 0, false);
    let mut rt_plain = Vec::new();
    let mut rt_traced = Vec::new();
    // Push times are reduced to per-window percentiles as they arrive, so
    // the benchmark's own memory does not grow with the push count: a run
    // on a faster host pushes more, and peak RSS is a gated metric.
    let mut window_ms = Vec::with_capacity(LATENCY_WINDOW);
    let mut window_p50 = Vec::new();
    let mut window_p99 = Vec::new();
    let mut pushes = 0u64;
    let mut busy_ms = 0.0;
    let mut chunk_id = 0u64;
    // Blocks of passes start on each CPU the process may use in turn, so one
    // run samples all of the host's cores. Blocks are long enough that the
    // pushes slowed by a move to a cold cache stay out of the windowed p99.
    let cpus = affinity::allowed_cpus();
    let start = Instant::now();
    while start.elapsed() < cfg.seconds {
        if passes.is_multiple_of(PASSES_PER_CPU) {
            if !cpus.is_empty() {
                let k = (passes / PASSES_PER_CPU) as usize;
                affinity::move_to(cpus[k % cpus.len()], &cpus);
            }
            for _ in 0..SETUP_BATCHES_PER_MOVE {
                setup_times.push(setup_batch_s(SETUPS_PER_BATCH, set_up));
            }
        }
        // The traced run alternates traced and untraced passes.
        let traced = cfg.trace && passes.is_multiple_of(2);
        tracer.set_on(traced);
        let pass = tracer.open();
        for k in 0..cap.chunks() {
            let push = tracer.open();
            let results = stream.push_planar(cap.chunk(k));
            let end = Instant::now();
            let ms = end.duration_since(push.start).as_secs_f64() * 1e3;
            pushes += 1;
            busy_ms += ms;
            window_ms.push(ms);
            if window_ms.len() == LATENCY_WINDOW {
                window_p50.extend(stats::percentile(&window_ms, 0.50));
                window_p99.extend(stats::percentile(&window_ms, 0.99));
                window_ms.clear();
            }
            tracer.close_at(push, end, "stream.push", chunk_id, pass.uid);
            chunk_id += 1;
            account(results, &mut check);
        }
        let wall = pass.start.elapsed().as_secs_f64();
        tracer.close(pass, "stream.pass", passes, 0);
        if traced {
            rt_traced.push((pass_air_s, wall));
        } else {
            rt_plain.push((pass_air_s, wall));
        }
        passes += 1;
    }
    account(stream.flush(), &mut check);

    out.attempted = passes * FRAMES as u64;
    out.failed = check.failed(out.attempted);
    if out.failed > 0 {
        out.fail(format!(
            "{} of {} frames missing or wrong ({} unexpected)",
            out.failed, out.attempted, check.unexpected
        ));
    }
    out.notes
        .push(format!("{passes} passes of {FRAMES} frames"));
    out.notes.push(format!(
        "{pushes} pushes, {} latency windows of {LATENCY_WINDOW}",
        window_p99.len()
    ));

    if cfg.trace {
        stream_layer(&mut out, busy_ms * 1e-3);
        let plain = stats::rate(&rt_plain);
        let traced = stats::rate(&rt_traced);
        out.set("trace_overhead_pct", (plain / traced - 1.0) * 100.0);
        out.spans = tracer.spans().to_vec();
    } else {
        out.set("rt_x", stats::rate(&rt_plain));
        // The trimmed mean over windows of each window's percentile, as
        // `stats::windowed_percentile` computes it.
        if window_p99.is_empty() {
            out.fail(format!("{pushes} pushes cannot support a p99"));
        } else {
            out.set("latency_p50_ms", stats::trimmed_mean(&window_p50));
            out.set("latency_p99_ms", stats::trimmed_mean(&window_p99));
        }
        out.set("setup_s", crate::setup_s(&setup_times, SETUP_WINDOW));
    }
    out
}
