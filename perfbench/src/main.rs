//! End-to-end and per-layer benchmark of the WazaBee receive stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stream-decoy|serve-mixed|netsim-1024> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, measures one workload for
//! about `--seconds` seconds, checks the decoded output, and prints one
//! JSON object as its last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed output
//! check still prints that line, with `"correct": false`, and exits 1.
//!
//! The traced run alternates traced and untraced stretches of the same
//! workload, so `trace_overhead_pct` compares the two within one process.
//! Its spans are written to `perfbench/out/trace-<workload>-<seed>.json`.

mod affinity;
mod capture;
mod netsim;
mod serve_mixed;
mod stats;
mod stream_decoy;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by `--trace 0`, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("rt_x", "x"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1`, in output order. A layer that
/// a workload does not run reports 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("stream.push_calls", "count"),
    ("stream.busy_s", "s"),
    ("stream.frames", "count"),
    ("stream.attempts", "count"),
    ("stream.useful_ratio", "ratio"),
    ("dsp.discriminate.self_share", "share"),
    ("stream.demod.self_share", "share"),
    ("stream.correlate.self_share", "share"),
    ("stream.decode.self_share", "share"),
    ("stream.crc.self_share", "share"),
    ("serve.live.latency_p50_ms", "ms"),
    ("serve.live.latency_p99_ms", "ms"),
    ("serve.live.late_ms_p99", "ms"),
    ("serve.bulk.write_blocked_s", "s"),
    ("serve.shutdown_ms", "ms"),
    ("serve.queue_high_water", "count"),
    ("serve.chunks_in", "count"),
    ("serve.chunks_dropped", "count"),
    ("serve.bytes_in", "bytes"),
    ("serve.decode.self_share", "share"),
    ("flightrec.bytes", "bytes"),
    ("sim.step_ms_p50", "ms"),
    ("sim.step_ms_p99", "ms"),
    ("sim.events", "count"),
    ("sim.host_us_per_event", "us"),
    ("sim.readings_sent", "count"),
    ("sim.readings_delivered", "count"),
    ("sim.frames_decoded", "count"),
    ("sim.decode_failures", "count"),
    ("sim.collisions", "count"),
    ("sim.retries", "count"),
    ("sim.modulate.self_share", "share"),
    ("sim.superpose.self_share", "share"),
    ("sim.demod.self_share", "share"),
    ("sim.shard.advance.self_share", "share"),
    ("sim.shard.merge.self_share", "share"),
    ("trace_overhead_pct", "%"),
];

/// What every workload is given.
pub struct RunCfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
    /// Scratch directory for artifacts the layers write.
    pub out_dir: PathBuf,
    /// Time origin of every span.
    pub epoch: Instant,
    /// Worker threads the host offers.
    pub nproc: usize,
}

/// What every workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (expected frames, or readings sent).
    pub attempted: u64,
    /// Operations that failed, including failed output checks.
    pub failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: Vec<(&'static str, f64)>,
    /// Spans recorded by a traced run.
    pub spans: Vec<trace::Span>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed output check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

/// Share of the profiled self time spent in each named stage, from the
/// program's own stage profiler.
pub fn self_shares(out: &mut Outcome, stages: &[(&'static str, &str)]) {
    let rows = wazabee_telemetry::profile_report();
    let total: u64 = rows.iter().map(|r| r.self_ns).sum();
    for &(metric, stage) in stages {
        let own = rows
            .iter()
            .find(|r| r.name == stage)
            .map_or(0, |r| r.self_ns);
        out.set(metric, own as f64 / total.max(1) as f64);
    }
}

/// Total (inclusive) seconds the program's profiler attributes to `stage`.
pub fn stage_total_s(stage: &str) -> f64 {
    wazabee_telemetry::profile_report()
        .iter()
        .find(|r| r.name == stage)
        .map_or(0.0, |r| r.total_ns as f64 * 1e-9)
}

/// Self-time shares of the decode stages, as (metric, profiler stage).
const DECODE_STAGES: [(&str, &str); 5] = [
    ("dsp.discriminate.self_share", "dsp.discriminate"),
    ("stream.demod.self_share", "stream.demod"),
    ("stream.correlate.self_share", "stream.correlate"),
    ("stream.decode.self_share", "stream.decode"),
    ("stream.crc.self_share", "stream.crc"),
];

/// The `wazabee` stream engine's per-layer metrics: its own counters, the
/// decode stages' self-time shares, and `busy_s` as timed around the calls
/// into it by whichever layer drives it.
pub fn stream_layer(out: &mut Outcome, busy_s: f64) {
    let frames = telemetry_counter("wazabee.stream.frames");
    let attempts = telemetry_counter("wazabee.stream.attempts");
    out.set(
        "stream.push_calls",
        telemetry_counter("wazabee.stream.chunks") as f64,
    );
    out.set("stream.busy_s", busy_s);
    out.set("stream.frames", frames as f64);
    out.set("stream.attempts", attempts as f64);
    out.set(
        "stream.useful_ratio",
        frames as f64 / attempts.max(1) as f64,
    );
    self_shares(out, &DECODE_STAGES);
}

/// A flat counter from the program's telemetry snapshot.
fn telemetry_counter(name: &str) -> u64 {
    let snap = wazabee_telemetry::snapshot_json();
    let Some(body) = snap.split("\"counters\":{").nth(1) else {
        return 0;
    };
    let body = body.split('}').next().unwrap_or("");
    let key = format!("\"{name}\":");
    body.split(',')
        .find_map(|kv| kv.strip_prefix(&key))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Mean wall time of one set-up, in seconds, over one timed batch of
/// `per_batch` identical set-ups. Batching keeps set-ups far shorter than
/// a timer tick measurable.
pub fn setup_batch_s(per_batch: usize, mut setup: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..per_batch {
        setup();
    }
    t.elapsed().as_secs_f64() / per_batch as f64
}

/// `setup_s` from set-up times taken evenly over a whole run: the median
/// over windows of `window` consecutive times of each window's mean. The
/// host runs at one of two speeds, about 1.6x apart, for seconds at a time,
/// so set-ups timed in one burst all land on one of them and the run's
/// figure jumps between two levels; windows spanning several seconds each
/// hold a mix, and their median keeps a stretch that outside load slowed
/// from pulling the figure with it.
pub fn setup_s(times: &[f64], window: usize) -> f64 {
    stats::median_window_mean(times, window.clamp(1, times.len().max(1)))
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `nproc` and the CPU model, recorded with every result.
fn host_fingerprint(nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{}\"", cpu.replace('"', "'"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream-decoy|serve-mixed|netsim-1024> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        out_dir: PathBuf::from("perfbench/out"),
        epoch: Instant::now(),
        nproc,
    };
    let run = match args.workload.as_str() {
        "stream-decoy" => stream_decoy::run,
        "serve-mixed" => serve_mixed::run,
        "netsim-1024" => netsim::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let mut out = run(&cfg);
    let host = host_fingerprint(nproc);

    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    if !cfg.trace {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"host\":\"{}\"",
            args.workload,
            args.seed,
            host.replace('"', "'")
        );
        match trace::write_json(&path, &header, &out.spans) {
            Ok(()) => out.notes.push(format!(
                "wrote {} spans to {}",
                out.spans.len(),
                path.display()
            )),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let mut metrics = String::new();
    for (k, &(name, unit)) in wanted.iter().enumerate() {
        let found = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        if found.is_none() && !cfg.trace {
            out.fail(format!("metric {name} was not measured"));
        }
        // A layer the workload does not run reports 0.
        let value = found.unwrap_or(0.0);
        if !value.is_finite() {
            out.fail(format!("metric {name} is not finite"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        if k > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
        out.notes.push(format!("{name:32} {value:>16.6} {unit}"));
    }

    let correct = out.errors.is_empty();
    let failed = out.failed.max(u64::from(!correct));
    let attempted = out.attempted.max(failed).max(1);
    println!(
        "workload: {} seed={} host: {host}",
        args.workload, args.seed
    );
    for n in &out.notes {
        println!("{n}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`,
    /// under the same unit, and nothing else is.
    #[test]
    fn metrics_match_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = manifest.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "{name} ({unit}) not declared");
        }
    }
}
