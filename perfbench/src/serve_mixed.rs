//! `serve-mixed`: an in-process `Server` with one decode worker per core
//! and per-session flight-recorder output, fed by one generator over two
//! loopback TCP connections:
//!
//! * `live` sends cf32 in 4096-sample chunks, each due on an absolute
//!   schedule at 1× real time (16 MS/s): an open loop;
//! * `bulk` sends u8 offset-128 in 4096-sample chunks as fast as TCP flow
//!   control admits, a closed loop, replaying its capture until the live
//!   schedule ends.
//!
//! This is the production shape — a live SDR feed beside a recorded-capture
//! replay — and the serve layer does the non-decode work: wire parsing,
//! both sample codecs, bounded queues, worker scheduling and flight-recorder
//! commits. The workload runs in rounds, each with a fresh server, so the
//! set-up and the per-round figures repeat many times within one run.
//!
//! The gated latency is the bulk session's enqueue→decoded latency: with
//! the bulk saturating its queue it is queue wait plus decode, and repeats
//! within about a tenth. The live session's latency flips between keeping
//! up (≈0.2 ms) and running a full queue behind (5–8 ms) from one round to
//! the next on a 2-core host, so it is reported, ungated, with the
//! per-layer metrics.

use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wazabee_dsp::io::SampleFormat;
use wazabee_serve::{proto, ServeConfig, Server, SessionReport};

use crate::capture::{self, Capture, FrameCheck, FRAMES};
use crate::stats;
use crate::trace::Tracer;
use crate::{self_shares, stage_total_s, stream_layer, Outcome, RunCfg};

/// Live chunks per round, rounded up to whole captures: enough for a
/// supported p99 (see [`stats::supports`]), and far below the 65 536
/// latency samples a session report keeps.
const LIVE_CHUNKS: usize = 1_000;

/// The clients of round `r` connect `ARRIVAL_SPAN × (r mod ARRIVALS) /
/// ARRIVALS` after the listener is up, untimed, as independent clients
/// would. The server's accept loop polls, so how long registration takes
/// depends on where in its poll period the clients arrive; evenly spread
/// arrivals make the `setup_s` median sample every phase alike instead of
/// whichever one a start-up race favours.
const ARRIVAL_SPAN: Duration = Duration::from_millis(20);
const ARRIVALS: u32 = 41;

/// Generator-side buffer per connection: one encoded cf32 chunk plus its
/// record header fits, so a live chunk leaves in one write.
const WRITE_BUF: usize = 64 << 10;

/// How long to wait for both sessions to register before giving up.
const REGISTER_TIMEOUT: Duration = Duration::from_secs(30);

/// A session's input: the capture and its chunks encoded for the wire.
struct Feed {
    cap: Capture,
    format: SampleFormat,
    chunks: Vec<Vec<u8>>,
}

impl Feed {
    fn new(cap: Capture, format: SampleFormat) -> Self {
        let chunks = (0..cap.chunks())
            .map(|k| format.encode(cap.chunk(k)))
            .collect();
        Feed {
            cap,
            format,
            chunks,
        }
    }

    fn bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }
}

/// The inputs every round replays.
struct Plan {
    live: Feed,
    bulk: Feed,
    /// Whole live captures per round.
    live_replays: usize,
    /// Per-run scratch directory for the sessions' flight-recorder output.
    root: PathBuf,
}

/// What one round measured.
struct Round {
    traced: bool,
    setup_s: f64,
    /// Bulk airtime sent and the wall time from release to its report.
    bulk: (f64, f64),
    live_report: SessionReport,
    bulk_report: SessionReport,
    live_late_ms: Vec<f64>,
    bulk_blocked_s: f64,
    shutdown_ms: f64,
    flightrec_bytes: u64,
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let live = Feed::new(capture::build(cfg.seed, b'L'), SampleFormat::Cf32);
    let plan = Plan {
        live_replays: LIVE_CHUNKS.div_ceil(live.chunks.len()),
        live,
        bulk: Feed::new(capture::build(cfg.seed, b'B'), SampleFormat::U8Offset128),
        root: cfg.out_dir.join(format!("serve-{}", std::process::id())),
    };

    let mut tracer = Tracer::new(cfg.epoch, 0, false);
    // One untimed round warms caches, sockets and the allocator.
    let mut ok = round(cfg, &mut tracer, &plan, 0, &mut out).is_some();
    wazabee_telemetry::reset();

    let mut rounds = Vec::new();
    let start = Instant::now();
    let mut r = 1u64;
    while ok && start.elapsed() < cfg.seconds {
        // The traced run alternates traced and untraced rounds.
        tracer.set_on(cfg.trace && r.is_multiple_of(2));
        match round(cfg, &mut tracer, &plan, r, &mut out) {
            Some(m) => rounds.push(m),
            None => ok = false,
        }
        r += 1;
    }
    let _ = std::fs::remove_dir_all(&plan.root);
    let plain: Vec<&Round> = rounds.iter().filter(|m| !m.traced).collect();
    if plain.is_empty() {
        out.fail("no round completed".into());
        return out;
    }
    // Per-round figures are summarised by their trimmed mean over the
    // untraced rounds (see `stats::trimmed_mean` for why not the median).
    let over_rounds = |f: &dyn Fn(&Round) -> f64| {
        stats::trimmed_mean(&plain.iter().map(|m| f(m)).collect::<Vec<_>>())
    };
    let rate = |traced: bool| {
        let units: Vec<(f64, f64)> = rounds
            .iter()
            .filter(|m| m.traced == traced)
            .map(|m| m.bulk)
            .collect();
        stats::rate(&units)
    };
    let rt = rate(false);
    let live_p50 = over_rounds(&|m| m.live_report.latency_p50_us as f64 * 1e-3);
    let live_p99 = over_rounds(&|m| m.live_report.latency_p99_us as f64 * 1e-3);
    out.notes.push(format!(
        "{} rounds: live {} chunks at 1x (latency p50 {live_p50} ms, p99 {live_p99} ms), \
         bulk {:.1} captures at {rt:.3}x",
        rounds.len(),
        plan.live_replays * plan.live.chunks.len(),
        rt * plan.live_replays as f64,
    ));

    if cfg.trace {
        let late: Vec<f64> = rounds
            .iter()
            .flat_map(|m| m.live_late_ms.iter().copied())
            .collect();
        let reports = || rounds.iter().flat_map(|m| [&m.live_report, &m.bulk_report]);
        out.set("serve.live.latency_p50_ms", live_p50);
        out.set("serve.live.latency_p99_ms", live_p99);
        out.set(
            "serve.live.late_ms_p99",
            stats::percentile(&late, 0.99).unwrap_or(f64::NAN),
        );
        out.set(
            "serve.bulk.write_blocked_s",
            rounds.iter().map(|m| m.bulk_blocked_s).sum(),
        );
        out.set("serve.shutdown_ms", over_rounds(&|m| m.shutdown_ms));
        out.set(
            "serve.queue_high_water",
            reports().map(|r| r.queue_high_water).max().unwrap_or(0) as f64,
        );
        out.set(
            "serve.chunks_in",
            reports().map(|r| r.chunks_in).sum::<u64>() as f64,
        );
        out.set(
            "serve.chunks_dropped",
            reports().map(|r| r.chunks_dropped).sum::<u64>() as f64,
        );
        out.set(
            "serve.bytes_in",
            reports().map(|r| r.bytes_in).sum::<u64>() as f64,
        );
        out.set(
            "flightrec.bytes",
            rounds.iter().map(|m| m.flightrec_bytes).sum::<u64>() as f64,
        );
        stream_layer(&mut out, stage_total_s("serve.decode"));
        self_shares(&mut out, &[("serve.decode.self_share", "serve.decode")]);
        out.set("trace_overhead_pct", (rt / rate(true) - 1.0) * 100.0);
        out.spans = tracer.spans().to_vec();
    } else {
        out.set("rt_x", rt);
        out.set(
            "latency_p50_ms",
            over_rounds(&|m| m.bulk_report.latency_p50_us as f64 * 1e-3),
        );
        out.set(
            "latency_p99_ms",
            over_rounds(&|m| m.bulk_report.latency_p99_us as f64 * 1e-3),
        );
        let setups: Vec<f64> = plain.iter().map(|m| m.setup_s).collect();
        out.set("setup_s", stats::median(&setups));
    }
    out
}

/// One round, with its operations and check failures booked into `out`.
/// Returns `None` when the round could not run to the end.
fn round(
    cfg: &RunCfg,
    tracer: &mut Tracer,
    plan: &Plan,
    r: u64,
    out: &mut Outcome,
) -> Option<Round> {
    let dir = plan.root.join(format!("round-{r}"));
    let res = run_round(cfg, tracer, plan, &dir, r, out);
    let _ = std::fs::remove_dir_all(&dir);
    match res {
        Ok(m) => Some(m),
        Err(e) => {
            out.failed += 1;
            out.fail(format!("round {r}: {e}"));
            None
        }
    }
}

/// Generator connections, one per name, each introduced by a `Hello`.
/// Every connection is opened before any `Hello` is sent, so all of them
/// wait in the listener's backlog for the same pass of the accept loop.
fn connect<const N: usize>(
    addr: SocketAddr,
    names: [&str; N],
) -> std::io::Result<[BufWriter<TcpStream>; N]> {
    let mut conns = Vec::with_capacity(N);
    for _ in names {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conns.push(BufWriter::with_capacity(WRITE_BUF, conn));
    }
    for (w, name) in conns.iter_mut().zip(names) {
        proto::write_hello(w, name)?;
        w.flush()?;
    }
    Ok(conns.try_into().expect("one connection per name"))
}

/// One round: a fresh server, both sessions over one shared window, a
/// drained shutdown and the output checks.
fn run_round(
    cfg: &RunCfg,
    tracer: &mut Tracer,
    plan: &Plan,
    dir: &Path,
    r: u64,
    out: &mut Outcome,
) -> Result<Round, String> {
    let Plan {
        live,
        bulk,
        live_replays,
        ..
    } = plan;
    let live_replays = *live_replays;
    let io = |e: std::io::Error| e.to_string();
    let round_span = tracer.open();

    // Set-up a user pays before samples flow: the server, its listener and
    // both sessions registered; the clients' arrival is not timed.
    let setup = tracer.open();
    let mut server = Server::start(ServeConfig {
        workers: cfg.nproc,
        output_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    });
    let addr = server.bind_tcp("127.0.0.1:0").map_err(io)?;
    let listening_s = setup.start.elapsed().as_secs_f64();
    std::thread::sleep(ARRIVAL_SPAN * (r % u64::from(ARRIVALS)) as u32 / ARRIVALS);
    let connecting = Instant::now();
    let [mut live_conn, mut bulk_conn] = connect(addr, ["live", "bulk"]).map_err(io)?;
    while server.active_sessions() < 2 {
        if connecting.elapsed() > REGISTER_TIMEOUT {
            return Err(format!(
                "sessions not registered after {REGISTER_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let setup_s = listening_s + connecting.elapsed().as_secs_f64();
    tracer.close(setup, "serve.setup", r, round_span.uid);

    let traced = tracer.on();
    let live_done = AtomicBool::new(false);
    let period_s = stats::airtime_s(capture::CHUNK as u64);
    let live_chunks = live_replays * live.chunks.len();
    let release = Instant::now();
    let (live_res, bulk_res) = std::thread::scope(|s| {
        let live_thread = s.spawn(|| {
            let mut t = Tracer::new(cfg.epoch, 1, traced);
            let session = t.open();
            // Lateness is a per-layer figure; an untraced run does not keep
            // it, so its peak RSS holds no benchmark samples.
            let mut late_ms = Vec::new();
            let mut sent = Ok(());
            for k in 0..live_chunks {
                let due = stats::due_s(k as u64, period_s);
                let now = release.elapsed().as_secs_f64();
                if due > now {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let w = t.open();
                let started = w.start.duration_since(release).as_secs_f64();
                if cfg.trace {
                    late_ms.push(stats::lateness_s(due, started) * 1e3);
                }
                let chunk = &live.chunks[k % live.chunks.len()];
                sent = proto::write_samples(&mut live_conn, live.format, chunk)
                    .and_then(|()| live_conn.flush());
                t.close(w, "serve.live.write", k as u64, session.uid);
                if sent.is_err() {
                    break;
                }
            }
            live_done.store(true, Ordering::SeqCst);
            let sent = sent
                .and_then(|()| proto::write_end(&mut live_conn))
                .and_then(|()| live_conn.flush());
            t.close(session, "serve.live.session", r, round_span.uid);
            (sent, late_ms, t)
        });

        let session = tracer.open();
        let mut blocked_s = 0.0;
        let mut replays = 0u64;
        let mut k = 0u64;
        let mut sent = Ok(());
        'replay: loop {
            for chunk in &bulk.chunks {
                let w = tracer.open();
                sent = proto::write_samples(&mut bulk_conn, bulk.format, chunk);
                blocked_s += w.start.elapsed().as_secs_f64();
                tracer.close(w, "serve.bulk.write", k, session.uid);
                k += 1;
                if sent.is_err() {
                    break 'replay;
                }
            }
            replays += 1;
            if live_done.load(Ordering::SeqCst) {
                break;
            }
        }
        let sent = sent
            .and_then(|()| proto::write_end(&mut bulk_conn))
            .and_then(|()| bulk_conn.flush());
        tracer.close(session, "serve.bulk.session", r, round_span.uid);
        let live_res = live_thread.join().expect("live generator thread panicked");
        (live_res, (sent, replays, blocked_s))
    });
    drop(live_conn);
    drop(bulk_conn);
    let (live_sent, live_late_ms, live_tracer) = live_res;
    let (bulk_sent, bulk_replays, bulk_blocked_s) = bulk_res;
    tracer.absorb(live_tracer);

    let shutdown = tracer.open();
    let summary = server.shutdown();
    let shutdown_ms = shutdown.start.elapsed().as_secs_f64() * 1e3;
    tracer.close(shutdown, "serve.shutdown", r, round_span.uid);
    tracer.close(round_span, "serve.round", r, 0);
    live_sent.map_err(|e| format!("live session write: {e}"))?;
    bulk_sent.map_err(|e| format!("bulk session write: {e}"))?;

    let find = |name: &str| {
        summary
            .reports
            .iter()
            .find(|rep| rep.name.ends_with(name))
            .cloned()
            .ok_or_else(|| format!("no {name} session report"))
    };
    let live_rep = find("-live")?;
    let bulk_rep = find("-bulk")?;

    // Output checks: every frame back with its own payload, nothing
    // dropped, every chunk and byte accounted.
    for (rep, feed, replays) in [
        (&live_rep, live, live_replays as u64),
        (&bulk_rep, bulk, bulk_replays),
    ] {
        let expected = replays * FRAMES as u64;
        let mut check = FrameCheck::new(&feed.cap.psdus);
        let jsonl = std::fs::read_to_string(dir.join(&rep.name).join("frames.jsonl"))
            .map_err(|e| format!("{}: frames.jsonl: {e}", rep.name))?;
        for line in jsonl.lines() {
            match parse_frame(line) {
                Some((psdu, fcs_ok)) => check.frame(&psdu, fcs_ok),
                None => check.unexpected += 1,
            }
        }
        out.attempted += expected;
        out.failed += check.failed(expected);
        if check.failed(expected) > 0 {
            out.fail(format!(
                "round {r} {}: {} of {expected} frames missing or wrong",
                rep.name,
                check.failed(expected)
            ));
        }
        let chunks = replays * feed.chunks.len() as u64;
        let bytes = replays * feed.bytes();
        if rep.chunks_dropped > 0 || rep.chunks_in != chunks || rep.bytes_in != bytes {
            out.failed += 1;
            out.fail(format!(
                "round {r} {}: {} chunks in ({chunks} sent), {} dropped, {} bytes in ({bytes} sent)",
                rep.name, rep.chunks_in, rep.chunks_dropped, rep.bytes_in,
            ));
        }
    }
    let bulk_wall_s = bulk_rep.finished.duration_since(release).as_secs_f64();
    Ok(Round {
        traced,
        setup_s,
        bulk: (
            bulk_replays as f64 * stats::airtime_s(bulk.cap.iq.len() as u64),
            bulk_wall_s,
        ),
        live_report: live_rep,
        bulk_report: bulk_rep,
        live_late_ms,
        bulk_blocked_s,
        shutdown_ms,
        flightrec_bytes: dir_bytes(dir),
    })
}

/// `(psdu, fcs_ok)` from one `frames.jsonl` line.
fn parse_frame(line: &str) -> Option<(Vec<u8>, bool)> {
    let fcs_ok = match line.split("\"fcs_ok\":").nth(1)? {
        v if v.starts_with("true") => true,
        v if v.starts_with("false") => false,
        _ => return None,
    };
    let hex = line.split("\"psdu\":\"").nth(1)?.split('"').next()?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let psdu = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
        .collect::<Option<Vec<u8>>>()?;
    Some((psdu, fcs_ok))
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flightrec_frame_lines() {
        let line = "{\"ts_us\":12,\"len\":3,\"fcs_ok\":true,\"chip_errors\":0,\
                    \"shr_errors\":1,\"psdu\":\"0aff10\"}";
        assert_eq!(parse_frame(line), Some((vec![0x0a, 0xff, 0x10], true)));
        assert_eq!(
            parse_frame(&line.replace("true", "false")),
            Some((vec![0x0a, 0xff, 0x10], false))
        );
        assert_eq!(parse_frame("{\"fcs_ok\":true,\"psdu\":\"abc\"}"), None);
        assert_eq!(parse_frame("{}"), None);
    }
}
