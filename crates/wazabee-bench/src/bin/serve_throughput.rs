//! Serve-plane benchmark: many concurrent loopback client sessions against
//! one `wazabee-serve` worker pool.
//!
//! Spawns N client threads, each opening its own TCP connection to a local
//! [`wazabee_serve::Server`], announcing a session name and streaming a
//! clean multi-frame 802.15.4 capture through the length-prefixed wire
//! protocol — even-numbered sessions as cf32, odd-numbered as u8 offset-128,
//! so both wire codecs are on the hot path. Clients pace their chunks on a
//! fixed interval, the way a real SDR front-end delivers samples at its
//! sample rate: the serve plane is measured on *sustained* concurrent
//! streaming, not on draining an instantaneous burst in whatever order the
//! thread scheduler happens to run the ingest threads. After all clients
//! finish the server is drained via graceful shutdown and every session's
//! report is folded into:
//!
//! * aggregate decoded frames per second across the whole pool,
//! * per-session decode latency percentiles (p50 of session medians, worst
//!   session p99),
//! * a fairness row: min/max per-session throughput ratio — the multi-tenant
//!   property that no session starves while a neighbour firehoses.
//!
//! Writes `BENCH_serve.json` to the current directory or the path given with
//! `--out`.
//!
//! Run with:
//! `cargo run --release -p wazabee-bench --bin serve_throughput [--smoke] [--sessions N] [--frames N] [--workers N] [--pace-ms MS] [--out PATH]`

use std::io::Write;
use std::time::{Duration, Instant};

use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
use wazabee_dsp::io::SampleFormat;
use wazabee_dsp::{Iq, IqBuf};
use wazabee_serve::{proto, ServeConfig, Server};
use wazabee_telemetry::json::{Fixed, Writer};

/// Samples per wire record — the simulated SDR front-end's chunk size.
const CHUNK_SAMPLES: usize = 4096;

/// One clean capture for a session: `frames` deliveries with varied silence
/// gaps, unique payload bytes per (session, frame) so recovery is checkable.
fn build_capture(session: usize, frames: usize, sps: usize) -> Vec<Iq> {
    let zigbee = Dot154Modem::new(sps);
    let mut buf = vec![Iq::ZERO; 500];
    for k in 0..frames {
        let ppdu = Ppdu::new(append_fcs(&[
            session as u8,
            k as u8,
            0xA5,
            0x5A,
            1,
            2,
            3,
            4,
        ]))
        .unwrap();
        buf.extend(zigbee.transmit(&ppdu));
        buf.extend(vec![Iq::ZERO; 600 + 100 * (k % 5)]);
    }
    buf
}

/// Streams one capture over one TCP connection in wire-protocol records.
///
/// Every client connects and announces itself, then waits on the shared
/// barrier before streaming samples — so the fairness row measures steady
/// multi-tenant service, not the cold-start head start of whichever session
/// happened to be accepted first. Chunks are sent on an absolute schedule
/// (`release + k * pace`) like an SDR front-end delivering samples in real
/// time; with every session on the same schedule, equal workloads should
/// finish together and the fairness ratio exposes any session the pool lets
/// fall behind.
fn run_client(
    addr: std::net::SocketAddr,
    session: usize,
    capture: &[Iq],
    start: &std::sync::Barrier,
    pace: Duration,
) {
    let format = if session.is_multiple_of(2) {
        SampleFormat::Cf32
    } else {
        SampleFormat::U8Offset128
    };
    let mut conn = std::net::TcpStream::connect(addr).expect("connect loopback");
    proto::write_hello(&mut conn, &format!("client-{session:02}")).expect("hello");
    conn.flush().expect("flush hello");
    start.wait();
    let release = Instant::now();
    let mut planar = IqBuf::with_capacity(CHUNK_SAMPLES);
    for (k, chunk) in capture.chunks(CHUNK_SAMPLES).enumerate() {
        let due = release + pace * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        planar.clear();
        planar.extend_interleaved(chunk);
        let payload = format.encode(planar.as_slice());
        proto::write_samples(&mut conn, format, &payload).expect("samples");
    }
    proto::write_end(&mut conn).expect("end");
    conn.flush().expect("flush");
}

/// Parses the numeric operand of `flag` off the argument stream or exits.
fn parse_usize(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("{flag} requires a number");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut sessions_arg: Option<usize> = None;
    let mut frames_arg: Option<usize> = None;
    let mut workers = 4usize;
    let mut pace_ms = 40u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--sessions" => sessions_arg = Some(parse_usize(&mut args, "--sessions")),
            "--frames" => frames_arg = Some(parse_usize(&mut args, "--frames")),
            "--workers" => workers = parse_usize(&mut args, "--workers"),
            "--pace-ms" => pace_ms = parse_usize(&mut args, "--pace-ms") as u64,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "usage: serve_throughput [--smoke] [--sessions N] [--frames N] [--workers N] [--pace-ms MS] [--out PATH]   (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }
    let sessions = sessions_arg.unwrap_or(if smoke { 8 } else { 64 });
    let frames_per_session = frames_arg.unwrap_or(if smoke { 4 } else { 8 });
    let pace = Duration::from_millis(pace_ms);

    // A protocol error or a dropped chunk on the loopback socket path means
    // the serve plane itself is broken, not the radio.
    wazabee_telemetry::health_rule!(
        "serve.proto.corrupt",
        wazabee_telemetry::Signal::counter("serve.proto.errors"),
        > 0.0
    );
    wazabee_telemetry::health_rule!(
        "serve.socket.dropping",
        wazabee_telemetry::Signal::counter("serve.chunks.dropped"),
        > 0.0
    );
    wazabee_telemetry::start_watchdog(std::time::Duration::from_millis(100));
    match wazabee_telemetry::serve_from_env() {
        Ok(Some(addr)) => eprintln!("telemetry snapshot server on {addr}"),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry snapshot server failed to start: {e}"),
    }

    let sps = 8;
    eprintln!("building {sessions} captures of {frames_per_session} frames ...");
    let captures: Vec<Vec<Iq>> = (0..sessions)
        .map(|s| build_capture(s, frames_per_session, sps))
        .collect();

    let queue_chunks = 32;
    let mut server = Server::start(ServeConfig {
        workers,
        queue_chunks,
        sps,
        ..ServeConfig::default()
    });
    let addr = server.bind_tcp("127.0.0.1:0").expect("bind loopback");
    eprintln!(
        "serve plane on {addr}: {workers} workers, {sessions} concurrent client sessions, one chunk per {pace_ms} ms each ..."
    );

    let barrier = std::sync::Arc::new(std::sync::Barrier::new(sessions + 1));
    let clients: Vec<_> = captures
        .into_iter()
        .enumerate()
        .map(|(s, capture)| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::Builder::new()
                .name(format!("serve-bench-client-{s:02}"))
                .spawn(move || run_client(addr, s, &capture, &barrier, pace))
                .expect("spawn client")
        })
        .collect();
    // Hold every client at the barrier until the server has *registered*
    // all sessions: connect() succeeds out of the listen backlog long before
    // the accept loop (competing for CPU with the decode plane) registers
    // the session, and a late-registered session would measure a shorter —
    // unfairly fast — service window.
    while server.active_sessions() < sessions {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let start = Instant::now();
    barrier.wait();
    for c in clients {
        c.join().expect("client thread");
    }
    let summary = server.shutdown();
    let secs = start.elapsed().as_secs_f64().max(1e-9);

    let total_frames = (sessions * frames_per_session) as u64;
    let recovered: u64 = summary.reports.iter().map(|r| r.frames - r.crc_fail).sum();
    let crc_fail: u64 = summary.reports.iter().map(|r| r.crc_fail).sum();
    let dropped: u64 = summary.reports.iter().map(|r| r.chunks_dropped).sum();
    let aggregate_fps = recovered as f64 / secs;

    let mut p50s: Vec<u64> = summary.reports.iter().map(|r| r.latency_p50_us).collect();
    p50s.sort_unstable();
    let p50_us = p50s.get(p50s.len() / 2).copied().unwrap_or(0);
    let p99_us = summary
        .reports
        .iter()
        .map(|r| r.latency_p99_us)
        .max()
        .unwrap_or(0);

    // Fairness races equal workloads: every client is released from one
    // barrier at `start`, so a session's throughput is its frame count over
    // the time from that common release to its report committing. (The
    // report's own `frames_per_sec` spans only the session's service window,
    // whose start scatters with thread scheduling under load.)
    let session_fps: Vec<f64> = summary
        .reports
        .iter()
        .map(|r| {
            let secs = r.finished.saturating_duration_since(start).as_secs_f64();
            if secs > 0.0 {
                r.frames as f64 / secs
            } else {
                0.0
            }
        })
        .collect();
    let min_fps = session_fps.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_fps = session_fps.iter().cloned().fold(0.0f64, f64::max);
    let fairness = if max_fps > 0.0 {
        min_fps / max_fps
    } else {
        0.0
    };

    println!(
        "serve: {recovered}/{total_frames} frames across {sessions} sessions in {secs:.3} s = {aggregate_fps:.1} frames/sec aggregate"
    );
    println!(
        "latency: p50 {p50_us} us (median session), p99 {p99_us} us (worst session); fairness min/max {fairness:.3}"
    );
    if recovered != total_frames || crc_fail != 0 || dropped != 0 {
        eprintln!(
            "warning: recovered {recovered}/{total_frames}, crc_fail {crc_fail}, dropped {dropped}"
        );
    }

    let mut json = String::new();
    let mut w = Writer::new(&mut json);
    w.begin_object()
        .field("bench", "serve_throughput")
        .field("smoke", smoke)
        .field("sessions", sessions)
        .field("frames_per_session", frames_per_session)
        .field("workers", workers)
        .field("queue_chunks", queue_chunks)
        .field("chunk_samples", CHUNK_SAMPLES)
        .field("pace_ms", pace_ms)
        .field("total_frames", total_frames)
        .field("recovered", recovered)
        .field("crc_fail", crc_fail)
        .field("chunks_dropped", dropped)
        .field("seconds", Fixed(secs, 6))
        .field("aggregate_frames_per_sec", Fixed(aggregate_fps, 3))
        .key("latency_us")
        .begin_object()
        .field("p50", p50_us)
        .field("p99", p99_us)
        .end_object()
        .key("fairness")
        .begin_object()
        .field("min_session_fps", Fixed(min_fps, 3))
        .field("max_session_fps", Fixed(max_fps, 3))
        .field("min_max_ratio", Fixed(fairness, 3))
        .end_object()
        .key("sessions_detail")
        .begin_array();
    for (r, fps) in summary.reports.iter().zip(&session_fps) {
        w.begin_object()
            .field("name", &r.name)
            .field("frames", r.frames)
            .field("crc_fail", r.crc_fail)
            .field("p50_us", r.latency_p50_us)
            .field("p99_us", r.latency_p99_us)
            .field("duration_s", Fixed(r.duration_s, 6))
            .field("fps", Fixed(*fps, 3))
            .end_object();
    }
    w.end_array().end_object();
    json.push('\n');
    std::fs::write(&out_path, json).expect("write benchmark artifact");
    eprintln!("wrote {out_path}");
    print!("{}", wazabee_telemetry::profile_summary());

    for a in wazabee_telemetry::evaluate_health() {
        if a.latched {
            eprintln!("health alert: {} (value {:?})", a.name, a.value);
        }
    }
    match wazabee_telemetry::dump_trace_from_env() {
        Ok(true) => {
            if let Ok(p) = std::env::var(wazabee_telemetry::ENV_TRACE_OUT) {
                eprintln!("wrote Chrome trace to {p}");
            }
        }
        Ok(false) => {}
        Err(e) => eprintln!("trace dump failed: {e}"),
    }
}
