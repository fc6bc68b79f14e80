//! The serve plane itself: listeners, ingest threads, the decode worker
//! pool and graceful shutdown.
//!
//! One [`Server`] owns a fixed pool of decode workers. Every accepted
//! connection (TCP or unix) and every tailed file becomes a session,
//! assigned to a worker by `id % workers`; the session's ingest thread
//! parses protocol records, converts payloads to planar IQ and hands chunks
//! across the bounded [`crate::session::ChunkQueue`]. Each worker owns one
//! [`wazabee::WazaBeeRx`] and a free-list of flushed
//! [`wazabee::stream::StreamingRx`] engines: when a session ends, its engine
//! is `flush()`ed, `reset()` and recycled for the next session on that
//! worker — lane bit buffers, sample rails and scratch keep their capacity
//! across tenants.
//!
//! [`Server::shutdown`] drains rather than aborts: listeners stop accepting,
//! ingest threads run to their `End`, workers finish every queued chunk and
//! flush every recorder, and only then does the call return the collected
//! [`SessionReport`]s.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use wazabee::stream::StreamingRx;
use wazabee::WazaBeeRx;
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dsp::io::SampleFormat;
use wazabee_dsp::IqBuf;
use wazabee_flightrec::pcap::{PcapWriter, LINKTYPE_IEEE802_15_4_WITHFCS};
use wazabee_telemetry::json::{Fixed, Writer};

use crate::proto::{self, Record};
use crate::session::{Session, SessionMsg, SessionReport, WorkerWake};
use crate::tail;

/// Messages a worker processes from one session before moving to the next —
/// the fairness quantum that stops one firehose session starving its
/// queue-mates on the same worker. Kept small: with many short sessions
/// multiplexed on one worker, a coarse quantum lets whichever session sits
/// first in the slot drain entirely while the last one waits whole passes,
/// and the per-pass bookkeeping (one lock + session-list clone) is dwarfed
/// by even a single 4096-sample chunk decode.
const WORKER_BATCH: usize = 2;

/// How long an idle worker parks before re-checking its queues anyway.
const WORKER_PARK: Duration = Duration::from_millis(5);

/// Accept-loop poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Socket read timeout, so ingest threads notice shutdown even when a
/// client goes silent mid-session.
const SOCKET_READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Configuration for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Decode worker threads (each owns one receive primitive and an engine
    /// free-list).
    pub workers: usize,
    /// Bounded chunk-queue capacity per session.
    pub queue_chunks: usize,
    /// Samples per symbol of the decode plane (8 everywhere in this tree).
    pub sps: usize,
    /// Where per-session artifact directories (`frames.pcap`,
    /// `frames.jsonl`, `report.json`) are written; `None` disables them.
    pub output_dir: Option<PathBuf>,
    /// File-tail poll interval, milliseconds.
    pub tail_poll_ms: u64,
    /// Artificial per-chunk decode delay — test instrumentation for
    /// exercising backpressure; zero in production.
    pub decode_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_chunks: 32,
            sps: 8,
            output_dir: None,
            tail_poll_ms: 20,
            decode_delay: Duration::ZERO,
        }
    }
}

/// One worker's shared slot: the sessions assigned to it and its wake bell.
#[derive(Debug, Default)]
pub(crate) struct WorkerSlot {
    pub(crate) sessions: Mutex<Vec<Arc<Session>>>,
    pub(crate) wake: Arc<WorkerWake>,
}

/// State shared by listeners, ingest threads, workers and the owner handle.
#[derive(Debug)]
pub(crate) struct ServerState {
    pub(crate) cfg: ServeConfig,
    /// Stops accept loops and ingest threads.
    pub(crate) shutdown: AtomicBool,
    /// Stops workers — set only after every session has drained.
    workers_stop: AtomicBool,
    next_id: AtomicU64,
    /// Open-session count, decremented by workers as reports commit.
    open: Mutex<usize>,
    drained: Condvar,
    reports: Mutex<Vec<SessionReport>>,
    pub(crate) workers: Vec<Arc<WorkerSlot>>,
    /// Ingest/tail thread handles, appended by accept loops and `tail_file`.
    ingest: Mutex<Vec<JoinHandle<()>>>,
}

/// A running multi-tenant decode service. See the module docs for the
/// architecture; see [`Server::shutdown`] for the drain contract.
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    worker_handles: Vec<JoinHandle<()>>,
    accept_handles: Vec<JoinHandle<()>>,
}

/// Everything [`Server::shutdown`] hands back: one report per session, in
/// session-id order.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final statistics for every session the server carried.
    pub reports: Vec<SessionReport>,
}

impl ServeSummary {
    /// Total frames delivered across all sessions.
    pub fn total_frames(&self) -> u64 {
        self.reports.iter().map(|r| r.frames).sum()
    }
}

impl Server {
    /// Starts the worker pool. No listener exists yet — follow with
    /// [`Server::bind_tcp`], [`Server::bind_unix`] or [`Server::tail_file`].
    pub fn start(cfg: ServeConfig) -> Server {
        let workers = cfg.workers.max(1);
        let state = Arc::new(ServerState {
            cfg,
            shutdown: AtomicBool::new(false),
            workers_stop: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            open: Mutex::new(0),
            drained: Condvar::new(),
            reports: Mutex::new(Vec::new()),
            workers: (0..workers)
                .map(|_| Arc::new(WorkerSlot::default()))
                .collect(),
            ingest: Mutex::new(Vec::new()),
        });
        let worker_handles = (0..workers)
            .map(|w| {
                let st = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("wazabee-serve-worker-{w}"))
                    .spawn(move || decode_worker(st, w))
                    .expect("spawn decode worker")
            })
            .collect();
        Server {
            state,
            worker_handles,
            accept_handles: Vec::new(),
        }
    }

    /// Binds a TCP listener and starts its accept loop; returns the bound
    /// address (port 0 picks a free port).
    pub fn bind_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let state = Arc::clone(&self.state);
        let handle = std::thread::Builder::new()
            .name("wazabee-serve-accept-tcp".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_read_timeout(Some(SOCKET_READ_TIMEOUT));
                        spawn_socket_ingest(&state, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            })?;
        self.accept_handles.push(handle);
        Ok(bound)
    }

    /// Binds a unix-socket listener (replacing any stale socket file) and
    /// starts its accept loop.
    pub fn bind_unix(&mut self, path: &Path) -> io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let state = Arc::clone(&self.state);
        let handle = std::thread::Builder::new()
            .name("wazabee-serve-accept-unix".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_read_timeout(Some(SOCKET_READ_TIMEOUT));
                        spawn_socket_ingest(&state, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            })?;
        self.accept_handles.push(handle);
        Ok(())
    }

    /// Starts tailing `path` as one session in the given sample format;
    /// the tail follows file growth until shutdown. See [`crate::tail`].
    pub fn tail_file(&self, path: &Path, format: SampleFormat, name: &str) -> io::Result<()> {
        tail::spawn_tail(&self.state, path, format, name)
    }

    /// Sessions accepted and not yet drained to their final report.
    pub fn active_sessions(&self) -> usize {
        *self.state.open.lock().unwrap()
    }

    /// Drains and stops the service:
    ///
    /// 1. listeners stop accepting;
    /// 2. ingest threads run to end-of-stream (tails take one final poll)
    ///    and are joined;
    /// 3. the call blocks until every session's queue has been decoded dry
    ///    and its report committed (recorders flushed);
    /// 4. workers stop and are joined.
    ///
    /// Nothing enqueued before the call is lost.
    pub fn shutdown(self) -> ServeSummary {
        let Server {
            state,
            worker_handles,
            accept_handles,
        } = self;
        state.shutdown.store(true, Ordering::SeqCst);
        for h in accept_handles {
            let _ = h.join();
        }
        // Accept loops are gone: the ingest list is final now.
        let ingest: Vec<JoinHandle<()>> = state.ingest.lock().unwrap().drain(..).collect();
        for h in ingest {
            let _ = h.join();
        }
        // Every session has its End queued; wait for the workers to drain.
        {
            let mut open = state.open.lock().unwrap();
            while *open > 0 {
                open = state.drained.wait(open).unwrap();
            }
        }
        state.workers_stop.store(true, Ordering::SeqCst);
        for slot in &state.workers {
            slot.wake.ring();
        }
        for h in worker_handles {
            let _ = h.join();
        }
        let mut reports = state.reports.lock().unwrap().clone();
        reports.sort_by_key(|r| r.id);
        ServeSummary { reports }
    }
}

/// Restricts a session name to a filesystem- and telemetry-safe alphabet.
pub(crate) fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("session");
    }
    out
}

/// Registers a new session on the next worker slot and returns it.
pub(crate) fn open_session(state: &Arc<ServerState>, name: String) -> Arc<Session> {
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    let slot = &state.workers[id as usize % state.workers.len()];
    let session = Arc::new(Session::new(
        id,
        name,
        state.cfg.queue_chunks,
        Arc::clone(&slot.wake),
    ));
    slot.sessions.lock().unwrap().push(Arc::clone(&session));
    {
        let mut open = state.open.lock().unwrap();
        *open += 1;
        wazabee_telemetry::gauge!("serve.sessions.active")
            .with(&[("plane", "serve")])
            .set(*open as f64);
    }
    wazabee_telemetry::counter!("serve.sessions.opened").inc();
    slot.wake.ring();
    session
}

/// Registers an ingest/tail thread handle for shutdown to join.
pub(crate) fn track_ingest(state: &ServerState, handle: JoinHandle<()>) {
    state.ingest.lock().unwrap().push(handle);
}

/// A reader over a timeout-bearing socket that converts read timeouts into
/// retries — or, once shutdown is flagged, into EOF — so `read_exact` in the
/// record parser never observes a spurious `WouldBlock` mid-record.
struct ShutdownAwareReader<R> {
    inner: R,
    state: Arc<ServerState>,
}

impl<R: Read> Read for ShutdownAwareReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.state.shutdown.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }
}

fn spawn_socket_ingest<S: Read + Send + 'static>(state: &Arc<ServerState>, stream: S) {
    let st = Arc::clone(state);
    let session = open_session(state, String::new());
    {
        let mut name = session.name.lock().unwrap();
        *name = format!("session-{:04}", session.id);
    }
    let handle = std::thread::Builder::new()
        .name(format!("wazabee-serve-ingest-{:04}", session.id))
        .spawn(move || {
            let mut reader = ShutdownAwareReader {
                inner: stream,
                state: Arc::clone(&st),
            };
            socket_ingest_loop(&mut reader, &session);
        })
        .expect("spawn ingest thread");
    track_ingest(state, handle);
}

/// Parses records off one socket until `End`, EOF or a protocol error,
/// pushing decoded chunks with blocking backpressure.
fn socket_ingest_loop(reader: &mut impl Read, session: &Arc<Session>) {
    let mut renamed = false;
    let mut chunks = 0u64;
    loop {
        match proto::read_record(reader) {
            Ok(Some(Record::Hello(name))) => {
                // A rename only takes effect before the first samples, so
                // the worker's lazily opened artifacts see the final name.
                if !renamed && chunks == 0 {
                    *session.name.lock().unwrap() =
                        format!("{:04}-{}", session.id, sanitize_name(&name));
                    renamed = true;
                }
            }
            Ok(Some(Record::Samples(format, payload))) => {
                let mut samples = IqBuf::with_capacity(payload.len() / format.bytes_per_sample());
                if format.decode(&payload, &mut samples).is_err() {
                    wazabee_telemetry::counter!("serve.proto.errors").inc();
                    session.push_end();
                    return;
                }
                session
                    .bytes_in
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                wazabee_telemetry::counter!("serve.bytes_in").add(payload.len() as u64);
                chunks += 1;
                session.push_chunk_blocking(samples);
            }
            Ok(Some(Record::End)) | Ok(None) => {
                session.push_end();
                return;
            }
            Err(_) => {
                wazabee_telemetry::counter!("serve.proto.errors").inc();
                session.push_end();
                return;
            }
        }
    }
}

/// Per-session artifact sinks, opened lazily by the worker on the session's
/// first processed message (by which point a `Hello` rename is final).
struct Artifacts {
    dir: PathBuf,
    pcap: PcapWriter,
    jsonl: BufWriter<File>,
    /// Reused render buffers for one `frames.jsonl` line and its PSDU hex.
    line: String,
    hex: String,
}

impl Artifacts {
    fn open(root: &Path, session: &Session) -> io::Result<Artifacts> {
        let name = session.name.lock().unwrap().clone();
        let dir = root.join(sanitize_name(&name));
        std::fs::create_dir_all(&dir)?;
        let pcap = PcapWriter::create(&dir.join("frames.pcap"), LINKTYPE_IEEE802_15_4_WITHFCS)?;
        let jsonl = BufWriter::new(File::create(dir.join("frames.jsonl"))?);
        Ok(Artifacts {
            dir,
            pcap,
            jsonl,
            line: String::new(),
            hex: String::new(),
        })
    }
}

/// One tenancy on a worker: the session, its (possibly recycled) decode
/// engine and its artifact sinks.
struct Run<'rx> {
    engine: StreamingRx<'rx, BleModem>,
    artifacts: Option<Artifacts>,
    artifacts_failed: bool,
}

/// The decode worker loop: round-robins its sessions with a fairness
/// quantum, recycles engines through `flush` → `reset`, and commits each
/// session's report when its `End` arrives.
fn decode_worker(state: Arc<ServerState>, widx: usize) {
    let slot = Arc::clone(&state.workers[widx]);
    let cfg = state.cfg.clone();
    let rx = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, cfg.sps))
        .expect("serve worker: diverted BLE receive primitive");
    let mut runs: HashMap<u64, Run<'_>> = HashMap::new();
    let mut free: Vec<StreamingRx<'_, BleModem>> = Vec::new();
    let queue_depth =
        wazabee_telemetry::gauge!("serve.queue.depth").with(&[("worker", &widx.to_string())]);
    loop {
        let sessions: Vec<Arc<Session>> = slot.sessions.lock().unwrap().clone();
        let mut did_work = false;
        let mut depth_total = 0usize;
        for session in &sessions {
            let run = runs.entry(session.id).or_insert_with(|| Run {
                engine: free.pop().unwrap_or_else(|| rx.stream()),
                artifacts: None,
                artifacts_failed: false,
            });
            let mut finished = false;
            for _ in 0..WORKER_BATCH {
                let Some(msg) = session.queue.pop() else {
                    break;
                };
                did_work = true;
                if run.artifacts.is_none() && !run.artifacts_failed {
                    if let Some(root) = &cfg.output_dir {
                        match Artifacts::open(root, session) {
                            Ok(a) => run.artifacts = Some(a),
                            Err(_) => run.artifacts_failed = true,
                        }
                    } else {
                        run.artifacts_failed = true;
                    }
                }
                match msg {
                    SessionMsg::Chunk { samples, enqueued } => {
                        if !cfg.decode_delay.is_zero() {
                            std::thread::sleep(cfg.decode_delay);
                        }
                        let results = {
                            let _st = wazabee_telemetry::scope!("serve.decode");
                            run.engine.push_planar(samples.as_slice())
                        };
                        commit_results(session, run, &results);
                        let us = enqueued.elapsed().as_micros() as u64;
                        session.record_latency(us);
                        wazabee_telemetry::histogram!("serve.decode.latency_us", 0.0, 1.0e6)
                            .record(us as f64);
                    }
                    SessionMsg::End => {
                        let results = run.engine.flush();
                        commit_results(session, run, &results);
                        finished = true;
                        break;
                    }
                }
            }
            depth_total += session.queue.len();
            if finished {
                finish_session(&state, &slot, session, &mut runs, &mut free);
            }
        }
        queue_depth.set(depth_total as f64);
        if !did_work {
            if state.workers_stop.load(Ordering::SeqCst) {
                return;
            }
            slot.wake.park(WORKER_PARK);
        }
    }
}

/// Folds one batch of decode results into the session's counters and
/// artifact sinks.
fn commit_results(
    session: &Arc<Session>,
    run: &mut Run<'_>,
    results: &[Result<wazabee_dot154::modem::ReceivedPpdu, wazabee::WazaBeeError>],
) {
    for result in results {
        session.attempts.fetch_add(1, Ordering::Relaxed);
        let Ok(ppdu) = result else { continue };
        session.frames.fetch_add(1, Ordering::Relaxed);
        wazabee_telemetry::counter!("serve.frames").inc();
        let fcs_ok = ppdu.fcs_ok();
        if !fcs_ok {
            session.crc_fail.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(a) = &mut run.artifacts {
            let ts_us = session.started.elapsed().as_micros() as u64;
            let _ = a.pcap.write_packet(ts_us, &ppdu.psdu);
            a.hex.clear();
            for b in &ppdu.psdu {
                let _ = write!(a.hex, "{b:02x}");
            }
            a.line.clear();
            Writer::new(&mut a.line)
                .begin_object()
                .field("ts_us", ts_us)
                .field("len", ppdu.psdu.len())
                .field("fcs_ok", fcs_ok)
                .field("chip_errors", ppdu.chip_errors)
                .field("shr_errors", ppdu.shr_errors)
                .field("psdu", &a.hex)
                .end_object();
            a.line.push('\n');
            let _ = a.jsonl.write_all(a.line.as_bytes());
        }
    }
}

/// Commits a finished session: flushes artifacts, writes `report.json`,
/// publishes the report, releases the engine to the free-list and retires
/// the session from the worker slot.
fn finish_session<'rx>(
    state: &Arc<ServerState>,
    slot: &Arc<WorkerSlot>,
    session: &Arc<Session>,
    runs: &mut HashMap<u64, Run<'rx>>,
    free: &mut Vec<StreamingRx<'rx, BleModem>>,
) {
    let report = session.report();
    wazabee_telemetry::counter!("serve.session.frames")
        .with(&[("session", report.name.as_str())])
        .add(report.frames);
    if let Some(mut run) = runs.remove(&session.id) {
        if let Some(a) = &mut run.artifacts {
            let _ = a.pcap.flush();
            let _ = a.jsonl.flush();
            let _ = std::fs::write(a.dir.join("report.json"), report_json(&report));
        }
        run.engine.reset();
        free.push(run.engine);
    }
    slot.sessions.lock().unwrap().retain(|s| s.id != session.id);
    state.reports.lock().unwrap().push(report);
    session.done.store(true, Ordering::SeqCst);
    wazabee_telemetry::counter!("serve.sessions.closed").inc();
    let mut open = state.open.lock().unwrap();
    *open -= 1;
    wazabee_telemetry::gauge!("serve.sessions.active")
        .with(&[("plane", "serve")])
        .set(*open as f64);
    state.drained.notify_all();
}

/// The `report.json` document for a [`SessionReport`] (one line).
pub(crate) fn report_json(r: &SessionReport) -> String {
    let mut out = String::new();
    Writer::new(&mut out)
        .begin_object()
        .field("id", r.id)
        .field("name", &r.name)
        .field("frames", r.frames)
        .field("attempts", r.attempts)
        .field("crc_fail", r.crc_fail)
        .field("bytes_in", r.bytes_in)
        .field("chunks_in", r.chunks_in)
        .field("chunks_dropped", r.chunks_dropped)
        .field("queue_high_water", r.queue_high_water)
        .field("latency_p50_us", r.latency_p50_us)
        .field("latency_p99_us", r.latency_p99_us)
        .field("duration_s", Fixed(r.duration_s, 6))
        .field("frames_per_sec", Fixed(r.frames_per_sec, 3))
        .end_object();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_name_keeps_safe_chars_only() {
        assert_eq!(sanitize_name("bench-07.cf32"), "bench-07.cf32");
        assert_eq!(sanitize_name("a b/c\\d"), "a_b_c_d");
        assert_eq!(sanitize_name(""), "session");
        assert_eq!(sanitize_name("x".repeat(100).as_str()).len(), 64);
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let r = SessionReport {
            id: 3,
            name: "t".into(),
            frames: 4,
            attempts: 5,
            crc_fail: 0,
            bytes_in: 1024,
            chunks_in: 2,
            chunks_dropped: 1,
            queue_high_water: 2,
            latency_p50_us: 10,
            latency_p99_us: 20,
            finished: std::time::Instant::now(),
            duration_s: 0.5,
            frames_per_sec: 8.0,
        };
        assert_eq!(
            report_json(&r),
            "{\"id\":3,\"name\":\"t\",\"frames\":4,\"attempts\":5,\"crc_fail\":0,\
             \"bytes_in\":1024,\"chunks_in\":2,\"chunks_dropped\":1,\"queue_high_water\":2,\
             \"latency_p50_us\":10,\"latency_p99_us\":20,\"duration_s\":0.500000,\
             \"frames_per_sec\":8.000}\n"
        );
    }

    #[test]
    fn empty_server_starts_and_shuts_down_clean() {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        assert_eq!(server.active_sessions(), 0);
        let summary = server.shutdown();
        assert!(summary.reports.is_empty());
        assert_eq!(summary.total_frames(), 0);
    }
}
