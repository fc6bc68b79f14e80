//! The global flight recorder: configuration, the per-attempt
//! [`TraceHandle`] hook, and the artifact writers (PCAP, JSONL frame log,
//! `.cf32` IQ windows).
//!
//! The recorder is process-global, like the telemetry registry: demodulators
//! deep in the stack call [`begin`] without threading a handle through every
//! layer. Until a configuration is installed every hook is a cheap
//! early-return.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use wazabee_dsp::Iq;

use crate::cf32::{write_cf32, IqSidecar};
use crate::pcap::{PcapWriter, LINKTYPE_IEEE802_15_4_WITHFCS};
use crate::trace::{DecodeTrace, FrameKind, RxFailure, SyncInfo};
use crate::ENV_CAPTURE_DIR;

/// When the recorder dumps the IQ window of an RX attempt to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IqCaptureMode {
    /// Never write IQ windows.
    Off,
    /// Write the window of every attempt that ends in a failure (including
    /// delivered frames with a bad checksum). The default.
    #[default]
    OnFailure,
    /// Write the window of every attempt.
    Always,
}

/// Counters describing what the recorder has produced so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// Traces finalized into the in-memory ring.
    pub traces: u64,
    /// Lines appended to the JSONL frame log.
    pub frames_logged: u64,
    /// Frames appended to the PCAP.
    pub pcap_frames: u64,
    /// `.cf32` IQ windows written.
    pub iq_dumps: u64,
}

/// File name of the capture PCAP inside the capture directory.
pub const PCAP_FILE: &str = "frames.pcap";
/// File name of the JSONL frame log inside the capture directory.
pub const FRAME_LOG_FILE: &str = "frames.jsonl";

/// Default bound on a dumped IQ window, in samples (≈ 1 MiB of `.cf32`, and
/// comfortably more than a maximum-length 802.15.4 frame at 8 samples per
/// chip).
pub const DEFAULT_IQ_WINDOW: usize = 1 << 17;

/// Default capacity of the in-memory trace ring.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static STATE: Mutex<Option<State>> = Mutex::new(None);

struct State {
    capture_dir: Option<PathBuf>,
    iq_mode: IqCaptureMode,
    iq_window: usize,
    ring_capacity: usize,
    pcap_linktype: u32,
    traces: VecDeque<DecodeTrace>,
    pcap: Option<PcapWriter>,
    frame_log: Option<BufWriter<File>>,
    stats: CaptureStats,
}

fn lock_state() -> std::sync::MutexGuard<'static, Option<State>> {
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Builder for installing the global [`FlightRecorder`] configuration.
#[derive(Debug, Clone)]
pub struct FlightRecorderBuilder {
    capture_dir: Option<PathBuf>,
    iq_mode: IqCaptureMode,
    iq_window: usize,
    ring_capacity: usize,
    pcap_linktype: u32,
}

impl Default for FlightRecorderBuilder {
    fn default() -> Self {
        FlightRecorderBuilder {
            capture_dir: None,
            iq_mode: IqCaptureMode::OnFailure,
            iq_window: DEFAULT_IQ_WINDOW,
            ring_capacity: DEFAULT_RING_CAPACITY,
            pcap_linktype: LINKTYPE_IEEE802_15_4_WITHFCS,
        }
    }
}

impl FlightRecorderBuilder {
    /// Directory receiving PCAP, JSONL and `.cf32` artifacts. Without a
    /// directory the recorder keeps traces in memory only.
    #[must_use]
    pub fn capture_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.capture_dir = Some(dir.into());
        self
    }

    /// When to dump IQ windows (default: on failure).
    #[must_use]
    pub fn iq_mode(mut self, mode: IqCaptureMode) -> Self {
        self.iq_mode = mode;
        self
    }

    /// Bound on each dumped IQ window, in samples.
    #[must_use]
    pub fn iq_window(mut self, samples: usize) -> Self {
        self.iq_window = samples;
        self
    }

    /// Capacity of the in-memory trace ring.
    #[must_use]
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity.max(1);
        self
    }

    /// PCAP link type: [`crate::pcap::LINKTYPE_IEEE802_15_4_WITHFCS`]
    /// (default) keeps the trailing FCS in each exported frame,
    /// [`crate::pcap::LINKTYPE_IEEE802_15_4_NOFCS`] strips it.
    #[must_use]
    pub fn pcap_linktype(mut self, linktype: u32) -> Self {
        self.pcap_linktype = linktype;
        self
    }

    /// Installs this configuration as the process-global recorder,
    /// replacing any previous one (open artifact files are flushed and
    /// closed first).
    ///
    /// # Errors
    ///
    /// Fails when the capture directory cannot be created.
    pub fn install(self) -> io::Result<()> {
        if let Some(dir) = &self.capture_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut state = lock_state();
        if let Some(old) = state.as_mut() {
            flush_locked(old).ok();
        }
        *state = Some(State {
            capture_dir: self.capture_dir,
            iq_mode: self.iq_mode,
            iq_window: self.iq_window,
            ring_capacity: self.ring_capacity,
            pcap_linktype: self.pcap_linktype,
            traces: VecDeque::new(),
            pcap: None,
            frame_log: None,
            stats: CaptureStats::default(),
        });
        ACTIVE.store(true, Ordering::Release);
        Ok(())
    }
}

/// Namespace handle for building the global recorder configuration.
#[derive(Debug, Clone, Copy)]
pub struct FlightRecorder;

impl FlightRecorder {
    /// Starts a configuration builder.
    #[must_use]
    pub fn builder() -> FlightRecorderBuilder {
        FlightRecorderBuilder::default()
    }
}

/// Installs a recorder from `WAZABEE_CAPTURE_DIR`, when set (IQ windows
/// on failure, default window and ring). Returns whether a capture
/// directory is now active.
///
/// # Errors
///
/// Fails when the directory named by the variable cannot be created.
pub fn init_from_env() -> io::Result<bool> {
    match std::env::var_os(ENV_CAPTURE_DIR) {
        Some(dir) if !dir.is_empty() => {
            FlightRecorder::builder().capture_dir(dir).install()?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Whether a recorder configuration is installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// The active capture directory, if any.
pub fn capture_dir() -> Option<PathBuf> {
    lock_state().as_ref().and_then(|s| s.capture_dir.clone())
}

/// Snapshot of the recorder's output counters.
pub fn stats() -> CaptureStats {
    lock_state().as_ref().map(|s| s.stats).unwrap_or_default()
}

/// Snapshot of the in-memory trace ring, oldest first.
pub fn recent_traces() -> Vec<DecodeTrace> {
    lock_state()
        .as_ref()
        .map(|s| s.traces.iter().cloned().collect())
        .unwrap_or_default()
}

fn flush_locked(state: &mut State) -> io::Result<()> {
    if let Some(p) = state.pcap.as_mut() {
        p.flush()?;
    }
    if let Some(l) = state.frame_log.as_mut() {
        l.flush()?;
    }
    Ok(())
}

/// Flushes the PCAP and frame-log writers to disk.
///
/// # Errors
///
/// Propagates flush errors.
pub fn flush() -> io::Result<()> {
    match lock_state().as_mut() {
        Some(s) => flush_locked(s),
        None => Ok(()),
    }
}

/// Uninstalls the recorder (flushing artifact files first). Intended for
/// test isolation.
pub fn reset() {
    let mut state = lock_state();
    if let Some(s) = state.as_mut() {
        flush_locked(s).ok();
    }
    *state = None;
    ACTIVE.store(false, Ordering::Release);
}

struct Inner {
    trace: DecodeTrace,
    iq: Vec<Iq>,
    iq_total: usize,
    sample_rate: Option<f64>,
    center_mhz: Option<u32>,
    iq_mode: IqCaptureMode,
    iq_window: usize,
    capture_files: bool,
}

/// The per-RX-attempt hook: created by [`begin`], filled in by the
/// decode stages, consumed by [`TraceHandle::fail`] or
/// [`TraceHandle::deliver`]. Dropping an unfinished handle records the
/// attempt as [`RxFailure::Abandoned`].
#[derive(Default)]
pub struct TraceHandle {
    inner: Option<Box<Inner>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => write!(f, "TraceHandle(id={})", i.trace.id),
            None => f.write_str("TraceHandle(inert)"),
        }
    }
}

/// Opens a trace for one RX attempt in `layer`. Inert (all methods
/// no-ops) until a recorder is installed.
pub fn begin(layer: &'static str) -> TraceHandle {
    if !is_active() {
        return TraceHandle { inner: None };
    }
    let Some(state) = &*lock_state() else {
        return TraceHandle { inner: None };
    };
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    TraceHandle {
        inner: Some(Box::new(Inner {
            trace: DecodeTrace::new(id, layer),
            iq: Vec::new(),
            iq_total: 0,
            sample_rate: None,
            center_mhz: None,
            iq_mode: state.iq_mode,
            iq_window: state.iq_window,
            capture_files: state.capture_dir.is_some(),
        })),
    }
}

impl TraceHandle {
    /// Whether this handle is recording (false before a recorder is
    /// installed — callers can skip computing expensive stage data).
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// This attempt's trace id, when recording.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.trace.id)
    }

    /// Taps the complex-baseband window under decode. The samples are
    /// copied (bounded by the configured window) only when an IQ dump
    /// can actually happen; otherwise only the metadata is kept.
    pub fn tap_iq(&mut self, samples: &[Iq], sample_rate: f64, center_mhz: Option<u32>) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        inner.sample_rate = Some(sample_rate);
        inner.center_mhz = center_mhz;
        inner.iq_total = samples.len();
        if inner.capture_files && inner.iq_mode != IqCaptureMode::Off {
            let keep = samples.len().min(inner.iq_window);
            inner.iq = samples[..keep].to_vec();
        }
    }

    /// Records the sync correlator's lock for this attempt.
    pub fn sync(
        &mut self,
        errors: usize,
        bit_index: usize,
        sample_offset: usize,
        pattern_len: usize,
    ) {
        if let Some(inner) = self.inner.as_mut() {
            inner.trace.sync = Some(SyncInfo {
                errors,
                bit_index,
                sample_offset,
                pattern_len,
            });
        }
    }

    /// Records the carrier-frequency-offset estimate, in Hz.
    pub fn cfo_hz(&mut self, cfo: f64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.trace.cfo_hz = Some(cfo);
        }
    }

    /// Records the zero-based attempt index within a streaming receive
    /// window, keeping multi-attempt windows distinguishable.
    pub fn attempt(&mut self, index: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.trace.attempt = Some(index);
        }
    }

    /// Links this attempt to the telemetry trace span that covers it
    /// (ignored for id 0 — "no span", e.g. no scope open), so
    /// the frame log's `span_id` joins a PCAP frame to its slice in the
    /// exported Chrome trace.
    pub fn link_span(&mut self, span_id: u64) {
        if span_id == 0 {
            return;
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.trace.span_id = Some(span_id);
        }
    }

    /// Flags that the PHR carried a reserved length (≥ 128).
    pub fn phr_reserved(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.trace.phr_reserved = true;
        }
    }

    /// Appends one despread symbol decision's Hamming distance.
    pub fn despread(&mut self, distance: usize) {
        if let Some(inner) = self.inner.as_mut() {
            inner
                .trace
                .despread_distances
                .push(distance.min(u16::MAX as usize) as u16);
        }
    }

    /// Finishes the attempt as a typed failure.
    pub fn fail(mut self, reason: RxFailure) {
        self.finalize(Some(reason), None, None);
    }

    /// Finishes the attempt with a delivered frame. A bad checksum is
    /// classified per `kind` ([`RxFailure::FcsMismatch`] /
    /// [`RxFailure::CrcMismatch`]); 802.15.4 frames are also appended to
    /// the capture PCAP.
    pub fn deliver(mut self, frame: &[u8], checksum_ok: bool, kind: FrameKind) {
        let failure = (!checksum_ok).then(|| kind.checksum_failure());
        self.finalize(failure, Some((frame.to_vec(), kind)), Some(checksum_ok));
    }

    fn finalize(
        &mut self,
        failure: Option<RxFailure>,
        frame: Option<(Vec<u8>, FrameKind)>,
        checksum_ok: Option<bool>,
    ) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let Inner {
            mut trace,
            iq,
            iq_total,
            sample_rate,
            center_mhz,
            iq_mode,
            ..
        } = *inner;
        trace.failure = failure;
        trace.checksum_ok = checksum_ok;
        let kind = frame.as_ref().map(|(_, k)| *k);
        trace.frame = frame.map(|(bytes, _)| bytes);

        let mut state_guard = lock_state();
        let Some(state) = state_guard.as_mut() else {
            return;
        };

        // IQ window dump.
        let want_iq = match iq_mode {
            IqCaptureMode::Off => false,
            IqCaptureMode::OnFailure => trace.failure.is_some(),
            IqCaptureMode::Always => true,
        };
        if want_iq && !iq.is_empty() {
            if let Some(dir) = state.capture_dir.clone() {
                let stem = format!("trace-{:08}", trace.id);
                let cf32_name = format!("{stem}.cf32");
                let sidecar = IqSidecar {
                    trace_id: trace.id,
                    layer: trace.layer.to_string(),
                    sample_rate: sample_rate.unwrap_or(0.0),
                    center_mhz,
                    trigger: trace
                        .failure
                        .map_or_else(|| "always".to_string(), |f| f.as_str().to_string()),
                    samples: iq.len(),
                    samples_total: iq_total,
                    cf32_file: cf32_name.clone(),
                };
                let ok = write_cf32(&dir.join(&cf32_name), &iq).is_ok()
                    && std::fs::write(dir.join(format!("{stem}.json")), sidecar.to_json()).is_ok();
                if ok {
                    trace.iq_file = Some(cf32_name);
                    state.stats.iq_dumps += 1;
                }
            }
        }

        // PCAP export of delivered 802.15.4 frames.
        if kind == Some(FrameKind::Dot154) {
            if let (Some(dir), Some(bytes)) = (state.capture_dir.clone(), trace.frame.as_ref()) {
                let linktype = state.pcap_linktype;
                if state.pcap.is_none() {
                    state.pcap = PcapWriter::create(&dir.join(PCAP_FILE), linktype).ok();
                }
                if let Some(pcap) = state.pcap.as_mut() {
                    // Under the NOFCS link type the trailing 2-byte FCS
                    // is stripped from the exported frame.
                    let export = if linktype == crate::pcap::LINKTYPE_IEEE802_15_4_NOFCS
                        && bytes.len() >= 2
                    {
                        &bytes[..bytes.len() - 2]
                    } else {
                        &bytes[..]
                    };
                    if let Ok(index) = pcap.write_packet(now_us(), export) {
                        trace.pcap_index = Some(index);
                        state.stats.pcap_frames += 1;
                    }
                }
            }
        }

        // JSONL frame log.
        if let Some(dir) = state.capture_dir.clone() {
            if state.frame_log.is_none() {
                state.frame_log = File::create(dir.join(FRAME_LOG_FILE))
                    .map(BufWriter::new)
                    .ok();
            }
            if let Some(log) = state.frame_log.as_mut() {
                if writeln!(log, "{}", trace.to_json()).is_ok() {
                    state.stats.frames_logged += 1;
                }
            }
        }

        // In-memory ring.
        while state.traces.len() >= state.ring_capacity {
            state.traces.pop_front();
        }
        state.traces.push_back(trace);
        state.stats.traces += 1;
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.finalize(Some(RxFailure::Abandoned), None, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::read_pcap;
    use crate::trace::{FrameKind, RxFailure};
    use std::path::PathBuf;

    /// Serializes tests that touch the global recorder.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wzb-rec-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn inert_until_installed() {
        let _l = test_lock();
        reset();
        assert!(!is_active());
        let mut tr = begin("test.rx");
        assert!(!tr.active());
        tr.despread(3);
        tr.fail(RxFailure::NoSync);
        assert!(recent_traces().is_empty());
    }

    #[test]
    fn memory_only_recorder_keeps_bounded_ring() {
        let _l = test_lock();
        reset();
        FlightRecorder::builder()
            .ring_capacity(3)
            .install()
            .unwrap();
        for k in 0..5 {
            let mut tr = begin("test.rx");
            assert!(tr.active());
            tr.despread(k);
            tr.fail(RxFailure::TruncatedFrame);
        }
        let traces = recent_traces();
        assert_eq!(traces.len(), 3, "ring should cap at 3");
        assert_eq!(traces[2].despread_distances, vec![4]);
        assert_eq!(stats().traces, 5);
        assert_eq!(stats().frames_logged, 0, "no dir, no files");
        reset();
    }

    #[test]
    fn capture_dir_produces_all_artifacts() {
        let _l = test_lock();
        reset();
        let dir = tmp_dir("art");
        FlightRecorder::builder()
            .capture_dir(&dir)
            .iq_mode(IqCaptureMode::OnFailure)
            .install()
            .unwrap();

        let samples = vec![wazabee_dsp::Iq::ONE; 64];

        // One delivered frame...
        let mut tr = begin("dot154.rx");
        tr.tap_iq(&samples, 16.0e6, Some(2420));
        tr.sync(0, 100, 2, 319);
        tr.deliver(&[0x41, 0x42, 0x99, 0x99], true, FrameKind::Dot154);

        // ...and one failure with an IQ window.
        let mut tr = begin("wazabee.rx");
        tr.tap_iq(&samples, 16.0e6, None);
        tr.fail(RxFailure::NoSync);

        flush().unwrap();
        let st = stats();
        assert_eq!(st.frames_logged, 2);
        assert_eq!(st.pcap_frames, 1);
        assert_eq!(st.iq_dumps, 1);

        let pcap = read_pcap(&dir.join(PCAP_FILE)).unwrap();
        assert_eq!(pcap.linktype, crate::pcap::LINKTYPE_IEEE802_15_4_WITHFCS);
        assert_eq!(pcap.packets.len(), 1);
        assert_eq!(pcap.packets[0].bytes, vec![0x41, 0x42, 0x99, 0x99]);

        let log = std::fs::read_to_string(dir.join(FRAME_LOG_FILE)).unwrap();
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("\"outcome\":\"ok\""), "{log}");
        assert!(log.contains("\"reason\":\"no_sync\""), "{log}");

        let failed = recent_traces()
            .into_iter()
            .find(|t| t.failure == Some(RxFailure::NoSync))
            .unwrap();
        let iq_file = failed.iq_file.clone().unwrap();
        let iq = crate::cf32::read_cf32(&dir.join(&iq_file)).unwrap();
        assert_eq!(iq.len(), 64);
        let sidecar = std::fs::read_to_string(dir.join(iq_file.replace(".cf32", ".json"))).unwrap();
        assert!(
            sidecar.contains(&format!("\"trace_id\":{}", failed.id)),
            "{sidecar}"
        );
        assert!(sidecar.contains("\"trigger\":\"no_sync\""), "{sidecar}");

        reset();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nofcs_linktype_strips_trailing_fcs() {
        let _l = test_lock();
        reset();
        let dir = tmp_dir("nofcs");
        FlightRecorder::builder()
            .capture_dir(&dir)
            .pcap_linktype(crate::pcap::LINKTYPE_IEEE802_15_4_NOFCS)
            .install()
            .unwrap();
        let tr = begin("dot154.rx");
        tr.deliver(&[1, 2, 3, 0xAA, 0xBB], true, FrameKind::Dot154);
        flush().unwrap();
        let pcap = read_pcap(&dir.join(PCAP_FILE)).unwrap();
        assert_eq!(pcap.linktype, crate::pcap::LINKTYPE_IEEE802_15_4_NOFCS);
        assert_eq!(pcap.packets[0].bytes, vec![1, 2, 3]);
        reset();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_handle_is_abandoned() {
        let _l = test_lock();
        reset();
        FlightRecorder::builder().install().unwrap();
        {
            let mut tr = begin("test.rx");
            tr.despread(1);
            // dropped without fail()/deliver()
        }
        let traces = recent_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].failure, Some(RxFailure::Abandoned));
        reset();
    }

    #[test]
    fn always_mode_dumps_iq_for_clean_frames() {
        let _l = test_lock();
        reset();
        let dir = tmp_dir("always");
        FlightRecorder::builder()
            .capture_dir(&dir)
            .iq_mode(IqCaptureMode::Always)
            .iq_window(16)
            .install()
            .unwrap();
        let mut tr = begin("dot154.rx");
        tr.tap_iq(&vec![wazabee_dsp::Iq::ONE; 100], 16.0e6, None);
        tr.deliver(&[5, 6], true, FrameKind::Dot154);
        flush().unwrap();
        assert_eq!(stats().iq_dumps, 1);
        let t = &recent_traces()[0];
        let iq = crate::cf32::read_cf32(&dir.join(t.iq_file.as_ref().unwrap())).unwrap();
        assert_eq!(iq.len(), 16, "window bound applies");
        let sidecar = std::fs::read_to_string(dir.join(format!("trace-{:08}.json", t.id))).unwrap();
        assert!(sidecar.contains("\"samples_total\":100"), "{sidecar}");
        assert!(sidecar.contains("\"trigger\":\"always\""), "{sidecar}");
        reset();
        std::fs::remove_dir_all(&dir).ok();
    }
}
