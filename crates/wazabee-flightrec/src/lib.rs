#![warn(missing_docs)]

//! # wazabee-flightrec
//!
//! The flight recorder of the WazaBee stack: forensic, per-frame
//! observability for the RX chain the paper's whole argument rests on
//! (§IV-D, Tables III–IV). Where `wazabee-telemetry` answers *"what fraction
//! of frames failed?"*, this crate answers *"which stage killed which frame,
//! and what did its baseband look like?"*:
//!
//! * [`DecodeTrace`] — one provenance record per RX attempt: sync
//!   correlation quality, CFO estimate, the Hamming distance of every
//!   despread symbol decision, and a typed [`RxFailure`] naming the stage
//!   that killed the attempt (or the delivered frame and its checksum
//!   verdict).
//! * IQ capture taps — a bounded window of the complex-baseband samples
//!   under decode, dumped on failure (or always) as `.cf32` (interleaved
//!   little-endian `f32` I/Q, the format SDR tooling replays directly) plus
//!   a JSON sidecar naming the trace, sample rate and trigger.
//! * Frame export — decoded 802.15.4 frames as a Wireshark-ready PCAP
//!   ([`pcap::LINKTYPE_IEEE802_15_4_WITHFCS`] /
//!   [`pcap::LINKTYPE_IEEE802_15_4_NOFCS`]) and a JSONL frame log linking
//!   every frame to its [`DecodeTrace`] and IQ artifact.
//!
//! ## Activation
//!
//! Nothing is recorded until a configuration is installed — either
//! explicitly via [`FlightRecorder::builder`] or from the
//! [`ENV_CAPTURE_DIR`] (`WAZABEE_CAPTURE_DIR`) environment variable via
//! [`init_from_env`]. Instrumented decoders call [`begin`] and feed the
//! returned [`TraceHandle`]; with no recorder installed the handle is inert
//! and nothing touches the filesystem. The hooks are always compiled in:
//! leaving `WAZABEE_CAPTURE_DIR` unset is how a run records nothing.
//!
//! ## Example
//!
//! ```
//! use wazabee_flightrec as fr;
//!
//! let dir = std::env::temp_dir().join(format!("fr-doc-{}", std::process::id()));
//! fr::FlightRecorder::builder().capture_dir(&dir).install().unwrap();
//!
//! let mut tr = fr::begin("doc.rx");
//! tr.sync(1, 640, 3, 32);
//! tr.despread(0);
//! tr.despread(2);
//! tr.fail(fr::RxFailure::TruncatedFrame);
//!
//! fr::flush().unwrap();
//! assert!(fr::recent_traces().iter().any(|t| t.chip_errors() == 2));
//! fr::reset();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod cf32;
pub mod pcap;
mod recorder;
mod trace;

pub use cf32::{read_cf32, write_cf32, IqSidecar};
pub use recorder::{
    begin, capture_dir, flush, init_from_env, is_active, recent_traces, reset, stats, CaptureStats,
    FlightRecorder, FlightRecorderBuilder, IqCaptureMode, TraceHandle, DEFAULT_IQ_WINDOW,
    DEFAULT_RING_CAPACITY, FRAME_LOG_FILE, PCAP_FILE,
};
pub use trace::{DecodeTrace, FrameKind, RxFailure, SyncInfo};

/// Environment variable naming the capture directory (see [`init_from_env`]).
pub const ENV_CAPTURE_DIR: &str = "WAZABEE_CAPTURE_DIR";
