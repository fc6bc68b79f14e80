//! Per-frame decode provenance: the [`DecodeTrace`] record and the typed
//! [`RxFailure`] taxonomy.
//!
//! Every RX attempt through an instrumented demodulator produces one
//! [`DecodeTrace`]: which sync alignment fired (and how clean it was), the
//! estimated carrier-frequency offset, the Hamming distance of every
//! despread symbol decision, and how the attempt ended — a delivered frame
//! (with its checksum verdict) or a typed failure naming the stage that
//! killed it.

use std::fmt;
use std::fmt::Write as _;

use wazabee_telemetry::json::{Fixed, Writer};

/// Why an RX attempt failed, by pipeline stage.
///
/// The taxonomy mirrors the paper's RX chain (§IV-D): access-address /
/// preamble correlation, SFD validation, per-symbol despreading, then the
/// frame checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RxFailure {
    /// The sync pattern (access address / SHR image) never matched.
    NoSync,
    /// The correlator fired but what followed was not a frame (bad SFD).
    SyncFalsePositive,
    /// A despread symbol decision exceeded the configured Hamming-distance
    /// budget (see `WazaBeeRx::with_max_despread_distance`).
    DespreadDistanceExceeded,
    /// More zero-symbols followed the sync match than a standard 802.15.4
    /// preamble contains — the attempt was abandoned before the SFD.
    PreambleOverrun,
    /// The PHR announced a reserved frame length (≥ 128); the attempt was
    /// rejected instead of misparsing a masked length.
    PhrReserved,
    /// A BLE packet decoded to completion but its CRC-24 failed.
    CrcMismatch,
    /// An 802.15.4 frame decoded to completion but its FCS failed.
    FcsMismatch,
    /// The capture ended before the announced frame length completed.
    TruncatedFrame,
    /// The trace handle was dropped before the decoder reported an outcome.
    Abandoned,
}

impl RxFailure {
    /// Stable snake_case name, used in JSONL output and as the suffix of the
    /// per-reason telemetry counters (`*.rx.fail.<name>`).
    pub fn as_str(self) -> &'static str {
        match self {
            RxFailure::NoSync => "no_sync",
            RxFailure::SyncFalsePositive => "sync_false_positive",
            RxFailure::DespreadDistanceExceeded => "despread_distance",
            RxFailure::PreambleOverrun => "preamble_overrun",
            RxFailure::PhrReserved => "phr_reserved",
            RxFailure::CrcMismatch => "crc",
            RxFailure::FcsMismatch => "fcs",
            RxFailure::TruncatedFrame => "truncated",
            RxFailure::Abandoned => "abandoned",
        }
    }
}

impl fmt::Display for RxFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of frame a decoder delivered — decides the checksum-failure
/// classification and whether the frame belongs in the 802.15.4 PCAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An 802.15.4 PSDU (FCS included) — exported to the PCAP.
    Dot154,
    /// A BLE PDU — logged to JSONL only.
    Ble,
}

impl FrameKind {
    /// The failure a bad checksum maps to for this frame kind.
    pub fn checksum_failure(self) -> RxFailure {
        match self {
            FrameKind::Dot154 => RxFailure::FcsMismatch,
            FrameKind::Ble => RxFailure::CrcMismatch,
        }
    }
}

/// How the sync correlator locked onto this attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncInfo {
    /// Bit errors inside the matched sync pattern.
    pub errors: usize,
    /// Bit index (in the demodulated stream) where the pattern started.
    pub bit_index: usize,
    /// Sample-phase offset the receiver locked onto.
    pub sample_offset: usize,
    /// Length of the sync pattern in bits.
    pub pattern_len: usize,
}

impl SyncInfo {
    /// Normalised correlation peak: `1.0` is a perfect pattern match, `0.0`
    /// means every bit mismatched.
    pub fn quality(&self) -> f64 {
        if self.pattern_len == 0 {
            return 0.0;
        }
        1.0 - self.errors as f64 / self.pattern_len as f64
    }
}

/// The full provenance record of one RX attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTrace {
    /// Unique (process-wide, monotonically increasing) trace id.
    pub id: u64,
    /// Which decoder produced the trace (`"wazabee.rx"`, `"dot154.rx"`,
    /// `"ble.rx"`, …).
    pub layer: &'static str,
    /// Sync correlation result, when the correlator fired.
    pub sync: Option<SyncInfo>,
    /// Estimated carrier-frequency offset over the capture window, in Hz.
    pub cfo_hz: Option<f64>,
    /// Hamming distance of every despread symbol decision, in decode order.
    pub despread_distances: Vec<u16>,
    /// Frame bytes, when the decode ran to completion (even with a bad
    /// checksum — the attack delivers those too).
    pub frame: Option<Vec<u8>>,
    /// Checksum verdict of the delivered frame (`None` when none decoded).
    pub checksum_ok: Option<bool>,
    /// The stage that killed the attempt, or `None` for a clean decode.
    pub failure: Option<RxFailure>,
    /// Zero-based attempt index within a streaming receive window — keeps
    /// multi-attempt windows distinguishable (`None` for one-shot decoders).
    pub attempt: Option<u64>,
    /// Whether the PHR carried a reserved length (≥ 128) — set alongside a
    /// [`RxFailure::PhrReserved`] outcome.
    pub phr_reserved: bool,
    /// File name of the `.cf32` IQ window dumped for this attempt.
    pub iq_file: Option<String>,
    /// Index of the frame inside the capture PCAP, when exported.
    pub pcap_index: Option<u64>,
    /// Id of the telemetry trace span that covered this decode attempt
    /// (`wazabee-telemetry`'s causal ring), when the decoder linked one —
    /// joins a PCAP frame to its slice in the exported Chrome trace.
    pub span_id: Option<u64>,
}

impl DecodeTrace {
    /// A fresh, pending trace.
    pub fn new(id: u64, layer: &'static str) -> Self {
        DecodeTrace {
            id,
            layer,
            sync: None,
            cfo_hz: None,
            despread_distances: Vec::new(),
            frame: None,
            checksum_ok: None,
            failure: None,
            attempt: None,
            phr_reserved: false,
            iq_file: None,
            pcap_index: None,
            span_id: None,
        }
    }

    /// Whether the attempt delivered a frame with a valid checksum.
    pub fn ok(&self) -> bool {
        self.frame.is_some() && self.checksum_ok == Some(true)
    }

    /// Total chip/bit errors accumulated across all despread decisions.
    pub fn chip_errors(&self) -> u64 {
        self.despread_distances.iter().map(|&d| u64::from(d)).sum()
    }

    /// Worst single despread decision, in Hamming distance.
    pub fn max_despread_distance(&self) -> Option<u16> {
        self.despread_distances.iter().copied().max()
    }

    /// Renders the trace as one JSONL frame-log line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let mut w = Writer::new(&mut out);
        w.begin_object()
            .field("type", "frame")
            .field("trace_id", self.id)
            .field("layer", self.layer)
            .field("outcome", if self.ok() { "ok" } else { "fail" })
            .field("reason", self.failure.map(RxFailure::as_str))
            .field("checksum_ok", self.checksum_ok)
            .key("sync");
        match &self.sync {
            Some(s) => {
                w.begin_object()
                    .field("errors", s.errors)
                    .field("bit_index", s.bit_index)
                    .field("sample_offset", s.sample_offset)
                    .field("pattern_len", s.pattern_len)
                    .field("quality", Fixed(s.quality(), 6))
                    .end_object();
            }
            None => {
                w.null();
            }
        }
        w.field("cfo_hz", self.cfo_hz.map(|v| Fixed(v, 3)))
            .field("despread_symbols", self.despread_distances.len())
            .field("chip_errors", self.chip_errors())
            .field("despread_max", self.max_despread_distance().unwrap_or(0))
            .key("despread_distances")
            .begin_array();
        for &d in &self.despread_distances {
            w.value(d);
        }
        w.end_array();
        match &self.frame {
            Some(bytes) => {
                let mut hex = String::with_capacity(2 * bytes.len());
                for b in bytes {
                    let _ = write!(hex, "{b:02x}");
                }
                w.field("frame_len", bytes.len()).field("frame_hex", &hex);
            }
            None => {
                w.field("frame_len", None::<usize>)
                    .field("frame_hex", None::<&str>);
            }
        }
        w.field("iq_file", self.iq_file.as_ref())
            .field("pcap_index", self.pcap_index)
            .field("attempt", self.attempt)
            .field("span_id", self.span_id)
            .field("phr_reserved", self.phr_reserved)
            .end_object();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_names_are_stable() {
        assert_eq!(RxFailure::NoSync.as_str(), "no_sync");
        assert_eq!(RxFailure::FcsMismatch.as_str(), "fcs");
        assert_eq!(RxFailure::TruncatedFrame.to_string(), "truncated");
        assert_eq!(RxFailure::PreambleOverrun.as_str(), "preamble_overrun");
        assert_eq!(RxFailure::PhrReserved.as_str(), "phr_reserved");
    }

    #[test]
    fn checksum_failure_maps_by_kind() {
        assert_eq!(FrameKind::Dot154.checksum_failure(), RxFailure::FcsMismatch);
        assert_eq!(FrameKind::Ble.checksum_failure(), RxFailure::CrcMismatch);
    }

    #[test]
    fn sync_quality_normalises() {
        let s = SyncInfo {
            errors: 8,
            bit_index: 0,
            sample_offset: 0,
            pattern_len: 32,
        };
        assert!((s.quality() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn json_line_has_all_fields() {
        let mut t = DecodeTrace::new(7, "wazabee.rx");
        t.sync = Some(SyncInfo {
            errors: 1,
            bit_index: 640,
            sample_offset: 3,
            pattern_len: 32,
        });
        t.despread_distances = vec![0, 2, 1];
        t.failure = Some(RxFailure::TruncatedFrame);
        t.attempt = Some(4);
        t.span_id = Some(42);
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"trace_id\":7"), "{j}");
        assert!(j.contains("\"outcome\":\"fail\""), "{j}");
        assert!(j.contains("\"reason\":\"truncated\""), "{j}");
        assert!(j.contains("\"chip_errors\":3"), "{j}");
        assert!(j.contains("\"despread_distances\":[0,2,1]"), "{j}");
        assert!(j.contains("\"attempt\":4"), "{j}");
        assert!(j.contains("\"span_id\":42"), "{j}");
        assert!(j.contains("\"phr_reserved\":false"), "{j}");
        assert_eq!(j.matches('"').count() % 2, 0, "{j}");
    }

    #[test]
    fn json_flags_reserved_phr() {
        let mut t = DecodeTrace::new(9, "wazabee.rx");
        t.failure = Some(RxFailure::PhrReserved);
        t.phr_reserved = true;
        let j = t.to_json();
        assert!(j.contains("\"reason\":\"phr_reserved\""), "{j}");
        assert!(j.contains("\"phr_reserved\":true"), "{j}");
        assert!(j.contains("\"attempt\":null"), "{j}");
        assert!(j.contains("\"span_id\":null"), "{j}");
    }

    #[test]
    fn json_ok_line_carries_frame_hex() {
        let mut t = DecodeTrace::new(1, "dot154.rx");
        t.frame = Some(vec![0xDE, 0xAD]);
        t.checksum_ok = Some(true);
        t.pcap_index = Some(0);
        let j = t.to_json();
        assert!(t.ok());
        assert!(j.contains("\"outcome\":\"ok\""), "{j}");
        assert!(j.contains("\"frame_hex\":\"dead\""), "{j}");
        assert!(j.contains("\"pcap_index\":0"), "{j}");
    }
}
