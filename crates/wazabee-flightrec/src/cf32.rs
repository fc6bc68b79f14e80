//! `.cf32` IQ dumps — the interleaved little-endian `f32` I/Q sample format
//! SDR tooling (GNU Radio file sinks, inspectrum, `sigmf` converters)
//! consumes directly — plus the JSON sidecar describing each dump.
//!
//! The codec itself lives in [`wazabee_dsp::io`] (re-exported here for
//! compatibility) so the flight recorder, the serve ingest plane and the
//! file tails all share one IQ-format codepath; this module keeps the
//! recorder-specific [`IqSidecar`] metadata.

use wazabee_telemetry::json::Writer;

pub use wazabee_dsp::io::{read_cf32, write_cf32};

/// Metadata written next to every `.cf32` dump, as a small JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct IqSidecar {
    /// The [`crate::DecodeTrace`] id this window belongs to.
    pub trace_id: u64,
    /// Decoder layer that captured the window.
    pub layer: String,
    /// Sample rate in samples per second.
    pub sample_rate: f64,
    /// Carrier centre frequency in MHz, when known.
    pub center_mhz: Option<u32>,
    /// What triggered the dump (a failure reason, or `"always"`).
    pub trigger: String,
    /// Samples kept in the `.cf32` file.
    pub samples: usize,
    /// Samples in the original capture buffer (≥ `samples`; the window is
    /// bounded by the recorder's configured size).
    pub samples_total: usize,
    /// File name of the companion `.cf32` dump.
    pub cf32_file: String,
}

impl IqSidecar {
    /// Renders the sidecar as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        Writer::new(&mut out)
            .begin_object()
            .field("trace_id", self.trace_id)
            .field("layer", &self.layer)
            .field("sample_rate", self.sample_rate)
            .field("center_mhz", self.center_mhz)
            .field("trigger", &self.trigger)
            .field("samples", self.samples)
            .field("samples_total", self.samples_total)
            .field("cf32_file", &self.cf32_file)
            .end_object();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_dsp::Iq;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wzb-cf32-{}-{name}", std::process::id()))
    }

    #[test]
    fn cf32_round_trip_is_f32_exact() {
        let path = tmp("rt.cf32");
        let samples: Vec<Iq> = (0..257)
            .map(|k| Iq::from_polar(1.0, k as f64 * 0.1))
            .collect();
        write_cf32(&path, &samples).unwrap();
        let back = read_cf32(&path).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert!((a.i - b.i).abs() < 1e-6 && (a.q - b.q).abs() < 1e-6);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_ragged_file() {
        let path = tmp("ragged.cf32");
        std::fs::write(&path, [0u8; 13]).unwrap();
        assert!(read_cf32(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sidecar_json_is_balanced() {
        let s = IqSidecar {
            trace_id: 42,
            layer: "wazabee.rx".into(),
            sample_rate: 16.0e6,
            center_mhz: Some(2420),
            trigger: "truncated".into(),
            samples: 100,
            samples_total: 5000,
            cf32_file: "trace-00000042.cf32".into(),
        };
        let j = s.to_json();
        assert!(j.contains("\"trace_id\":42"), "{j}");
        assert!(j.contains("\"center_mhz\":2420"), "{j}");
        assert!(j.contains("\"trigger\":\"truncated\""), "{j}");
        assert_eq!(j.matches('"').count() % 2, 0, "{j}");
    }
}
