//! Shared IQ sample-format codecs: `.cf32` and RTL-SDR `u8` interleaved.
//!
//! Every component that touches foreign IQ bytes — the flight recorder's
//! capture taps, the `wazabee-serve` ingest plane, file tails replaying SDR
//! dumps — goes through this one module, so a format quirk (offset-128
//! centring, ragged trailing bytes, endianness) is fixed in exactly one
//! place. Two formats are supported, the ones SDR tooling actually emits:
//!
//! * **cf32** — interleaved little-endian `f32` I/Q pairs (GNU Radio file
//!   sinks, inspectrum, `sigmf` converters): 8 bytes per complex sample.
//! * **u8 offset-128** — interleaved unsigned bytes centred on 127.5, the
//!   raw RTL-SDR capture format (`rtl_sdr -f ... out.bin`): 2 bytes per
//!   complex sample, value `(b - 127.5) / 127.5`.
//!
//! The file-level helpers ([`read_cf32`], [`write_cf32`]) speak interleaved
//! `f64` [`Iq`] for compatibility with the synthesis side; the byte-level decoders ([`SampleFormat::decode`],
//! [`decode_cf32_bytes`], [`decode_u8_bytes`]) append straight into a planar
//! [`IqBuf`] because their caller is the receive hot path.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

use crate::iq::Iq;
use crate::iqbuf::{IqBuf, IqSlice};

/// An on-the-wire IQ sample encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFormat {
    /// Interleaved little-endian `f32` I/Q pairs (8 bytes per sample).
    Cf32,
    /// Interleaved RTL-SDR unsigned bytes centred on 127.5 (2 bytes per
    /// sample).
    U8Offset128,
}

impl SampleFormat {
    /// Bytes per complex sample in this encoding.
    pub fn bytes_per_sample(self) -> usize {
        match self {
            SampleFormat::Cf32 => 8,
            SampleFormat::U8Offset128 => 2,
        }
    }

    /// Short stable name (used in logs and JSON artifacts).
    pub fn name(self) -> &'static str {
        match self {
            SampleFormat::Cf32 => "cf32",
            SampleFormat::U8Offset128 => "u8",
        }
    }

    /// Decodes `bytes` into planar samples appended to `out`.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the byte count is not a whole number of complex
    /// samples in this encoding.
    pub fn decode(self, bytes: &[u8], out: &mut IqBuf) -> io::Result<usize> {
        match self {
            SampleFormat::Cf32 => decode_cf32_bytes(bytes, out),
            SampleFormat::U8Offset128 => decode_u8_bytes(bytes, out),
        }
    }

    /// Encodes a planar window into this format's byte representation.
    pub fn encode(self, samples: IqSlice<'_>) -> Vec<u8> {
        match self {
            SampleFormat::Cf32 => encode_cf32_bytes(samples),
            SampleFormat::U8Offset128 => encode_u8_bytes(samples),
        }
    }
}

fn ragged(format: &str, unit: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{format} byte length is not a multiple of {unit} (one I/Q pair)"),
    )
}

/// Appends interleaved little-endian `f32` I/Q bytes to a planar buffer,
/// returning the number of complex samples decoded.
///
/// # Errors
///
/// `InvalidData` when `bytes.len()` is not a multiple of 8.
pub fn decode_cf32_bytes(bytes: &[u8], out: &mut IqBuf) -> io::Result<usize> {
    if !bytes.len().is_multiple_of(8) {
        return Err(ragged("cf32", 8));
    }
    let n = bytes.len() / 8;
    for c in bytes.chunks_exact(8) {
        out.push(
            f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
        );
    }
    Ok(n)
}

/// Appends interleaved RTL-SDR offset-128 bytes to a planar buffer,
/// returning the number of complex samples decoded. Each byte maps to
/// `(b - 127.5) / 127.5`, so `0 → -1.0` and `255 → +1.0`.
///
/// # Errors
///
/// `InvalidData` when `bytes.len()` is odd.
pub fn decode_u8_bytes(bytes: &[u8], out: &mut IqBuf) -> io::Result<usize> {
    if !bytes.len().is_multiple_of(2) {
        return Err(ragged("u8 offset-128", 2));
    }
    let n = bytes.len() / 2;
    for c in bytes.chunks_exact(2) {
        out.push(u8_to_level(c[0]), u8_to_level(c[1]));
    }
    Ok(n)
}

/// Encodes a planar window as interleaved little-endian `f32` bytes.
pub fn encode_cf32_bytes(samples: IqSlice<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 8);
    for (&i, &q) in samples.i().iter().zip(samples.q()) {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&q.to_le_bytes());
    }
    out
}

/// Encodes a planar window as interleaved RTL-SDR offset-128 bytes,
/// clamping each component to `[-1, 1]`.
pub fn encode_u8_bytes(samples: IqSlice<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * 2);
    for (&i, &q) in samples.i().iter().zip(samples.q()) {
        out.push(level_to_u8(i));
        out.push(level_to_u8(q));
    }
    out
}

fn u8_to_level(b: u8) -> f32 {
    (f32::from(b) - 127.5) / 127.5
}

fn level_to_u8(v: f32) -> u8 {
    let clamped = v.clamp(-1.0, 1.0);
    (clamped * 127.5 + 127.5).round().clamp(0.0, 255.0) as u8
}

/// Writes samples as interleaved little-endian `f32` I/Q pairs.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn write_cf32(path: &Path, samples: &[Iq]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for s in samples {
        w.write_all(&(s.i as f32).to_le_bytes())?;
        w.write_all(&(s.q as f32).to_le_bytes())?;
    }
    w.flush()
}

/// Reads an interleaved little-endian `f32` I/Q file back into samples.
///
/// # Errors
///
/// Fails on IO errors or a file whose length is not a multiple of 8 bytes.
pub fn read_cf32(path: &Path) -> io::Result<Vec<Iq>> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if raw.len() % 8 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "cf32 length is not a whole number of I/Q pairs",
        ));
    }
    let mut buf = IqBuf::with_capacity(raw.len() / 8);
    decode_cf32_bytes(&raw, &mut buf)?;
    Ok(buf.to_interleaved())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wzb-dsp-io-{}-{name}", std::process::id()))
    }

    fn ramp(n: usize) -> Vec<Iq> {
        (0..n)
            .map(|k| Iq::from_polar(0.9, k as f64 * 0.37))
            .collect()
    }

    #[test]
    fn cf32_file_round_trip_is_f32_exact() {
        let path = tmp("rt.cf32");
        let samples = ramp(311);
        write_cf32(&path, &samples).unwrap();
        let back = read_cf32(&path).unwrap();
        assert_eq!(back.len(), samples.len());
        for (a, b) in samples.iter().zip(&back) {
            assert!((a.i - b.i).abs() < 1e-6 && (a.q - b.q).abs() < 1e-6);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_codecs_round_trip_planar() {
        let src = IqBuf::from_interleaved(&ramp(123));
        for format in [SampleFormat::Cf32, SampleFormat::U8Offset128] {
            let bytes = format.encode(src.as_slice());
            assert_eq!(bytes.len(), 123 * format.bytes_per_sample());
            let mut back = IqBuf::new();
            assert_eq!(format.decode(&bytes, &mut back).unwrap(), 123);
            let tol = match format {
                SampleFormat::Cf32 => 1e-7,
                SampleFormat::U8Offset128 => 0.5 / 127.5 + 1e-6,
            };
            for k in 0..back.len() {
                let (ai, aq) = src.get(k);
                let (bi, bq) = back.get(k);
                assert!((ai - bi).abs() <= tol && (aq - bq).abs() <= tol);
            }
        }
    }

    #[test]
    fn u8_offset_is_centred_and_saturating() {
        let mut buf = IqBuf::new();
        decode_u8_bytes(&[0, 255, 128, 127], &mut buf).unwrap();
        assert_eq!(buf.get(0), (-1.0, 1.0));
        // 128 and 127 straddle the 127.5 centre by half a step each.
        let (i, q) = buf.get(1);
        assert!(i > 0.0 && q < 0.0 && (i + q).abs() < 1e-6);
        // Encoding clamps out-of-range levels instead of wrapping.
        let mut hot = IqBuf::new();
        hot.push(3.0, -3.0);
        assert_eq!(encode_u8_bytes(hot.as_slice()), vec![255, 0]);
    }

    #[test]
    fn ragged_inputs_rejected() {
        let mut out = IqBuf::new();
        assert!(decode_cf32_bytes(&[0u8; 12], &mut out).is_err());
        assert!(decode_u8_bytes(&[0u8; 3], &mut out).is_err());
        let path = tmp("ragged.cf32");
        std::fs::write(&path, [0u8; 13]).unwrap();
        assert!(read_cf32(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_appends_instead_of_replacing() {
        let mut out = IqBuf::new();
        out.push(7.0, 7.0);
        decode_u8_bytes(&[128, 128], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(0), (7.0, 7.0));
    }
}
