//! FM discrimination: recovering the instantaneous frequency of a complex
//! baseband signal.
//!
//! The paper's equation (5) links instantaneous frequency and phase:
//! `f(t) = (1/2π)·dφ/dt`. A polar discriminator estimates the derivative from
//! the angle of `x[n]·conj(x[n−1])`, which is exactly how low-IF FSK receivers
//! (including the BLE radios WazaBee diverts) recover the modulating signal.

use crate::iq::Iq;

/// Instantaneous-frequency estimate per sample, in radians/sample.
///
/// Output has `x.len() − 1` entries (first differences). Positive values mean
/// counter-clockwise phase rotation — a frequency above the carrier, i.e. a
/// `1` symbol in BLE's 2-FSK convention (paper Figure 1).
///
/// # Examples
///
/// ```
/// use wazabee_dsp::{discriminator::discriminate, Nco};
/// let mut nco = Nco::new(1.0e6, 8.0e6);
/// let tone: Vec<_> = (0..32).map(|_| nco.next_sample()).collect();
/// let f = discriminate(&tone);
/// let step = std::f64::consts::TAU * 1.0e6 / 8.0e6;
/// assert!(f.iter().all(|&v| (v - step).abs() < 1e-9));
/// ```
pub fn discriminate(x: &[Iq]) -> Vec<f64> {
    let mut out = Vec::new();
    discriminate_into(x, &mut out);
    out
}

/// Scratch-buffer form of [`discriminate`]: appends the `x.len() − 1` first
/// differences to `out` instead of allocating a fresh vector per call.
///
/// Callers that demodulate in a loop (the streaming receiver, the sim demod
/// path) keep one scratch vector alive across calls; `out` is *not* cleared
/// here so incremental producers can extend a running buffer.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::{discriminator::{discriminate, discriminate_into}, Nco};
/// let mut nco = Nco::new(1.0e6, 8.0e6);
/// let tone: Vec<_> = (0..32).map(|_| nco.next_sample()).collect();
/// let mut scratch = Vec::new();
/// discriminate_into(&tone, &mut scratch);
/// assert_eq!(scratch, discriminate(&tone));
/// ```
pub fn discriminate_into(x: &[Iq], out: &mut Vec<f64>) {
    let _s = wazabee_telemetry::scope!("dsp.discriminate", samples = x.len());
    if x.len() < 2 {
        return;
    }
    out.reserve(x.len() - 1);
    out.extend(x.windows(2).map(|w| (w[1] * w[0].conj()).phase()));
}

/// Mean discriminator output over a window, in radians/sample — the same
/// value as averaging [`discriminate`], but streamed without allocating the
/// intermediate difference vector (it runs on every traced receive, over
/// windows of thousands of samples).
///
/// Returns `None` for windows too short to difference.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::{discriminator::mean_frequency, Nco};
/// let mut nco = Nco::new(1.0e6, 8.0e6);
/// let tone: Vec<_> = (0..32).map(|_| nco.next_sample()).collect();
/// let step = std::f64::consts::TAU * 1.0e6 / 8.0e6;
/// assert!((mean_frequency(&tone).unwrap() - step).abs() < 1e-9);
/// ```
pub fn mean_frequency(x: &[Iq]) -> Option<f64> {
    if x.len() < 2 {
        return None;
    }
    let sum: f64 = x.windows(2).map(|w| (w[1] * w[0].conj()).phase()).sum();
    Some(sum / (x.len() - 1) as f64)
}

/// Phase trajectory of a signal: cumulative sum of the discriminator output,
/// anchored at the phase of the first sample.
///
/// Useful for waveform-level equivalence checks between MSK and O-QPSK.
pub fn phase_trajectory(x: &[Iq]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(x.len());
    let mut acc = x[0].phase();
    out.push(acc);
    for d in discriminate(x) {
        acc += d;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::Nco;
    use std::f64::consts::TAU;

    #[test]
    fn tone_frequency_recovered() {
        let fs = 16.0e6;
        for f in [-2.0e6, -0.5e6, 0.5e6, 3.0e6] {
            let mut nco = Nco::new(f, fs);
            let tone: Vec<Iq> = (0..64).map(|_| nco.next_sample()).collect();
            let est = discriminate(&tone);
            let expect = TAU * f / fs;
            for v in est {
                assert!((v - expect).abs() < 1e-9, "freq {f}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn amplitude_invariance() {
        // The polar discriminator ignores envelope amplitude.
        let fs = 8.0e6;
        let mut nco = Nco::new(1.0e6, fs);
        let tone: Vec<Iq> = (0..32)
            .map(|k| nco.next_sample().scale(1.0 + 0.5 * (k % 3) as f64))
            .collect();
        let est = discriminate(&tone);
        let expect = TAU * 1.0e6 / fs;
        for v in est {
            assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_trajectory_matches_nco() {
        let fs = 8.0e6;
        let mut nco = Nco::new(1.3e6, fs);
        let tone: Vec<Iq> = (0..64).map(|_| nco.next_sample()).collect();
        let traj = phase_trajectory(&tone);
        let step = TAU * 1.3e6 / fs;
        for (k, p) in traj.iter().enumerate() {
            assert!((p - k as f64 * step).abs() < 1e-6);
        }
    }

    #[test]
    fn short_inputs_yield_empty() {
        assert!(discriminate(&[]).is_empty());
        assert!(discriminate(&[Iq::ONE]).is_empty());
        assert!(phase_trajectory(&[]).is_empty());
        assert_eq!(phase_trajectory(&[Iq::ONE]).len(), 1);
        assert!(mean_frequency(&[]).is_none());
        assert!(mean_frequency(&[Iq::ONE]).is_none());
    }

    #[test]
    fn into_variants_extend_without_clearing() {
        let fs = 16.0e6;
        let mut nco = Nco::new(0.9e6, fs);
        let tone: Vec<Iq> = (0..20).map(|_| nco.next_sample()).collect();
        let mut out = vec![42.0];
        discriminate_into(&tone, &mut out);
        assert_eq!(out[0], 42.0);
        assert_eq!(&out[1..], discriminate(&tone).as_slice());
        // Short inputs append nothing.
        discriminate_into(&tone[..1], &mut out);
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn mean_frequency_equals_discriminate_average() {
        let fs = 16.0e6;
        let mut nco = Nco::new(0.7e6, fs);
        let tone: Vec<Iq> = (0..512)
            .map(|k| nco.next_sample().scale(1.0 + 0.25 * (k % 5) as f64))
            .collect();
        let diffs = discriminate(&tone);
        let want = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let got = mean_frequency(&tone).unwrap();
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }
}
