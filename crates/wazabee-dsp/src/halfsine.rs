//! Half-sine pulse shaping for O-QPSK (802.15.4).
//!
//! 802.15.4's O-QPSK maps even chips onto I and odd chips onto Q, each as a
//! half-sine pulse of duration `2·Tc` (two chip periods), with Q delayed by
//! one chip period `Tc` (paper §III-C, Figure 2).

/// Generates one half-sine pulse spanning `2 * samples_per_chip` samples.
///
/// The pulse is `sin(π t / (2Tc))` for `t ∈ [0, 2Tc)` — zero at both ends,
/// peaking at `t = Tc`.
///
/// # Panics
///
/// Panics if `samples_per_chip` is zero.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::halfsine::half_sine_pulse;
/// let p = half_sine_pulse(4);
/// assert_eq!(p.len(), 8);
/// assert!((p[4] - 1.0).abs() < 1e-12); // peak at the centre
/// assert!(p[0].abs() < 1e-12);
/// ```
pub fn half_sine_pulse(samples_per_chip: usize) -> Vec<f64> {
    assert!(samples_per_chip > 0, "need at least one sample per chip");
    let n = 2 * samples_per_chip;
    (0..n)
        .map(|k| (std::f64::consts::PI * k as f64 / n as f64).sin())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_starts_and_ends_near_zero() {
        let p = half_sine_pulse(8);
        assert!(p[0].abs() < 1e-12);
        // Last sample is sin(π·15/16) — small but non-zero.
        assert!(p[p.len() - 1] < 0.2);
    }

    #[test]
    fn pulse_is_symmetric_about_peak() {
        let p = half_sine_pulse(8);
        let n = p.len();
        for k in 1..n / 2 {
            assert!((p[k] - p[n - k]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_oversampling_rejected() {
        let _ = half_sine_pulse(0);
    }
}
