//! Finite impulse response filtering for real-valued modulating signals and
//! complex baseband buffers.

use crate::iq::Iq;

/// A real-coefficient FIR filter.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::Fir;
/// let f = Fir::new(vec![0.5, 0.5]); // 2-tap moving average
/// let mut y = Vec::new();
/// f.filter_real_into(&[1.0, 1.0, 0.0], &mut y);
/// assert_eq!(y, vec![0.5, 1.0, 0.5, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fir {
    taps: Vec<f64>,
}

impl Fir {
    /// Creates a filter from its impulse response.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR filter needs at least one tap");
        Fir { taps }
    }

    /// Windowed-sinc low-pass design (Hamming window).
    ///
    /// `cutoff_hz` is the −6 dB cutoff, `num_taps` the filter length (odd
    /// lengths give integral group delay).
    ///
    /// # Panics
    ///
    /// Panics if `num_taps` is zero or the cutoff is not in `(0, fs/2)`.
    pub fn low_pass(cutoff_hz: f64, sample_rate_hz: f64, num_taps: usize) -> Self {
        assert!(num_taps > 0, "FIR filter needs at least one tap");
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
            "cutoff must lie in (0, fs/2)"
        );
        let fc = cutoff_hz / sample_rate_hz;
        let mid = (num_taps - 1) as f64 / 2.0;
        let mut taps = Vec::with_capacity(num_taps);
        for n in 0..num_taps {
            let x = n as f64 - mid;
            let sinc = if x.abs() < 1e-12 {
                2.0 * fc
            } else {
                (std::f64::consts::TAU * fc * x).sin() / (std::f64::consts::PI * x)
            };
            let window = 0.54
                - 0.46 * (std::f64::consts::TAU * n as f64 / (num_taps - 1).max(1) as f64).cos();
            taps.push(sinc * window);
        }
        // Normalise to unit DC gain.
        let sum: f64 = taps.iter().sum();
        for t in &mut taps {
            *t /= sum;
        }
        Fir { taps }
    }

    /// The filter's impulse response.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Group delay in samples, assuming linear phase (symmetric taps).
    pub fn group_delay(&self) -> f64 {
        (self.taps.len() - 1) as f64 / 2.0
    }

    /// Full convolution with a real signal (output length `x.len() + taps − 1`)
    /// into `out`, overwriting it.
    pub fn filter_real_into(&self, x: &[f64], out: &mut Vec<f64>) {
        let _s = wazabee_telemetry::scope!("dsp.fir_real");
        out.clear();
        out.resize(x.len() + self.taps.len() - 1, 0.0);
        for (k, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            for (j, &t) in self.taps.iter().enumerate() {
                out[k + j] += xv * t;
            }
        }
    }

    /// Full convolution with a complex signal.
    pub fn filter_iq(&self, x: &[Iq]) -> Vec<Iq> {
        let mut y = Vec::new();
        self.filter_iq_into(x, &mut y);
        y
    }

    /// Scratch-buffer form of [`Fir::filter_iq`]: overwrites `out` instead of
    /// allocating a fresh vector per call.
    pub fn filter_iq_into(&self, x: &[Iq], out: &mut Vec<Iq>) {
        let _s = wazabee_telemetry::scope!("dsp.fir_iq", samples = x.len(), taps = self.taps.len());
        out.clear();
        out.resize(x.len() + self.taps.len() - 1, Iq::ZERO);
        for (k, &xv) in x.iter().enumerate() {
            for (j, &t) in self.taps.iter().enumerate() {
                out[k + j] += xv.scale(t);
            }
        }
    }

    /// "Same-size" convolution into `out`: output aligned with the input by
    /// compensating the group delay, truncated to `x.len()` samples.
    /// `scratch` holds the intermediate full convolution.
    pub fn filter_real_same_into(&self, x: &[f64], scratch: &mut Vec<f64>, out: &mut Vec<f64>) {
        self.filter_real_into(x, scratch);
        let start = (self.taps.len() - 1) / 2;
        out.clear();
        out.extend_from_slice(&scratch[start..start + x.len()]);
    }
}

/// Integrate-and-dump over fixed windows: averages every `window` consecutive
/// values, producing one output per complete window.
///
/// This is the classic matched filter for rectangular symbols and is used by
/// the chip-rate demodulators.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn integrate_and_dump(x: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be non-zero");
    x.chunks_exact(window)
        .map(|c| c.iter().sum::<f64>() / window as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osc::Nco;

    #[test]
    fn moving_average_impulse_response() {
        let f = Fir::new(vec![0.25; 4]);
        let mut y = Vec::new();
        f.filter_real_into(&[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y.len(), 6);
        assert_eq!(&y[..4], &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn low_pass_passes_dc() {
        let f = Fir::low_pass(1.0e6, 8.0e6, 31);
        let (mut scratch, mut y) = (Vec::new(), Vec::new());
        f.filter_real_same_into(&[1.0; 128], &mut scratch, &mut y);
        // Middle of the output should sit at the DC gain of 1.
        assert!((y[64] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn low_pass_attenuates_high_tone() {
        let fs = 8.0e6;
        let f = Fir::low_pass(0.5e6, fs, 63);
        let mut nco = Nco::new(3.0e6, fs);
        let tone: Vec<Iq> = (0..512).map(|_| nco.next_sample()).collect();
        let filtered = f.filter_iq(&tone);
        let input_power = crate::iq::mean_power(&tone);
        let out_power = crate::iq::mean_power(&filtered[100..400]);
        assert!(
            out_power < input_power * 0.01,
            "stopband leak: {out_power} vs {input_power}"
        );
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let f = Fir::low_pass(1.0e6, 8.0e6, 31);
        let x: Vec<f64> = (0..100).map(|k| ((k * 7) % 13) as f64 - 6.0).collect();
        let mut nco = Nco::new(1.0e6, 8.0e6);
        let tone: Vec<Iq> = (0..64).map(|_| nco.next_sample()).collect();
        let mut out_iq = Vec::new();
        f.filter_iq_into(&tone, &mut out_iq);
        assert_eq!(out_iq, f.filter_iq(&tone));
        // The same-size form is the full convolution, delay-compensated,
        // and overwrites stale contents of its buffers.
        let mut full = vec![99.0; 3];
        f.filter_real_into(&x, &mut full);
        assert_eq!(full.len(), x.len() + 30);
        let (mut scratch, mut same) = (vec![99.0; 3], vec![99.0; 3]);
        f.filter_real_same_into(&x, &mut scratch, &mut same);
        assert_eq!(same, full[15..15 + x.len()]);
    }

    #[test]
    fn group_delay_of_symmetric_filter() {
        let f = Fir::low_pass(1.0e6, 8.0e6, 31);
        assert_eq!(f.group_delay(), 15.0);
    }

    #[test]
    fn integrate_and_dump_averages_windows() {
        let x = vec![1.0, 1.0, -1.0, -1.0, 1.0, -1.0];
        assert_eq!(integrate_and_dump(&x, 2), vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn integrate_and_dump_drops_tail() {
        let x = vec![1.0, 1.0, 1.0];
        assert_eq!(integrate_and_dump(&x, 2), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = Fir::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_above_nyquist_rejected() {
        let _ = Fir::low_pass(5.0e6, 8.0e6, 31);
    }
}
