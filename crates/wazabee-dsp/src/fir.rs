//! Finite impulse response filtering for real-valued modulating signals.

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
    use crate::gaussian::gaussian_filter;

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
        // The Gaussian shaping filter is a unit-DC-gain low-pass.
        let f = gaussian_filter(0.5, 8, 3);
        let (mut scratch, mut y) = (Vec::new(), Vec::new());
        f.filter_real_same_into(&[1.0; 128], &mut scratch, &mut y);
        // Middle of the output should sit at the DC gain of 1.
        assert!((y[64] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn low_pass_attenuates_high_tone() {
        // A tone at 3/8 of the sample rate, far above the BT = 0.5 Gaussian
        // filter's 1/16-cycle-per-sample bandwidth at 8 samples per symbol.
        let f = gaussian_filter(0.5, 8, 3);
        let tone: Vec<f64> = (0..512)
            .map(|k| (std::f64::consts::TAU * 3.0 / 8.0 * k as f64).cos())
            .collect();
        let mut filtered = Vec::new();
        f.filter_real_into(&tone, &mut filtered);
        let power = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
        let (input_power, out_power) = (power(&tone), power(&filtered[100..400]));
        assert!(
            out_power < input_power * 0.01,
            "stopband leak: {out_power} vs {input_power}"
        );
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let f = gaussian_filter(0.5, 8, 3);
        let x: Vec<f64> = (0..100).map(|k| ((k * 7) % 13) as f64 - 6.0).collect();
        // The same-size form is the full convolution, delay-compensated,
        // and overwrites stale contents of its buffers.
        let mut full = vec![99.0; 3];
        f.filter_real_into(&x, &mut full);
        assert_eq!(full.len(), x.len() + 24);
        let (mut scratch, mut same) = (vec![99.0; 3], vec![99.0; 3]);
        f.filter_real_same_into(&x, &mut scratch, &mut same);
        assert_eq!(same, full[12..12 + x.len()]);
    }

    #[test]
    fn group_delay_of_symmetric_filter() {
        let f = gaussian_filter(0.5, 8, 3);
        assert_eq!(f.group_delay(), 12.0);
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
}
