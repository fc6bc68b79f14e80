//! Additive white Gaussian noise generation for the channel simulator.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::iq::Iq;

/// A seedable complex AWGN source.
///
/// The generator is deterministic given its seed (backed by ChaCha8), so every
/// benchmark and test in this workspace is reproducible.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::{AwgnSource, Iq};
/// let mut noise = AwgnSource::new(42, 0.1);
/// let mut buf = vec![Iq::ONE; 4];
/// noise.add_to(&mut buf);
/// assert!(buf.iter().all(|s| s.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct AwgnSource {
    rng: ChaCha8Rng,
    /// Standard deviation applied independently to I and Q.
    sigma: f64,
}

impl AwgnSource {
    /// Creates a noise source with per-component standard deviation `sigma`.
    ///
    /// Total complex noise power is `2·sigma²`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(seed: u64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative"
        );
        AwgnSource {
            rng: ChaCha8Rng::seed_from_u64(seed),
            sigma,
        }
    }

    /// Creates a source whose noise power is `signal_power / 10^(snr_db/10)`.
    ///
    /// `signal_power` is the mean power of the signal the noise will corrupt
    /// (1.0 for the constant-envelope modems in this workspace).
    ///
    /// # Panics
    ///
    /// Panics if `signal_power` is negative or not finite.
    pub fn from_snr_db(seed: u64, snr_db: f64, signal_power: f64) -> Self {
        assert!(
            signal_power.is_finite() && signal_power >= 0.0,
            "signal power must be non-negative"
        );
        let noise_power = signal_power / 10f64.powf(snr_db / 10.0);
        // Complex noise power 2σ² = noise_power.
        AwgnSource::new(seed, (noise_power / 2.0).sqrt())
    }

    /// Per-component standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one complex noise sample (Box–Muller).
    #[inline]
    pub fn next_sample(&mut self) -> Iq {
        // Box–Muller transform: two uniforms → two independent gaussians,
        // which is exactly one complex gaussian sample.
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt() * self.sigma;
        let theta = std::f64::consts::TAU * u2;
        Iq::new(r * theta.cos(), r * theta.sin())
    }

    /// Adds noise to every sample of `buf` in place.
    pub fn add_to(&mut self, buf: &mut [Iq]) {
        let _s = wazabee_telemetry::scope!("dsp.awgn");
        if self.sigma == 0.0 {
            return;
        }
        for s in buf {
            *s += self.next_sample();
        }
    }

    /// Adds noise to a planar buffer in place.
    ///
    /// Draws the *identical* `f64` Box–Muller sequence as [`AwgnSource::add_to`]
    /// on a buffer of the same length (one complex draw per sample, in order),
    /// narrowing each component to `f32` only at the final add — so a
    /// planar receive chain sees the `f32` image of exactly the noise the
    /// interleaved chain would have seen, and seeded runs stay comparable
    /// across the two representations.
    pub fn add_to_planar(&mut self, buf: &mut crate::iqbuf::IqBuf) {
        let _s = wazabee_telemetry::scope!("dsp.awgn");
        if self.sigma == 0.0 {
            return;
        }
        let (i, q) = buf.rails_mut();
        for k in 0..i.len() {
            let n = self.next_sample();
            i[k] += n.i as f32;
            q[k] += n.q as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iq::mean_power;

    #[test]
    fn deterministic_given_seed() {
        let mut a = AwgnSource::new(7, 0.3);
        let mut b = AwgnSource::new(7, 0.3);
        for _ in 0..32 {
            assert_eq!(a.next_sample(), b.next_sample());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = AwgnSource::new(1, 0.3);
        let mut b = AwgnSource::new(2, 0.3);
        let same = (0..32)
            .filter(|_| a.next_sample() == b.next_sample())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn noise_power_matches_sigma() {
        let mut src = AwgnSource::new(3, 0.5);
        let buf: Vec<Iq> = (0..200_000).map(|_| src.next_sample()).collect();
        let p = mean_power(&buf);
        let expect = 2.0 * 0.5 * 0.5;
        assert!(
            (p - expect).abs() / expect < 0.02,
            "measured {p}, expected {expect}"
        );
    }

    #[test]
    fn snr_constructor_calibrated() {
        // 10 dB SNR on a unit-power signal → noise power 0.1.
        let mut src = AwgnSource::from_snr_db(4, 10.0, 1.0);
        let buf: Vec<Iq> = (0..200_000).map(|_| src.next_sample()).collect();
        let p = mean_power(&buf);
        assert!((p - 0.1).abs() / 0.1 < 0.03, "measured noise power {p}");
    }

    #[test]
    fn zero_sigma_is_noiseless() {
        let mut src = AwgnSource::new(5, 0.0);
        let mut buf = vec![Iq::ONE; 8];
        src.add_to(&mut buf);
        assert!(buf.iter().all(|&s| s == Iq::ONE));
    }

    #[test]
    fn mean_is_near_zero() {
        let mut src = AwgnSource::new(6, 1.0);
        let sum: Iq = (0..100_000).map(|_| src.next_sample()).sum();
        let mean = sum / 100_000.0;
        assert!(mean.amplitude() < 0.02, "mean drifted to {mean}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = AwgnSource::new(0, -1.0);
    }

    #[test]
    fn planar_noise_is_f32_image_of_interleaved_noise() {
        let mut a = AwgnSource::new(11, 0.4);
        let mut b = a.clone();
        let mut inter = vec![Iq::new(0.5, -0.25); 100];
        a.add_to(&mut inter);
        let mut planar = crate::iqbuf::IqBuf::from_interleaved(&vec![Iq::new(0.5, -0.25); 100]);
        b.add_to_planar(&mut planar);
        for (k, s) in inter.iter().enumerate() {
            let (pi, pq) = planar.get(k);
            // Same RNG stream: add order differs (f64 add then narrow vs
            // narrow then f32 add), so equality holds to f32 rounding.
            assert!((f64::from(pi) - s.i).abs() < 1e-6, "sample {k}");
            assert!((f64::from(pq) - s.q).abs() < 1e-6, "sample {k}");
        }
        // Zero sigma must not consume RNG draws on either path.
        let mut z = AwgnSource::new(3, 0.0);
        let mut pb = crate::iqbuf::IqBuf::from_interleaved(&[Iq::ONE; 4]);
        z.add_to_planar(&mut pb);
        assert_eq!(pb.get(0), (1.0, 0.0));
    }
}
