//! GFSK modulation and demodulation (paper §III-B).
//!
//! BLE's PHY is 2-FSK with Gaussian shaping: a `1` raises the carrier by the
//! deviation `Δf = h/(2·Ts)`, a `0` lowers it, and the modulating NRZ signal
//! passes through a BT = 0.5 Gaussian filter. With `h = 0.5` this is GMSK —
//! the waveform family whose MSK limit the WazaBee attack exploits.

use serde::{Deserialize, Serialize};
use wazabee_dsp::correlate::PatternMatch;
use wazabee_dsp::discriminator::discriminate;
use wazabee_dsp::fir::integrate_and_dump;
use wazabee_dsp::gaussian::{shape_nrz, shape_nrz_rect};
use wazabee_dsp::iq::Iq;
use wazabee_dsp::packed::find_pattern_packed;
use wazabee_dsp::PackedBits;

/// Parameters of a GFSK modem.
///
/// # Examples
///
/// ```
/// use wazabee_ble::{BlePhy, GfskParams};
/// let p = GfskParams::ble(BlePhy::Le2M, 8);
/// assert_eq!(p.sample_rate(), 16.0e6);
/// assert_eq!(p.modulation_index, 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GfskParams {
    /// Symbol rate in symbols per second (1e6 or 2e6 for BLE).
    pub symbol_rate: f64,
    /// Oversampling factor of the simulation.
    pub samples_per_symbol: usize,
    /// Modulation index `h` (BLE: 0.45–0.55, nominal 0.5).
    pub modulation_index: f64,
    /// Gaussian BT product, or `None` for rectangular shaping (pure MSK when
    /// `h = 0.5`) — the limit the paper's theory assumes.
    pub bt: Option<f64>,
    /// Gaussian filter span in symbols (ignored for rectangular shaping).
    pub gaussian_span: usize,
}

impl GfskParams {
    /// BLE-compliant parameters for the given PHY mode (BT = 0.5, h = 0.5).
    pub fn ble(phy: crate::channel::BlePhy, samples_per_symbol: usize) -> Self {
        GfskParams {
            symbol_rate: phy.symbol_rate(),
            samples_per_symbol,
            modulation_index: 0.5,
            bt: Some(0.5),
            gaussian_span: 3,
        }
    }

    /// Like [`GfskParams::ble`] but without the Gaussian filter — an ideal
    /// MSK modulator, useful as the theory baseline in ablations.
    pub fn msk(phy: crate::channel::BlePhy, samples_per_symbol: usize) -> Self {
        GfskParams {
            bt: None,
            ..GfskParams::ble(phy, samples_per_symbol)
        }
    }

    /// Simulation sample rate in samples per second.
    pub fn sample_rate(&self) -> f64 {
        self.symbol_rate * self.samples_per_symbol as f64
    }

    /// Frequency deviation `Δf = h / (2·Ts)` in Hz (paper equations 3–4).
    pub fn deviation_hz(&self) -> f64 {
        self.modulation_index * self.symbol_rate / 2.0
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.symbol_rate.is_finite() && self.symbol_rate > 0.0) {
            return Err("symbol rate must be positive".into());
        }
        if self.samples_per_symbol < 2 {
            return Err("need at least 2 samples per symbol".into());
        }
        if !(self.modulation_index > 0.0 && self.modulation_index < 2.0) {
            return Err("modulation index out of range".into());
        }
        if let Some(bt) = self.bt {
            if !(bt > 0.0 && bt <= 2.0) {
                return Err("BT product out of range".into());
            }
        }
        Ok(())
    }
}

/// Modulates a bit stream to a constant-envelope GFSK baseband waveform.
///
/// Each symbol advances the phase by `±π·h` (spread over
/// `samples_per_symbol` samples); with Gaussian shaping enabled the
/// instantaneous frequency transitions are smoothed across symbol boundaries.
///
/// # Panics
///
/// Panics if `params` fail [`GfskParams::validate`].
pub fn modulate(params: &GfskParams, bits: &[u8]) -> Vec<Iq> {
    let _t = wazabee_telemetry::scope!("ble.gfsk.modulate_ns");
    params.validate().expect("invalid GFSK parameters");
    let nrz = wazabee_dsp::bits::bits_to_nrz(bits);
    let shaped = match params.bt {
        Some(bt) => shape_nrz(&nrz, bt, params.samples_per_symbol, params.gaussian_span),
        None => shape_nrz_rect(&nrz, params.samples_per_symbol),
    };
    // Phase step per sample at full deviation: π·h / sps.
    let step = std::f64::consts::PI * params.modulation_index / params.samples_per_symbol as f64;
    let mut phase = 0.0f64;
    let mut out: Vec<Iq> = shaped
        .iter()
        .map(|&s| {
            phase += s * step;
            Iq::from_polar(1.0, phase)
        })
        .collect();
    // Ramp-down tail: hold the final instantaneous frequency for one more
    // symbol, as real PAs do, so the discriminator can observe the last
    // symbol completely.
    if let Some(&last) = shaped.last() {
        for _ in 0..params.samples_per_symbol {
            phase += last * step;
            out.push(Iq::from_polar(1.0, phase));
        }
    }
    out
}

/// Demodulates to per-sample soft frequency values, normalised so the nominal
/// deviation maps to ±1.
pub fn demodulate_soft(params: &GfskParams, samples: &[Iq]) -> Vec<f64> {
    let scale = params.samples_per_symbol as f64 / (std::f64::consts::PI * params.modulation_index);
    discriminate(samples)
        .into_iter()
        .map(|v| v * scale)
        .collect()
}

/// Demodulates hard bits assuming the first symbol starts at sample `offset`.
///
/// The discriminator produces first differences, so each symbol window
/// integrates `sps − 1` in-symbol slopes plus the boundary slope into the
/// next symbol — a deliberate half-step skew worth 1/sps of noise margin
/// that every diff-based FSK receiver shares. Decisions remain exact in the
/// noiseless case for `sps ≥ 2`.
pub fn demodulate_aligned(params: &GfskParams, samples: &[Iq], offset: usize) -> Vec<u8> {
    let _t = wazabee_telemetry::scope!("ble.gfsk.demodulate_ns");
    let soft = demodulate_soft(params, samples);
    if offset >= soft.len() {
        return Vec::new();
    }
    let soft = &soft[offset..];
    let per_symbol = integrate_and_dump(soft, params.samples_per_symbol);
    wazabee_dsp::bits::nrz_to_bits(&per_symbol)
}

/// Planar SIMD twin of [`demodulate_aligned`]: polar-discriminates the `f32`
/// rails with [`wazabee_dsp::simd::discriminate_planar_into`], integrates each
/// symbol window with [`wazabee_dsp::simd::window_sums_into`] and hard-slices.
///
/// The normalising scale of [`demodulate_soft`] and the `1/sps` of the mean
/// are both positive, so the sliced bits are decided by the same signs as the
/// `f64` path — on any waveform whose per-symbol integrals are not within
/// `f32` rounding of zero, the two paths agree bit for bit.
pub fn demodulate_aligned_planar(
    params: &GfskParams,
    samples: wazabee_dsp::IqSlice<'_>,
    offset: usize,
) -> Vec<u8> {
    let _t = wazabee_telemetry::scope!("ble.gfsk.demodulate_ns");
    let mut diffs = Vec::new();
    wazabee_dsp::simd::discriminate_planar_into(samples.i(), samples.q(), &mut diffs);
    if offset >= diffs.len() {
        return Vec::new();
    }
    let sps = params.samples_per_symbol;
    let n_bits = (diffs.len() - offset) / sps;
    let mut sums = Vec::with_capacity(n_bits);
    wazabee_dsp::simd::window_sums_into(&diffs[offset..offset + n_bits * sps], sps, &mut sums);
    let mut bits = Vec::with_capacity(n_bits);
    wazabee_dsp::simd::nrz_hard_bits_into(&sums, &mut bits);
    bits
}

/// The result of a successful raw capture: sync info plus the bits that
/// followed the sync pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCapture {
    /// Bits following the sync pattern (up to the requested count).
    pub bits: Vec<u8>,
    /// Bit errors observed inside the sync pattern itself.
    pub sync_errors: usize,
    /// Sample-phase offset (0..sps) the receiver locked onto.
    pub sample_offset: usize,
    /// Bit index (within the demodulated stream at that offset) where the
    /// sync pattern started.
    pub sync_bit_index: usize,
}

/// A pattern-triggered GFSK receiver.
///
/// This mirrors the capture pipeline of real BLE radios: demodulate,
/// correlate for a configured sync pattern (normally the access address),
/// then hand the following bits to the link layer. WazaBee's RX primitive
/// reprograms the sync pattern to the MSK image of the 802.15.4 preamble —
/// the hardware neither knows nor cares (paper §IV-D, requirement 4).
#[derive(Debug, Clone)]
pub struct GfskReceiver {
    params: GfskParams,
}

impl GfskReceiver {
    /// Creates a receiver.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`GfskParams::validate`].
    pub fn new(params: GfskParams) -> Self {
        params.validate().expect("invalid GFSK parameters");
        GfskReceiver { params }
    }

    /// The receiver's parameters.
    pub fn params(&self) -> &GfskParams {
        &self.params
    }

    /// Searches the buffer for `sync` (tolerating up to `max_sync_errors`
    /// mismatches), trying every sample phase, and captures up to
    /// `capture_bits` bits after the pattern.
    ///
    /// Returns the capture with the fewest sync errors across all sample
    /// phases, or `None` when no phase qualifies.
    pub fn capture(
        &self,
        samples: &[Iq],
        sync: &[u8],
        max_sync_errors: usize,
        capture_bits: usize,
    ) -> Option<RawCapture> {
        let sps = self.params.samples_per_symbol;
        let sync_packed = PackedBits::from_bits(sync);
        let mut best: Option<RawCapture> = None;
        for offset in 0..sps {
            let bits = demodulate_aligned(&self.params, samples, offset);
            let stream = PackedBits::from_bits(&bits);
            let Some(PatternMatch { index, errors }) =
                find_pattern_packed(&stream, &sync_packed, 0, max_sync_errors)
            else {
                continue;
            };
            if best.as_ref().is_none_or(|b| errors < b.sync_errors) {
                let start = index + sync.len();
                let end = (start + capture_bits).min(bits.len());
                best = Some(RawCapture {
                    bits: bits[start..end].to_vec(),
                    sync_errors: errors,
                    sample_offset: offset,
                    sync_bit_index: index,
                });
                if errors == 0 {
                    break;
                }
            }
        }
        match &best {
            Some(c) => {
                wazabee_telemetry::counter!("ble.sync.hit").inc();
                wazabee_telemetry::histogram!("ble.sync_errors", 0.0, 33.0)
                    .record(c.sync_errors as f64);
            }
            None => wazabee_telemetry::counter!("ble.sync.miss").inc(),
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BlePhy;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use wazabee_dsp::AwgnSource;

    fn params() -> GfskParams {
        GfskParams::ble(BlePhy::Le2M, 8)
    }

    fn random_bits(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    #[test]
    fn constant_envelope() {
        let tx = modulate(&params(), &random_bits(1, 64));
        for s in &tx {
            assert!((s.amplitude() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn noiseless_loopback_rect() {
        let p = GfskParams::msk(BlePhy::Le2M, 8);
        let bits = random_bits(2, 200);
        let rx = demodulate_aligned(&p, &modulate(&p, &bits), 0);
        // The discriminator loses part of the final symbol; compare the body.
        assert_eq!(&rx[..bits.len() - 1], &bits[..bits.len() - 1]);
    }

    #[test]
    fn noiseless_loopback_gaussian() {
        let p = params();
        let bits = random_bits(3, 200);
        let rx = demodulate_aligned(&p, &modulate(&p, &bits), 0);
        assert_eq!(&rx[..bits.len() - 1], &bits[..bits.len() - 1]);
    }

    #[test]
    fn one_bit_rotates_counter_clockwise() {
        // Paper Figure 1: f↗ (a 1) turns the IQ vector counter-clockwise.
        let p = GfskParams::msk(BlePhy::Le1M, 8);
        let tx = modulate(&p, &[1, 1, 1, 1]);
        let phases = wazabee_dsp::discriminator::phase_trajectory(&tx);
        assert!(phases.last().unwrap() > &phases[0]);
        let tx0 = modulate(&p, &[0, 0, 0, 0]);
        let phases0 = wazabee_dsp::discriminator::phase_trajectory(&tx0);
        assert!(phases0.last().unwrap() < &phases0[0]);
    }

    #[test]
    fn msk_phase_advances_quarter_turn_per_symbol() {
        let p = GfskParams::msk(BlePhy::Le2M, 8);
        let tx = modulate(&p, &[1, 1, 0, 1]);
        let traj = wazabee_dsp::discriminator::phase_trajectory(&tx);
        // After each symbol (8 samples) the accumulated phase is k·(±π/2).
        let q = std::f64::consts::FRAC_PI_2;
        let expect = [q, 2.0 * q, q, 2.0 * q];
        for (k, &e) in expect.iter().enumerate() {
            let idx = (k + 1) * 8 - 1;
            let measured = traj[idx] - traj[0] + q / 8.0; // include first step
            assert!(
                (measured - e).abs() < 1e-9,
                "symbol {k}: got {measured}, want {e}"
            );
        }
    }

    #[test]
    fn gaussian_reduces_spectral_transitions() {
        // With the Gaussian filter, instantaneous frequency never jumps by
        // the full 2Δf between consecutive samples.
        let p = params();
        let tx = modulate(&p, &[1, 0, 1, 0, 1, 0, 1, 0]);
        let soft = demodulate_soft(&p, &tx);
        let max_jump = soft
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_jump < 1.0, "gaussian-shaped jump {max_jump}");

        let pr = GfskParams::msk(BlePhy::Le2M, 8);
        let txr = modulate(&pr, &[1, 0, 1, 0, 1, 0, 1, 0]);
        let softr = demodulate_soft(&pr, &txr);
        let max_jump_rect = softr
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_jump_rect > 1.5, "rectangular jump {max_jump_rect}");
    }

    #[test]
    fn receiver_finds_sync_at_any_sample_phase() {
        let p = params();
        let sync = random_bits(4, 32);
        let payload = random_bits(5, 64);
        let mut bits = vec![0, 1, 0, 1, 0, 1, 0, 1]; // preamble-ish lead-in
        bits.extend_from_slice(&sync);
        bits.extend_from_slice(&payload);
        bits.push(0); // guard so the last payload bit demodulates cleanly
        let tx = modulate(&p, &bits);
        let rx = GfskReceiver::new(p);
        for cut in [0usize, 1, 3, 5, 7] {
            let capture = rx.capture(&tx[cut..], &sync, 0, payload.len()).unwrap();
            assert_eq!(capture.bits, payload, "cut {cut}");
            assert_eq!(capture.sync_errors, 0);
        }
    }

    #[test]
    fn receiver_tolerates_noise_within_error_budget() {
        let p = params();
        let sync = random_bits(6, 32);
        let payload = random_bits(7, 128);
        let mut bits = sync.clone();
        bits.extend_from_slice(&payload);
        bits.push(0);
        let mut tx = modulate(&p, &bits);
        AwgnSource::from_snr_db(8, 15.0, 1.0).add_to(&mut tx);
        let rx = GfskReceiver::new(p);
        let capture = rx.capture(&tx, &sync, 4, payload.len()).unwrap();
        let errors = wazabee_dsp::bits::hamming(&capture.bits, &payload);
        assert!(errors <= 4, "{errors} payload bit errors at 15 dB");
    }

    #[test]
    fn receiver_rejects_absent_sync() {
        let p = params();
        let tx = modulate(&p, &random_bits(9, 128));
        let rx = GfskReceiver::new(p);
        let sync = vec![1; 32]; // a 32-bit run of 1s never survives whitened data
        assert!(rx.capture(&tx, &sync, 0, 10).is_none());
    }

    #[test]
    fn capture_truncates_at_buffer_end() {
        let p = params();
        let sync = random_bits(10, 16);
        let mut bits = sync.clone();
        bits.extend_from_slice(&[1, 0, 1]);
        let tx = modulate(&p, &bits);
        let rx = GfskReceiver::new(p);
        let capture = rx.capture(&tx, &sync, 0, 1000).unwrap();
        // The ramp-down tail may decode as one extra bit at most.
        assert!(capture.bits.len() <= 4);
        assert_eq!(&capture.bits[..3], &[1, 0, 1]);
    }

    #[test]
    fn planar_demod_matches_f64_demod_at_every_phase() {
        for p in [params(), GfskParams::msk(BlePhy::Le2M, 8)] {
            let bits = random_bits(11, 160);
            let mut tx = modulate(&p, &bits);
            AwgnSource::from_snr_db(12, 20.0, 1.0).add_to(&mut tx);
            let planar = wazabee_dsp::IqBuf::from_interleaved(&tx);
            for offset in 0..p.samples_per_symbol {
                let f64_bits = demodulate_aligned(&p, &tx, offset);
                let f32_bits = demodulate_aligned_planar(&p, planar.as_slice(), offset);
                assert_eq!(f32_bits, f64_bits, "offset {offset}");
            }
        }
    }

    #[test]
    fn deviation_and_sample_rate() {
        let p = params();
        assert_eq!(p.deviation_hz(), 0.5e6);
        assert_eq!(p.sample_rate(), 16.0e6);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut p = params();
        p.samples_per_symbol = 1;
        assert!(p.validate().is_err());
        let mut p = params();
        p.modulation_index = 0.0;
        assert!(p.validate().is_err());
        let mut p = params();
        p.bt = Some(0.0);
        assert!(p.validate().is_err());
        let mut p = params();
        p.symbol_rate = -1.0;
        assert!(p.validate().is_err());
        assert!(params().validate().is_ok());
    }
}
