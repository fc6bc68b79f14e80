//! A complete 802.15.4 modem: PPDUs in, IQ out — and back.
//!
//! Transmission uses the standards O-QPSK half-sine modulator. The primary
//! receiver works in the *MSK view*: an FM discriminator recovers the per-chip
//! phase-rotation directions, the synchronisation header is found by pattern
//! correlation, and symbols are recovered by minimum-Hamming matching of the
//! 31-bit MSK images — phase-offset invariant and exactly the shape of
//! receiver the paper's attack drives (§IV-D). A coherent chip-domain
//! receiver lives in [`crate::oqpsk`] for cross-validation.

use wazabee_dsp::fir::integrate_and_dump;
use wazabee_dsp::iq::Iq;

use crate::channel::CHIPS_PER_SYMBOL;
use crate::dsss::symbols_to_bytes;
use crate::fcs::check_and_strip_fcs;
use crate::frame::{Ppdu, SHR_SYMBOLS};
use crate::msk::{chips_to_msk, closest_symbol_msk_packed};
use crate::oqpsk::modulate_chips;

/// Default sync-pattern error tolerance of [`Dot154Modem::receive`], in bits
/// out of the 319-bit SHR image.
pub const DEFAULT_MAX_SHR_ERRORS: usize = 32;

/// Mean discriminator output over (up to) the first 8192 samples, scaled to
/// Hz — a coarse carrier-frequency-offset figure recorded in decode traces.
/// Streamed: no intermediate discriminator vector is allocated.
fn estimate_cfo_hz(samples: &[Iq], sample_rate: f64) -> Option<f64> {
    const CFO_WINDOW: usize = 8192;
    let window = &samples[..samples.len().min(CFO_WINDOW)];
    let mean = wazabee_dsp::discriminator::mean_frequency(window)?;
    Some(mean * sample_rate / std::f64::consts::TAU)
}

/// A frame recovered from the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedPpdu {
    /// The recovered PSDU (MAC frame including FCS).
    pub psdu: Vec<u8>,
    /// Total chip-domain errors accumulated while despreading the PSDU.
    pub chip_errors: usize,
    /// Bit errors inside the synchronisation header pattern.
    pub shr_errors: usize,
}

impl ReceivedPpdu {
    /// Whether the trailing FCS validates.
    pub fn fcs_ok(&self) -> bool {
        check_and_strip_fcs(&self.psdu).is_some()
    }

    /// The MAC frame without its FCS, if the FCS validates.
    pub fn mac_frame(&self) -> Option<&[u8]> {
        check_and_strip_fcs(&self.psdu)
    }
}

/// An 802.15.4 physical-layer modem.
///
/// # Examples
///
/// ```
/// use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
///
/// let modem = Dot154Modem::new(8);
/// let psdu = append_fcs(&[0x01, 0x08, 0x42]);
/// let ppdu = Ppdu::new(psdu.clone()).unwrap();
/// let air = modem.transmit(&ppdu);
/// let rx = modem.receive(&air).unwrap();
/// assert_eq!(rx.psdu, psdu);
/// assert!(rx.fcs_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Dot154Modem {
    samples_per_chip: usize,
    max_shr_errors: usize,
}

impl Dot154Modem {
    /// Creates a modem at the given oversampling factor.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_chip` is less than 2.
    pub fn new(samples_per_chip: usize) -> Self {
        assert!(samples_per_chip >= 2, "need at least 2 samples per chip");
        Dot154Modem {
            samples_per_chip,
            max_shr_errors: DEFAULT_MAX_SHR_ERRORS,
        }
    }

    /// Adjusts the SHR correlator tolerance (bits out of 319).
    pub fn with_max_shr_errors(mut self, max: usize) -> Self {
        self.max_shr_errors = max;
        self
    }

    /// Oversampling factor.
    pub fn samples_per_chip(&self) -> usize {
        self.samples_per_chip
    }

    /// Simulation sample rate in samples per second (chip rate × oversampling).
    pub fn sample_rate(&self) -> f64 {
        crate::channel::CHIP_RATE * self.samples_per_chip as f64
    }

    /// Modulates a PPDU to complex baseband.
    pub fn transmit(&self, ppdu: &Ppdu) -> Vec<Iq> {
        let _t = wazabee_telemetry::scope!("dot154.oqpsk.modulate_ns");
        modulate_chips(&ppdu.to_chips(), self.samples_per_chip)
    }

    /// The 319-bit MSK image of the synchronisation header (preamble + SFD),
    /// used as the receiver's sync pattern. Computed once and cached — the
    /// receiver consults it on every frame.
    pub fn shr_msk_image() -> Vec<u8> {
        Self::shr_msk_image_packed().to_bits()
    }

    /// The SHR MSK image in word-packed form — the shape the receiver's
    /// correlator actually consumes. Computed once and cached.
    pub fn shr_msk_image_packed() -> &'static wazabee_dsp::PackedBits {
        static IMAGE: std::sync::OnceLock<wazabee_dsp::PackedBits> = std::sync::OnceLock::new();
        IMAGE.get_or_init(|| {
            let shr_chips = crate::dsss::spread_symbols(&Ppdu::shr_symbols());
            wazabee_dsp::PackedBits::from_bits(&chips_to_msk(&shr_chips, false))
        })
    }

    /// Demodulates per-chip MSK hard bits at a given sample offset.
    fn msk_bits_at_offset(&self, samples: &[Iq], offset: usize) -> Vec<u8> {
        let freq = wazabee_dsp::discriminator::discriminate(samples);
        if offset >= freq.len() {
            return Vec::new();
        }
        let per_chip = integrate_and_dump(&freq[offset..], self.samples_per_chip);
        wazabee_dsp::bits::nrz_to_bits(&per_chip)
    }

    /// Receives a frame using the MSK-view pipeline.
    ///
    /// Returns `None` when no synchronisation header is found or the stream
    /// ends before the announced PSDU completes. Every attempt emits a
    /// flight-recorder [`DecodeTrace`](wazabee_flightrec::DecodeTrace) when a
    /// recorder is installed.
    pub fn receive(&self, samples: &[Iq]) -> Option<ReceivedPpdu> {
        let mut tr = wazabee_flightrec::begin("dot154.rx");
        if tr.active() {
            tr.tap_iq(samples, self.sample_rate(), None);
            if let Some(cfo) = estimate_cfo_hz(samples, self.sample_rate()) {
                tr.cfo_hz(cfo);
            }
        }
        match self.receive_traced(samples, &mut tr) {
            Ok(rx) => {
                let ok = rx.fcs_ok();
                if ok {
                    wazabee_telemetry::counter!("dot154.fcs.ok").inc();
                } else {
                    wazabee_telemetry::counter!("dot154.fcs.fail").inc();
                    wazabee_telemetry::counter!("dot154.rx.fail.fcs").inc();
                }
                tr.deliver(&rx.psdu, ok, wazabee_flightrec::FrameKind::Dot154);
                Some(rx)
            }
            Err(failure) => {
                match failure {
                    wazabee_flightrec::RxFailure::NoSync => {
                        wazabee_telemetry::counter!("dot154.rx.fail.no_sync").inc()
                    }
                    _ => wazabee_telemetry::counter!("dot154.rx.fail.truncated").inc(),
                }
                tr.fail(failure);
                None
            }
        }
    }

    /// The MSK-view pipeline proper, reporting every outcome as a typed
    /// [`RxFailure`](wazabee_flightrec::RxFailure) and annotating the trace
    /// handle as it goes.
    fn receive_traced(
        &self,
        samples: &[Iq],
        tr: &mut wazabee_flightrec::TraceHandle,
    ) -> Result<ReceivedPpdu, wazabee_flightrec::RxFailure> {
        use wazabee_flightrec::RxFailure;
        let _t = wazabee_telemetry::scope!("dot154.msk_rx_ns");
        let shr = Self::shr_msk_image_packed();
        let mut best: Option<(usize, wazabee_dsp::correlate::PatternMatch)> = None;
        let mut cached_bits: Option<wazabee_dsp::PackedBits> = None;
        for offset in 0..self.samples_per_chip {
            let bits =
                wazabee_dsp::PackedBits::from_bits(&self.msk_bits_at_offset(samples, offset));
            if let Some(m) =
                wazabee_dsp::packed::find_pattern_packed(&bits, shr, 0, self.max_shr_errors)
            {
                if best.as_ref().is_none_or(|(_, b)| m.errors < b.errors) {
                    best = Some((offset, m));
                    cached_bits = Some(bits);
                    if m.errors == 0 {
                        break;
                    }
                }
            }
        }
        match &best {
            Some((_, m)) => {
                wazabee_telemetry::counter!("dot154.sync.hit").inc();
                wazabee_telemetry::histogram!("dot154.shr_errors", 0.0, 64.0)
                    .record(m.errors as f64);
            }
            None => wazabee_telemetry::counter!("dot154.sync.miss").inc(),
        }
        let (offset, m) = best.ok_or(RxFailure::NoSync)?;
        tr.sync(m.errors, m.index, offset, shr.len());
        let bits = cached_bits.expect("bits cached with best match");
        // `m.index` is the stream position of MSK bit i = 1 (the first
        // internal transition of the frame). Symbol k's 31 internal bits sit
        // at stream positions m.index + 32k .. + 32k + 31, extracted straight
        // from the packed stream as one `u32` block.
        let symbol_block = |k: usize| -> Option<u32> {
            let start = m.index + 32 * k;
            let end = start + CHIPS_PER_SYMBOL - 1;
            (end <= bits.len()).then(|| bits.extract_u32(start, CHIPS_PER_SYMBOL - 1))
        };
        // PHR is the symbol pair right after the 10 SHR symbols.
        let phr_lo =
            closest_symbol_msk_packed(symbol_block(SHR_SYMBOLS).ok_or(RxFailure::TruncatedFrame)?);
        let phr_hi = closest_symbol_msk_packed(
            symbol_block(SHR_SYMBOLS + 1).ok_or(RxFailure::TruncatedFrame)?,
        );
        let psdu_len = usize::from((phr_hi.0 << 4) | phr_lo.0) & 0x7F;
        let mut symbols = Vec::with_capacity(psdu_len * 2);
        let mut chip_errors = phr_lo.1 + phr_hi.1;
        for k in 0..psdu_len * 2 {
            let block = symbol_block(SHR_SYMBOLS + 2 + k).ok_or(RxFailure::TruncatedFrame)?;
            let (sym, errs) = closest_symbol_msk_packed(block);
            tr.despread(errs);
            wazabee_telemetry::counter!("dot154.despread.symbols").inc();
            wazabee_telemetry::histogram!("dot154.despread_hamming", 0.0, 32.0).record(errs as f64);
            symbols.push(sym);
            chip_errors += errs;
        }
        Ok(ReceivedPpdu {
            psdu: symbols_to_bytes(&symbols),
            chip_errors,
            shr_errors: m.errors,
        })
    }

    /// Receives a frame with the coherent chip-domain receiver of
    /// [`crate::oqpsk`] — slower, but it validates the waveform (not just the
    /// discriminator view).
    pub fn receive_coherent(&self, samples: &[Iq]) -> Option<ReceivedPpdu> {
        let shr_chips = crate::dsss::spread_symbols(&Ppdu::shr_symbols());
        let rxr = crate::oqpsk::CoherentReceiver::new(self.samples_per_chip);
        let sync = rxr.synchronize(samples, &shr_chips, 0.55)?;
        let max_chips = (samples.len() - sync.sample_index) / self.samples_per_chip;
        let chips = rxr.demodulate_chips(samples, &sync, max_chips);
        if chips.len() < (SHR_SYMBOLS + 2) * CHIPS_PER_SYMBOL {
            return None;
        }
        let payload_chips = &chips[SHR_SYMBOLS * CHIPS_PER_SYMBOL..];
        let head = crate::dsss::despread_chips(&payload_chips[..2 * CHIPS_PER_SYMBOL]);
        let psdu_len = usize::from((head[1].symbol << 4) | head[0].symbol) & 0x7F;
        let need = (2 + psdu_len * 2) * CHIPS_PER_SYMBOL;
        if payload_chips.len() < need {
            return None;
        }
        let (bytes, chip_errors) =
            crate::dsss::despread_to_bytes(&payload_chips[2 * CHIPS_PER_SYMBOL..need]);
        Some(ReceivedPpdu {
            psdu: bytes,
            chip_errors: chip_errors + head[0].chip_errors + head[1].chip_errors,
            shr_errors: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcs::append_fcs;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use wazabee_dsp::AwgnSource;

    fn frame(seed: u64, payload: usize) -> Ppdu {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mac: Vec<u8> = (0..payload).map(|_| rng.gen()).collect();
        Ppdu::new(append_fcs(&mac)).unwrap()
    }

    #[test]
    fn loopback_clean() {
        let m = Dot154Modem::new(8);
        for (seed, payload) in [(1u64, 0usize), (2, 5), (3, 30), (4, 100)] {
            let ppdu = frame(seed, payload);
            let rx = m.receive(&m.transmit(&ppdu)).unwrap();
            assert_eq!(rx.psdu, ppdu.psdu(), "payload {payload}");
            assert_eq!(rx.chip_errors, 0);
            assert!(rx.fcs_ok());
        }
    }

    #[test]
    fn loopback_coherent_clean() {
        let m = Dot154Modem::new(8);
        let ppdu = frame(5, 24);
        let rx = m.receive_coherent(&m.transmit(&ppdu)).unwrap();
        assert_eq!(rx.psdu, ppdu.psdu());
        assert!(rx.fcs_ok());
    }

    #[test]
    fn both_receivers_agree_under_noise() {
        let m = Dot154Modem::new(8);
        let ppdu = frame(6, 20);
        let mut air = m.transmit(&ppdu);
        AwgnSource::from_snr_db(7, 10.0, 1.0).add_to(&mut air);
        let a = m.receive(&air).unwrap();
        let b = m.receive_coherent(&air).unwrap();
        assert_eq!(a.psdu, ppdu.psdu());
        assert_eq!(b.psdu, ppdu.psdu());
        assert!(a.fcs_ok() && b.fcs_ok());
    }

    #[test]
    fn receiver_locks_at_any_sample_phase() {
        let m = Dot154Modem::new(8);
        let ppdu = frame(8, 12);
        let air = m.transmit(&ppdu);
        for cut in [0usize, 1, 3, 5, 7, 11] {
            let rx = m.receive(&air[cut..]).unwrap();
            assert_eq!(rx.psdu, ppdu.psdu(), "cut {cut}");
        }
    }

    #[test]
    fn no_frame_in_noise() {
        let m = Dot154Modem::new(8);
        let mut noise = vec![Iq::ZERO; 30_000];
        AwgnSource::new(9, 0.7).add_to(&mut noise);
        assert!(m.receive(&noise).is_none());
    }

    #[test]
    fn truncated_frame_returns_none() {
        let m = Dot154Modem::new(8);
        let ppdu = frame(10, 40);
        let air = m.transmit(&ppdu);
        // Cut the buffer in the middle of the PSDU.
        let cut = air.len() * 2 / 3;
        assert!(m.receive(&air[..cut]).is_none());
    }

    #[test]
    fn corrupted_fcs_reported() {
        let m = Dot154Modem::new(8);
        let mut psdu = append_fcs(&[1, 2, 3, 4]);
        let last = psdu.len() - 1;
        psdu[last] ^= 0xFF; // break the FCS before modulation
        let ppdu = Ppdu::new(psdu.clone()).unwrap();
        let rx = m.receive(&m.transmit(&ppdu)).unwrap();
        assert_eq!(rx.psdu, psdu);
        assert!(!rx.fcs_ok());
        assert!(rx.mac_frame().is_none());
    }

    #[test]
    fn shr_image_has_expected_length() {
        // 10 symbols × 32 chips → 319 internal MSK bits.
        assert_eq!(Dot154Modem::shr_msk_image().len(), 319);
    }

    #[test]
    fn sample_rate() {
        assert_eq!(Dot154Modem::new(8).sample_rate(), 16.0e6);
    }

    #[test]
    #[should_panic(expected = "at least 2 samples")]
    fn rejects_undersampling() {
        let _ = Dot154Modem::new(1);
    }
}

impl ReceivedPpdu {
    /// Link quality indicator in 0–255, derived from the chip-error rate of
    /// the despread PSDU (255 = error-free, 0 = at the correction limit of
    /// ≈ 8 errors per 32-chip symbol).
    pub fn lqi(&self) -> u8 {
        let symbols = (self.psdu.len() * 2 + 2).max(1); // + PHR
        let errors_per_symbol = self.chip_errors as f64 / symbols as f64;
        let quality = 1.0 - (errors_per_symbol / 8.0).min(1.0);
        (quality * 255.0).round() as u8
    }
}

#[cfg(test)]
mod lqi_tests {
    use super::*;

    #[test]
    fn clean_frame_has_max_lqi() {
        let r = ReceivedPpdu {
            psdu: vec![0; 10],
            chip_errors: 0,
            shr_errors: 0,
        };
        assert_eq!(r.lqi(), 255);
    }

    #[test]
    fn lqi_decreases_with_errors() {
        let mk = |e| ReceivedPpdu {
            psdu: vec![0; 10],
            chip_errors: e,
            shr_errors: 0,
        };
        assert!(mk(10).lqi() > mk(60).lqi());
        assert!(mk(60).lqi() > mk(150).lqi());
    }

    #[test]
    fn lqi_saturates_at_zero() {
        let r = ReceivedPpdu {
            psdu: vec![0; 2],
            chip_errors: 10_000,
            shr_errors: 0,
        };
        assert_eq!(r.lqi(), 0);
    }
}
