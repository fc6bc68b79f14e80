//! The WazaBee reception primitive (paper §IV-D).
//!
//! The diverted chip's access-address correlator is programmed with the MSK
//! image of the 802.15.4 `0000` symbol, CRC checking is disabled, and the
//! capture length is maxed out. Each captured 32-bit block is then matched
//! against the sixteen MSK images by Hamming distance to recover symbols —
//! tolerating both the GMSK≈MSK approximation error and channel bitflips.

use wazabee_dot154::modem::ReceivedPpdu;
use wazabee_dot154::msk::{boundary_msk_bit, closest_symbol_msk_packed, pn_msk_image};
use wazabee_dot154::pn::pn_sequence;
use wazabee_dsp::PackedBits;
use wazabee_flightrec::RxFailure;

use crate::error::WazaBeeError;
use crate::msk::despread_msk_block_packed;
use crate::radio::RawFskRadio;

/// Maps a reception error to its flight-recorder failure classification.
pub(crate) fn rx_failure(e: &WazaBeeError) -> RxFailure {
    match e {
        WazaBeeError::NoSync => RxFailure::NoSync,
        WazaBeeError::SyncFalsePositive => RxFailure::SyncFalsePositive,
        WazaBeeError::DespreadDistanceExceeded { .. } => RxFailure::DespreadDistanceExceeded,
        WazaBeeError::PreambleOverrun => RxFailure::PreambleOverrun,
        WazaBeeError::PhrReserved { .. } => RxFailure::PhrReserved,
        // No other variant escapes the receive engine; Truncated covers the rest.
        _ => RxFailure::TruncatedFrame,
    }
}

/// Which correspondence table despreading uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DespreadTable {
    /// The paper's Algorithm-1 table (§IV-C) — faithful to the original
    /// implementation, at most one bit of distance from the waveform truth.
    #[default]
    Algorithm1,
    /// The waveform-exact MSK images — the ablation alternative.
    Waveform,
}

/// The 32-bit sync pattern for the diverted access-address correlator: the
/// boundary transition between two consecutive `0000` symbols followed by
/// the 31-bit MSK image of the `0000` PN sequence.
///
/// Because the 802.15.4 preamble is eight `0000` symbols, this pattern
/// repeats throughout the preamble and guarantees symbol-aligned sync.
pub fn access_address_pattern() -> Vec<u8> {
    let pn0 = pn_sequence(0);
    let mut bits = vec![boundary_msk_bit(pn0[31], pn0[0], false)];
    bits.extend(pn_msk_image(0));
    bits
}

/// The same pattern packed as the 32-bit value a real chip's access-address
/// register would hold (first-transmitted bit in the least significant
/// position, as BLE serialises access addresses).
pub fn access_address_value() -> u32 {
    access_address_pattern()
        .iter()
        .enumerate()
        .fold(0u32, |acc, (k, &b)| acc | (u32::from(b) << k))
}

/// Estimates the carrier-frequency offset, in Hz: the mean discriminator
/// output over (up to) the first 8192 samples of `samples`. MSK's symmetric
/// ±deviation averages out over the alternating preamble, leaving the
/// residual carrier offset — a coarse but useful forensic figure.
///
/// Callers hand over a window starting *at the sync sample offset*: a long
/// pre-frame lead-in is mostly silence, whose zero-frequency samples would
/// dilute the mean toward zero and under-report the offset.
///
/// Only computed when a flight-recorder trace is active; returns `None` for
/// windows too short to difference.
pub(crate) fn estimate_cfo_hz(samples: &[wazabee_dsp::Iq], sample_rate: f64) -> Option<f64> {
    const CFO_WINDOW: usize = 8192;
    let window = &samples[..samples.len().min(CFO_WINDOW)];
    let mean = wazabee_dsp::discriminator::mean_frequency(window)?;
    Some(mean * sample_rate / std::f64::consts::TAU)
}

/// Data-aided CFO estimate over a *synced* window: the mean discriminator
/// output minus the phase contribution of the demodulated bit decisions
/// (±π/(2·sps) rad/sample for a 1/0 at modulation index 0.5), leaving the
/// residual carrier offset.
///
/// The raw mean of [`estimate_cfo_hz`] is only unbiased when the window's
/// bits are balanced; a frame body with a 1/0 imbalance of fraction `b`
/// drags the raw estimate by `b · symbol_rate/4` — tens of kHz for ordinary
/// payloads. Subtracting the decision-weighted deviation removes that bias.
///
/// `samples` starts at the sync hit's own sample; `bits` is the lane's bit
/// stream with `from_bit` the lane-local index of the bit at `samples[0]`.
pub(crate) fn estimate_cfo_hz_synced(
    samples: &[wazabee_dsp::Iq],
    bits: &PackedBits,
    from_bit: usize,
    sps: usize,
    sample_rate: f64,
) -> Option<f64> {
    const CFO_WINDOW_BITS: usize = 1024;
    let nbits = CFO_WINDOW_BITS
        .min(bits.len().saturating_sub(from_bit))
        .min(samples.len().saturating_sub(1) / sps);
    if nbits == 0 {
        return None;
    }
    // Exactly the samples whose first differences the `nbits` decisions
    // integrated over, so measurement and compensation stay aligned.
    let mean = wazabee_dsp::discriminator::mean_frequency(&samples[..nbits * sps + 1])?;
    let ones: usize = (from_bit..from_bit + nbits)
        .map(|k| usize::from(bits.bit(k)))
        .sum();
    let balance = (2.0 * ones as f64 - nbits as f64) / nbits as f64;
    let data_step = balance * std::f64::consts::PI / (2.0 * sps as f64);
    Some((mean - data_step) * sample_rate / std::f64::consts::TAU)
}

/// The WazaBee reception primitive bound to a diverted radio.
///
/// # Examples
///
/// ```
/// use wazabee::{WazaBeeRx, WazaBeeTx};
/// use wazabee_ble::{BleModem, BlePhy};
/// use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
///
/// // A genuine 802.15.4 transmitter, received by a diverted BLE chip.
/// let ppdu = Ppdu::new(append_fcs(&[1, 2, 3])).unwrap();
/// let air = Dot154Modem::new(8).transmit(&ppdu);
/// let rx = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
/// let frame = rx.receive(&air).unwrap();
/// assert_eq!(frame.psdu, ppdu.psdu());
/// assert!(frame.fcs_ok());
/// ```
#[derive(Debug, Clone)]
pub struct WazaBeeRx<R> {
    radio: R,
    table: DespreadTable,
    max_sync_errors: usize,
    max_despread_distance: Option<usize>,
    /// The diverted access-address sync pattern, computed once at
    /// construction — real hardware programs its correlator register once,
    /// and the software model should not rebuild the pattern per receive.
    sync_bits: Vec<u8>,
}

/// Upper bound on captured bits: enough for the remaining preamble, SFD,
/// PHR and a maximum-length PSDU.
const MAX_CAPTURE_BITS: usize = (8 + 2 + 2 + 2 * 127) * 32 + 64;

/// How many leading `0000` symbols may follow the sync match before the SFD
/// must appear. The preamble is 8 symbols and the sync pattern consumes at
/// least one of them, so at most 7 whole `0000` symbols can remain.
const MAX_PREAMBLE_SYMBOLS: usize = 7;

impl<R: RawFskRadio> WazaBeeRx<R> {
    /// Binds the primitive to a radio, verifying the 2 Mbit/s requirement.
    ///
    /// # Errors
    ///
    /// Returns [`WazaBeeError::UnsupportedDataRate`] when the radio does not
    /// run at 2 Msym/s.
    pub fn new(radio: R) -> Result<Self, WazaBeeError> {
        let rate = radio.symbol_rate();
        if (rate - 2.0e6).abs() > 1.0 {
            return Err(WazaBeeError::UnsupportedDataRate { actual: rate });
        }
        Ok(WazaBeeRx {
            radio,
            table: DespreadTable::Algorithm1,
            max_sync_errors: 3,
            max_despread_distance: None,
            sync_bits: access_address_pattern(),
        })
    }

    /// Selects the despreading table (ablation knob).
    pub fn with_table(mut self, table: DespreadTable) -> Self {
        self.table = table;
        self
    }

    /// Adjusts the access-address correlator tolerance (bits out of 32).
    pub fn with_max_sync_errors(mut self, max: usize) -> Self {
        self.max_sync_errors = max;
        self
    }

    /// Sets a Hamming-distance budget for despread symbol decisions: any
    /// decision farther than `max` chips from its nearest MSK image aborts
    /// the frame with [`WazaBeeError::DespreadDistanceExceeded`].
    ///
    /// The paper's receiver accepts the nearest image unconditionally
    /// (the default, `None`); the budget turns silent symbol guesses under
    /// heavy noise into a typed, observable failure.
    pub fn with_max_despread_distance(mut self, max: usize) -> Self {
        self.max_despread_distance = Some(max);
        self
    }

    /// The underlying radio.
    pub fn radio(&self) -> &R {
        &self.radio
    }

    /// The diverted access-address sync pattern programmed at construction.
    pub(crate) fn sync_bits(&self) -> &[u8] {
        &self.sync_bits
    }

    /// The configured correlator tolerance (bits out of 32).
    pub(crate) fn max_sync_errors(&self) -> usize {
        self.max_sync_errors
    }

    /// One despread decision with no side effects. The streaming engine
    /// re-runs held attempts as chunks arrive, so telemetry and tracing are
    /// deferred to commit time; this must stay pure.
    pub(crate) fn despread_raw(&self, block: u32) -> (u8, usize) {
        match self.table {
            DespreadTable::Algorithm1 => despread_msk_block_packed(block),
            DespreadTable::Waveform => closest_symbol_msk_packed(block),
        }
    }

    /// Decodes one attempt out of a demodulated bit stream whose bit `start`
    /// is the first bit *after* the matched sync pattern. `finished` tells
    /// the decoder whether the stream can still grow: running out of bits is
    /// [`DecodeOutcome::NeedBits`] while more chunks may arrive, and
    /// `Truncated` once the stream is flushed (or the capture bound is hit).
    ///
    /// Pure with respect to telemetry and the flight recorder — held
    /// attempts are re-run on every chunk, and double-counting a replay
    /// would corrupt the counters. The engine emits the accumulated
    /// `distances` once, when it commits the outcome.
    pub(crate) fn decode_after_sync(
        &self,
        bits: &PackedBits,
        start: usize,
        finished: bool,
    ) -> DecodeOutcome {
        enum BlockEnd {
            NeedMore,
            Truncated,
        }
        // The stream after sync is a sequence of 32-bit blocks:
        // [boundary bit, 31-bit MSK image].
        let block = |k: usize| -> Result<u32, BlockEnd> {
            if (k + 1) * 32 > MAX_CAPTURE_BITS {
                return Err(BlockEnd::Truncated);
            }
            let s = start + k * 32 + 1;
            if s + 31 > bits.len() {
                return Err(if finished {
                    BlockEnd::Truncated
                } else {
                    BlockEnd::NeedMore
                });
            }
            Ok(bits.extract_u32(s, 31))
        };
        let mut distances: Vec<usize> = Vec::new();
        macro_rules! despread_block {
            ($k:expr) => {{
                let b = match block($k) {
                    Ok(b) => b,
                    Err(BlockEnd::NeedMore) => return DecodeOutcome::NeedBits,
                    Err(BlockEnd::Truncated) => {
                        return DecodeOutcome::Fail {
                            err: WazaBeeError::Truncated,
                            distances,
                        }
                    }
                };
                let (sym, errs) = self.despread_raw(b);
                distances.push(errs);
                if let Some(max) = self.max_despread_distance {
                    if errs > max {
                        return DecodeOutcome::Fail {
                            err: WazaBeeError::DespreadDistanceExceeded {
                                distance: errs,
                                max,
                            },
                            distances,
                        };
                    }
                }
                (sym, errs)
            }};
        }
        // Skip remaining preamble symbols, then expect the SFD pair (7, A).
        let mut k = 0usize;
        let mut chip_errors = 0usize;
        loop {
            let (sym, errs) = despread_block!(k);
            k += 1;
            if sym == 0 {
                if k > MAX_PREAMBLE_SYMBOLS {
                    return DecodeOutcome::Fail {
                        err: WazaBeeError::PreambleOverrun,
                        distances,
                    };
                }
                chip_errors += errs;
                continue;
            }
            if sym != 0x7 {
                return DecodeOutcome::Fail {
                    err: WazaBeeError::SyncFalsePositive,
                    distances,
                };
            }
            chip_errors += errs;
            break;
        }
        let (sfd_hi, errs) = despread_block!(k);
        k += 1;
        if sfd_hi != 0xA {
            return DecodeOutcome::Fail {
                err: WazaBeeError::SyncFalsePositive,
                distances,
            };
        }
        chip_errors += errs;
        // PHR: frame length. Lengths ≥ 128 are reserved — masking them to a
        // short frame would silently misparse the PSDU, so reject instead.
        let (len_lo, e1) = despread_block!(k);
        let (len_hi, e2) = despread_block!(k + 1);
        k += 2;
        chip_errors += e1 + e2;
        let raw_len = usize::from((len_hi << 4) | len_lo);
        if raw_len > 0x7F {
            return DecodeOutcome::Fail {
                err: WazaBeeError::PhrReserved {
                    value: raw_len as u8,
                },
                distances,
            };
        }
        let psdu_len = raw_len;
        let mut symbols = Vec::with_capacity(psdu_len * 2);
        for j in 0..psdu_len * 2 {
            let (sym, errs) = despread_block!(k + j);
            symbols.push(sym);
            chip_errors += errs;
        }
        DecodeOutcome::Frame {
            psdu: wazabee_dot154::dsss::symbols_to_bytes(&symbols),
            chip_errors,
            used_bits: (k + psdu_len * 2) * 32,
            distances,
        }
    }

    /// Attempts to receive one 802.15.4 frame from a capture buffer.
    ///
    /// A one-shot wrapper over [`crate::stream::StreamingRx`]: the whole
    /// buffer is pushed as a single chunk and flushed, and the wrapper
    /// returns the first delivered frame — so a false-positive sync hit or a
    /// corrupted preamble early in the window no longer swallows a genuine
    /// frame later in the same capture. With no frame recovered, the first
    /// typed failure is returned; with no correlator hit at all, `NoSync`.
    ///
    /// Every attempt is recorded by the flight recorder (when one is
    /// installed — see `wazabee-flightrec`) with its attempt index, sync
    /// quality, CFO estimate, per-symbol despread distances, and the typed
    /// failure reason or the delivered frame.
    ///
    /// # Errors
    ///
    /// [`WazaBeeError::NoSync`] when the preamble pattern is absent,
    /// [`WazaBeeError::SyncFalsePositive`] when a correlator match is not
    /// followed by an SFD, [`WazaBeeError::PreambleOverrun`] when too many
    /// zero-symbols follow the sync, [`WazaBeeError::PhrReserved`] when the
    /// PHR announces a reserved length, [`WazaBeeError::DespreadDistanceExceeded`]
    /// when a configured despreading budget is blown, and
    /// [`WazaBeeError::Truncated`] when the capture ends mid-frame.
    pub fn try_receive(&self, samples: &[wazabee_dsp::Iq]) -> Result<ReceivedPpdu, WazaBeeError> {
        let _t = wazabee_telemetry::scope!("wazabee.rx.receive_ns");
        let mut stream = self.stream();
        let mut results = stream.push(samples);
        results.extend(stream.finish());
        let mut first_err: Option<WazaBeeError> = None;
        for r in results {
            match r {
                Ok(frame) => return Ok(frame),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => {
                // Not one correlator hit in the whole window.
                wazabee_telemetry::counter!("wazabee.rx.sync.miss").inc();
                wazabee_telemetry::counter!("wazabee.rx.fail.no_sync").inc();
                let mut tr = wazabee_flightrec::begin("wazabee.rx");
                if tr.active() {
                    tr.tap_iq(samples, self.radio.sample_rate(), None);
                    if let Some(cfo) = estimate_cfo_hz(samples, self.radio.sample_rate()) {
                        tr.cfo_hz(cfo);
                    }
                }
                tr.fail(RxFailure::NoSync);
                Err(WazaBeeError::NoSync)
            }
        }
    }

    /// Like [`WazaBeeRx::try_receive`] but collapsing all errors to `None`.
    pub fn receive(&self, samples: &[wazabee_dsp::Iq]) -> Option<ReceivedPpdu> {
        self.try_receive(samples).ok()
    }
}

/// How one decode attempt (a sync match plus the bits that followed) ended —
/// the pure-decode result the streaming engine commits or holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DecodeOutcome {
    /// The attempt parsed a complete frame, consuming `used_bits` stream
    /// bits after the sync pattern.
    Frame {
        /// The recovered PSDU.
        psdu: Vec<u8>,
        /// Chip-domain errors accumulated across all despread decisions.
        chip_errors: usize,
        /// Bits consumed after the sync pattern (a whole number of blocks).
        used_bits: usize,
        /// Per-symbol despread Hamming distances, in decode order.
        distances: Vec<usize>,
    },
    /// A pipeline stage killed the attempt.
    Fail {
        /// The typed failure.
        err: WazaBeeError,
        /// Distances of the decisions made before the attempt died.
        distances: Vec<usize>,
    },
    /// The stream ended mid-attempt and more chunks may still arrive.
    NeedBits,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_ble::{BleModem, BlePhy};
    use wazabee_dot154::fcs::append_fcs;
    use wazabee_dot154::{Dot154Modem, MacFrame, Ppdu};
    use wazabee_dsp::AwgnSource;
    use wazabee_esb::EsbModem;

    fn ble_rx() -> WazaBeeRx<BleModem> {
        WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap()
    }

    fn ppdu(payload: &[u8]) -> Ppdu {
        Ppdu::new(append_fcs(payload)).unwrap()
    }

    #[test]
    fn sync_pattern_is_32_bits() {
        assert_eq!(access_address_pattern().len(), 32);
        // The register value round-trips through the bit pattern.
        let v = access_address_value();
        let bits: Vec<u8> = (0..32).map(|k| ((v >> k) & 1) as u8).collect();
        assert_eq!(bits, access_address_pattern());
    }

    #[test]
    fn receives_genuine_oqpsk_transmission() {
        let frame = MacFrame::data(0x1234, 0x0063, 0x0042, 9, vec![0x2A]);
        let p = Ppdu::new(frame.to_psdu()).unwrap();
        let air = Dot154Modem::new(8).transmit(&p);
        let rx = ble_rx().receive(&air).unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
        assert_eq!(MacFrame::from_psdu(&rx.psdu), Some(frame));
    }

    #[test]
    fn receives_under_noise() {
        let p = ppdu(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut air = Dot154Modem::new(8).transmit(&p);
        AwgnSource::from_snr_db(11, 12.0, 1.0).add_to(&mut air);
        let rx = ble_rx().receive(&air).unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
    }

    #[test]
    fn esb_radio_receives_too() {
        let p = ppdu(&[0x10, 0x20, 0x30]);
        let air = Dot154Modem::new(8).transmit(&p);
        let rx = WazaBeeRx::new(EsbModem::new(8))
            .unwrap()
            .receive(&air)
            .unwrap();
        assert_eq!(rx.psdu, p.psdu());
    }

    #[test]
    fn waveform_table_also_decodes() {
        let p = ppdu(&[6, 6, 6]);
        let air = Dot154Modem::new(8).transmit(&p);
        let rx = ble_rx()
            .with_table(DespreadTable::Waveform)
            .receive(&air)
            .unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert_eq!(rx.chip_errors, 0, "waveform table should be exact here");
    }

    #[test]
    fn loopback_with_wazabee_tx() {
        // BLE chip → BLE chip, both diverted: full cross-technology channel.
        let tx = crate::WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
        let p = ppdu(&[0xAA, 0xBB, 0xCC, 0xDD]);
        let rx = ble_rx().receive(&tx.transmit(&p)).unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
    }

    #[test]
    fn no_sync_in_noise() {
        let mut noise = vec![wazabee_dsp::Iq::ZERO; 40_000];
        AwgnSource::new(13, 0.7).add_to(&mut noise);
        assert_eq!(ble_rx().try_receive(&noise), Err(WazaBeeError::NoSync));
    }

    #[test]
    fn overlong_preamble_flagged_then_recovered() {
        // An attacker-lengthened preamble (one extra `0000` symbol, so 8
        // whole symbols can follow the earliest sync match) blows the
        // preamble budget on the first attempt — but the sync pattern
        // repeats through the preamble, and re-arming one bit past the
        // failed match walks forward until few enough symbols remain.
        use wazabee_dot154::msk::frame_chips_to_msk;
        let p = ppdu(&[3, 2, 1]);
        let mut chips: Vec<u8> = pn_sequence(0).to_vec();
        chips.extend(p.to_chips());
        let mut bits: Vec<u8> = (0..crate::tx::TX_WARMUP_BITS)
            .map(|k| (k % 2) as u8)
            .collect();
        bits.extend(frame_chips_to_msk(&chips, 0));
        let air = BleModem::new(BlePhy::Le2M, 8).transmit_raw(&bits);

        let rx = ble_rx();
        let mut stream = rx.stream();
        let mut results = stream.push(&air);
        results.extend(stream.finish());
        assert_eq!(
            results.first(),
            Some(&Err(WazaBeeError::PreambleOverrun)),
            "first attempt must report the non-standard preamble"
        );
        let frame = results
            .iter()
            .find_map(|r| r.as_ref().ok())
            .expect("resync must eventually recover the frame");
        assert_eq!(frame.psdu, p.psdu());

        // The one-shot wrapper surfaces the recovered frame directly.
        assert_eq!(rx.try_receive(&air).unwrap().psdu, p.psdu());
    }

    #[test]
    fn reserved_phr_rejected_not_misparsed() {
        // A PHR announcing a reserved length (here 0x83 = 131 > 127) used to
        // be masked with 0x7F and decoded as a 3-byte frame — silently
        // misparsing the PSDU. It must surface as a typed failure instead.
        use wazabee_dot154::msk::frame_chips_to_msk;
        let mut chips: Vec<u8> = Vec::new();
        for _ in 0..8 {
            chips.extend(pn_sequence(0)); // preamble
        }
        chips.extend(pn_sequence(0x7)); // SFD low nibble
        chips.extend(pn_sequence(0xA)); // SFD high nibble
        chips.extend(pn_sequence(0x3)); // PHR low nibble
        chips.extend(pn_sequence(0x8)); // PHR high nibble -> 0x83 = 131
        for sym in [0x1, 0x4, 0x1, 0x5] {
            chips.extend(pn_sequence(sym)); // garbage "payload"
        }
        let mut bits: Vec<u8> = (0..crate::tx::TX_WARMUP_BITS)
            .map(|k| (k % 2) as u8)
            .collect();
        bits.extend(frame_chips_to_msk(&chips, 0));
        let air = BleModem::new(BlePhy::Le2M, 8).transmit_raw(&bits);
        assert_eq!(
            ble_rx().try_receive(&air),
            Err(WazaBeeError::PhrReserved { value: 131 })
        );
    }

    #[test]
    fn truncated_capture_reported() {
        let p = ppdu(&[7; 60]);
        let air = Dot154Modem::new(8).transmit(&p);
        let cut = air.len() / 2;
        assert_eq!(
            ble_rx().try_receive(&air[..cut]),
            Err(WazaBeeError::Truncated)
        );
    }

    #[test]
    fn le1m_radio_rejected() {
        let err = WazaBeeRx::new(BleModem::new(BlePhy::Le1M, 8)).unwrap_err();
        assert!(matches!(err, WazaBeeError::UnsupportedDataRate { .. }));
    }

    #[test]
    fn corrupted_fcs_still_delivered() {
        // The attack disables CRC/FCS filtering: corrupt frames reach the
        // attacker, flagged by fcs_ok().
        let mut psdu = append_fcs(&[1, 1, 1]);
        let n = psdu.len();
        psdu[n - 1] ^= 0x55;
        let p = Ppdu::new(psdu.clone()).unwrap();
        let air = Dot154Modem::new(8).transmit(&p);
        let rx = ble_rx().receive(&air).unwrap();
        assert_eq!(rx.psdu, psdu);
        assert!(!rx.fcs_ok());
    }
}
