//! The WazaBee transmission primitive (paper §IV-D).
//!
//! An 802.15.4 frame is spread to chips, converted to the equivalent MSK bit
//! stream, and fed raw into a 2 Mbit/s GFSK modulator. The resulting
//! waveform is close enough to O-QPSK-with-half-sine that any compliant
//! 802.15.4 receiver demodulates it.

use wazabee_ble::whitening::Whitener;
use wazabee_ble::BleChannel;
use wazabee_dot154::msk::frame_chips_to_msk;
use wazabee_dot154::Ppdu;
use wazabee_dsp::iq::Iq;

use crate::error::WazaBeeError;
use crate::radio::RawFskRadio;

/// Number of alternating warm-up bits prepended before the frame so the
/// receiver's discriminator settles before the 802.15.4 preamble.
pub const TX_WARMUP_BITS: usize = 16;

/// Encodes a PPDU into the MSK bit stream a 2 Mbit/s FSK modulator must
/// emit: warm-up bits, then one bit per chip of the spread frame.
pub fn encode_ppdu_msk(ppdu: &Ppdu) -> Vec<u8> {
    let chips = ppdu.to_chips();
    let mut bits: Vec<u8> = (0..TX_WARMUP_BITS).map(|k| (k % 2) as u8).collect();
    bits.extend(frame_chips_to_msk(&chips, 0));
    bits
}

/// Pre-de-whitens a bit stream for `channel` so that a modulator with
/// *forced* whitening still emits exactly `bits` on air — the workaround of
/// paper §IV-D, requirement 3, for chips whose whitening cannot be disabled.
///
/// Because BLE whitening is a self-inverse keystream XOR, applying it twice
/// is the identity; this function is its own inverse.
pub fn prewhiten_bits(bits: &[u8], channel: BleChannel) -> Vec<u8> {
    Whitener::new(channel).whiten_bits(bits)
}

/// The WazaBee transmission primitive bound to a diverted radio.
///
/// # Examples
///
/// ```
/// use wazabee::WazaBeeTx;
/// use wazabee_ble::{BleModem, BlePhy};
/// use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
///
/// // A BLE chip transmits a Zigbee frame that a real 802.15.4 receiver
/// // decodes with a valid FCS.
/// let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
/// let ppdu = Ppdu::new(append_fcs(&[0x41, 0x42, 0x43])).unwrap();
/// let air = tx.transmit(&ppdu);
/// let rx = Dot154Modem::new(8).receive(&air).unwrap();
/// assert_eq!(rx.psdu, ppdu.psdu());
/// assert!(rx.fcs_ok());
/// ```
#[derive(Debug, Clone)]
pub struct WazaBeeTx<R> {
    radio: R,
}

impl<R: RawFskRadio> WazaBeeTx<R> {
    /// Binds the primitive to a radio, verifying the 2 Mbit/s requirement.
    ///
    /// # Errors
    ///
    /// Returns [`WazaBeeError::UnsupportedDataRate`] when the radio does not
    /// run at 2 Msym/s (e.g. a BLE 4.x chip without LE 2M).
    pub fn new(radio: R) -> Result<Self, WazaBeeError> {
        let rate = radio.symbol_rate();
        if (rate - 2.0e6).abs() > 1.0 {
            return Err(WazaBeeError::UnsupportedDataRate { actual: rate });
        }
        Ok(WazaBeeTx { radio })
    }

    /// The underlying radio.
    pub fn radio(&self) -> &R {
        &self.radio
    }

    /// Transmits an 802.15.4 frame: encodes to MSK bits and modulates raw
    /// (whitening disabled on the chip).
    pub fn transmit(&self, ppdu: &Ppdu) -> Vec<Iq> {
        let _t = wazabee_telemetry::scope!("wazabee.tx.transmit_ns");
        wazabee_telemetry::counter!("wazabee.tx.frames").inc();
        self.radio.transmit_raw(&encode_ppdu_msk(ppdu))
    }

    /// Transmits through a chip whose whitening cannot be disabled: the bits
    /// are pre-de-whitened so the forced whitening restores them.
    ///
    /// The produced waveform is bit-identical to [`WazaBeeTx::transmit`].
    pub fn transmit_via_forced_whitening(&self, ppdu: &Ppdu, channel: BleChannel) -> Vec<Iq> {
        let _t = wazabee_telemetry::scope!("wazabee.tx.transmit_ns");
        wazabee_telemetry::counter!("wazabee.tx.frames").inc();
        wazabee_telemetry::counter!("wazabee.tx.forced_whitening").inc();
        let target = encode_ppdu_msk(ppdu);
        let staged = prewhiten_bits(&target, channel);
        // The chip's hardware whitening re-applies the same keystream.
        let on_air = Whitener::new(channel).whiten_bits(&staged);
        self.radio.transmit_raw(&on_air)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_ble::{BleModem, BlePhy};
    use wazabee_dot154::fcs::append_fcs;
    use wazabee_dot154::{Dot154Modem, MacFrame};
    use wazabee_esb::EsbModem;

    fn ppdu(payload: &[u8]) -> Ppdu {
        Ppdu::new(append_fcs(payload)).unwrap()
    }

    #[test]
    fn le1m_radio_rejected() {
        let err = WazaBeeTx::new(BleModem::new(BlePhy::Le1M, 8)).unwrap_err();
        assert!(matches!(err, WazaBeeError::UnsupportedDataRate { .. }));
    }

    #[test]
    fn ble_tx_decodes_on_msk_view_receiver() {
        let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
        let frame = MacFrame::data(0x1234, 0x0042, 0x0063, 5, vec![1, 2, 3, 4]);
        let p = Ppdu::new(frame.to_psdu()).unwrap();
        let rx = Dot154Modem::new(8).receive(&tx.transmit(&p)).unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
        assert_eq!(MacFrame::from_psdu(&rx.psdu), Some(frame));
    }

    #[test]
    fn ble_tx_decodes_on_coherent_oqpsk_receiver() {
        // The strong form of the paper's claim: the GFSK-generated waveform
        // decodes on a genuine chip-domain O-QPSK correlator, not just on
        // another discriminator.
        let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
        let p = ppdu(&[0xCA, 0xFE, 0xBA, 0xBE, 0x01, 0x02]);
        let rx = Dot154Modem::new(8)
            .receive_coherent(&tx.transmit(&p))
            .unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
    }

    #[test]
    fn esb_tx_also_works() {
        // Scenario B's substitution: the ESB 2 Mbit/s radio of an nRF51822.
        let tx = WazaBeeTx::new(EsbModem::new(8)).unwrap();
        let p = ppdu(&[9, 8, 7, 6]);
        let rx = Dot154Modem::new(8).receive(&tx.transmit(&p)).unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
    }

    #[test]
    fn forced_whitening_path_is_waveform_identical() {
        let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
        let p = ppdu(&[0x11, 0x22, 0x33]);
        let direct = tx.transmit(&p);
        for idx in [3u8, 8, 25, 39] {
            let ch = BleChannel::new(idx).unwrap();
            let via = tx.transmit_via_forced_whitening(&p, ch);
            assert_eq!(via.len(), direct.len());
            for (a, b) in via.iter().zip(&direct) {
                assert!((*a - *b).amplitude() < 1e-12);
            }
        }
    }

    #[test]
    fn prewhitening_is_involutive() {
        let bits: Vec<u8> = (0..200).map(|k| (k * 7 % 3 == 0) as u8).collect();
        let ch = BleChannel::new(8).unwrap();
        assert_eq!(prewhiten_bits(&prewhiten_bits(&bits, ch), ch), bits);
    }

    #[test]
    fn encoded_stream_length() {
        let p = ppdu(&[0u8; 10]);
        // 4+1+1+12 bytes → 36 symbols → 1152 chips → 1152 MSK bits + warm-up.
        assert_eq!(encode_ppdu_msk(&p).len(), TX_WARMUP_BITS + 1152);
    }

    #[test]
    fn max_length_frame_transmits() {
        let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
        let p = ppdu(&[0xA5; 125]);
        assert_eq!(p.psdu().len(), 127);
        let rx = Dot154Modem::new(8).receive(&tx.transmit(&p)).unwrap();
        assert_eq!(rx.psdu, p.psdu());
        assert!(rx.fcs_ok());
    }
}
