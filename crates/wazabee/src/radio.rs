//! The minimal radio interface the attack needs: raw bit transmit and raw
//! FM-discriminator output at 2 Mbit/s.
//!
//! Both the BLE LE 2M modem and the Enhanced ShockBurst 2 Mbit/s modem
//! satisfy it — which is precisely the paper's point: the attack cares only
//! about the waveform, not the protocol the chip thinks it is speaking.

use wazabee_ble::BleModem;
use wazabee_dsp::iq::Iq;
use wazabee_dsp::IqSlice;
use wazabee_esb::EsbModem;

/// Raw FSK transmit/demodulator access, as diverted by WazaBee.
pub trait RawFskRadio {
    /// Modulates arbitrary bits with no framing.
    fn transmit_raw(&self, bits: &[u8]) -> Vec<Iq>;

    /// Appends the FM-discriminator first differences of a planar window to
    /// `out` (`samples.len() − 1` values, radians/sample).
    ///
    /// This is the streaming engine's demodulation contract: hard bit `b` of
    /// sample-phase lane `o` is the sign of
    /// `sum(diffs[o + b·sps .. o + (b+1)·sps])`, which for the GFSK modems in
    /// this workspace is exactly `wazabee_ble::gfsk::demodulate_aligned` at
    /// offset `o` — the discriminator's first differences do not depend on
    /// the symbol-clock phase, only the windowing does. A radio whose
    /// demodulator is *not* discriminate-integrate-slice must override this
    /// to match, or its streamed bits would diverge from its one-shot bits.
    fn discriminate_planar_into(&self, samples: IqSlice<'_>, out: &mut Vec<f32>) {
        wazabee_dsp::simd::discriminate_planar_into(samples.i(), samples.q(), out);
    }

    /// Samples per symbol of the simulation.
    fn samples_per_symbol(&self) -> usize;

    /// The radio's symbol rate in symbols per second.
    fn symbol_rate(&self) -> f64;

    /// The simulation sample rate in samples per second.
    fn sample_rate(&self) -> f64;
}

impl RawFskRadio for BleModem {
    fn transmit_raw(&self, bits: &[u8]) -> Vec<Iq> {
        BleModem::transmit_raw(self, bits)
    }

    fn samples_per_symbol(&self) -> usize {
        self.params().samples_per_symbol
    }

    fn symbol_rate(&self) -> f64 {
        self.params().symbol_rate
    }

    fn sample_rate(&self) -> f64 {
        BleModem::sample_rate(self)
    }
}

impl RawFskRadio for EsbModem {
    fn transmit_raw(&self, bits: &[u8]) -> Vec<Iq> {
        EsbModem::transmit_raw(self, bits)
    }

    fn samples_per_symbol(&self) -> usize {
        self.params().samples_per_symbol
    }

    fn symbol_rate(&self) -> f64 {
        self.params().symbol_rate
    }

    fn sample_rate(&self) -> f64 {
        EsbModem::sample_rate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_ble::BlePhy;

    #[test]
    fn ble_le2m_satisfies_the_trait() {
        let modem = BleModem::new(BlePhy::Le2M, 8);
        let radio: &dyn RawFskRadio = &modem;
        assert_eq!(radio.symbol_rate(), 2.0e6);
        assert_eq!(radio.sample_rate(), 16.0e6);
        let iq = radio.transmit_raw(&[1, 0, 1, 1]);
        assert!(!iq.is_empty());
    }

    #[test]
    fn esb_2m_satisfies_the_trait() {
        let modem = EsbModem::new(8);
        let radio: &dyn RawFskRadio = &modem;
        assert_eq!(radio.symbol_rate(), 2.0e6);
    }

    #[test]
    fn ble_le1m_is_detectably_wrong_rate() {
        let modem = BleModem::new(BlePhy::Le1M, 8);
        assert_eq!(RawFskRadio::symbol_rate(&modem), 1.0e6);
    }
}
