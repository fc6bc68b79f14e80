//! The ESB radio: 2 Mbit/s GFSK, no whitening, MSB-first bits.
//!
//! The nRF51822's ESB mode shares its GFSK waveform parameters with BLE's
//! LE 2M PHY (2 Mbit/s, h ≈ 0.5), which is exactly why the paper's Scenario B
//! can substitute it when LE 2M is unavailable — at some cost in receive
//! quality, which this model reproduces through a shorter sync correlator.

use wazabee_ble::channel::BlePhy;
use wazabee_ble::gfsk::{modulate, GfskParams, GfskReceiver};
use wazabee_dsp::iq::Iq;

use crate::packet::EsbPacket;

/// An Enhanced ShockBurst modem at 2 Mbit/s.
///
/// # Examples
///
/// ```
/// use wazabee_esb::{EsbModem, EsbPacket};
/// let modem = EsbModem::new(8);
/// let pkt = EsbPacket::new([0xC2, 0xC2, 0xC2, 0xC2, 0xC2], vec![7, 7]).unwrap();
/// let air = modem.transmit(&pkt);
/// let rx = modem.receive(&air, pkt.address()).unwrap();
/// assert_eq!(rx.payload(), pkt.payload());
/// ```
#[derive(Debug, Clone)]
pub struct EsbModem {
    params: GfskParams,
}

/// Longest capture after the address: PCF + max payload + CRC.
const MAX_TAIL_BITS: usize = 9 + 32 * 8 + 16;

impl EsbModem {
    /// Creates a 2 Mbit/s ESB modem at the given oversampling factor.
    pub fn new(samples_per_symbol: usize) -> Self {
        EsbModem {
            params: GfskParams::ble(BlePhy::Le2M, samples_per_symbol),
        }
    }

    /// The underlying GFSK parameters.
    pub fn params(&self) -> &GfskParams {
        &self.params
    }

    /// Simulation sample rate.
    pub fn sample_rate(&self) -> f64 {
        self.params.sample_rate()
    }

    /// Modulates a packet to IQ.
    pub fn transmit(&self, packet: &EsbPacket) -> Vec<Iq> {
        modulate(&self.params, &packet.to_air_bits())
    }

    /// Modulates raw bits — the diverted path WazaBee uses on the nRF51822.
    pub fn transmit_raw(&self, bits: &[u8]) -> Vec<Iq> {
        modulate(&self.params, bits)
    }

    /// Receives a packet addressed to `address` (5-byte address correlator,
    /// 1 bit of tolerance, CRC enforced — legitimate ESB behaviour).
    pub fn receive(&self, samples: &[Iq], address: [u8; 5]) -> Option<EsbPacket> {
        let sync = EsbPacket::address_bits(&address);
        let rx = GfskReceiver::new(self.params);
        let capture = rx.capture(samples, &sync, 1, MAX_TAIL_BITS)?;
        // Rebuild the full on-air stream the parser expects: preamble bits
        // are irrelevant to parsing, so substitute the nominal ones.
        let mut bits = wazabee_dsp::bits::bytes_to_bits_msb(&[if address[0] & 0x80 != 0 {
            0xAA
        } else {
            0x55
        }]);
        bits.extend_from_slice(&sync);
        bits.extend_from_slice(&capture.bits);
        EsbPacket::from_air_bits(&bits, 5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_dsp::AwgnSource;

    const ADDR: [u8; 5] = [0xD3, 0x91, 0x55, 0xAA, 0x0F];

    #[test]
    fn loopback_clean() {
        let m = EsbModem::new(8);
        for len in [0usize, 1, 16, 32] {
            let pkt = EsbPacket::new(ADDR, (0..len as u8).collect()).unwrap();
            let rx = m.receive(&m.transmit(&pkt), ADDR).unwrap();
            assert_eq!(rx, pkt, "payload {len}");
        }
    }

    #[test]
    fn loopback_under_noise() {
        let m = EsbModem::new(8);
        let pkt = EsbPacket::new(ADDR, vec![0x5A; 20]).unwrap();
        let mut air = m.transmit(&pkt);
        AwgnSource::from_snr_db(1, 18.0, 1.0).add_to(&mut air);
        let rx = m.receive(&air, ADDR).unwrap();
        assert_eq!(rx, pkt);
    }

    #[test]
    fn wrong_address_not_received() {
        let m = EsbModem::new(8);
        let pkt = EsbPacket::new(ADDR, vec![1, 2, 3]).unwrap();
        let air = m.transmit(&pkt);
        let other = [0x11, 0x22, 0x33, 0x44, 0x55];
        assert!(m.receive(&air, other).is_none());
    }

    #[test]
    fn raw_paths_compose() {
        let m = EsbModem::new(8);
        let sync = vec![1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1];
        let payload: Vec<u8> = (0..64).map(|k| (k % 3 == 0) as u8).collect();
        let mut bits = vec![0, 1, 0, 1];
        bits.extend_from_slice(&sync);
        bits.extend_from_slice(&payload);
        bits.push(0);
        let cap = GfskReceiver::new(*m.params())
            .capture(&m.transmit_raw(&bits), &sync, 0, payload.len())
            .unwrap();
        assert_eq!(cap.bits, payload);
    }

    #[test]
    fn planar_demod_recovers_esb_air_bits() {
        // The planar SIMD demodulator must slice an ESB waveform exactly as
        // the f64 path does — this is the contract that lets the streaming
        // engine's shared-diff lanes serve the ESB radio too.
        let m = EsbModem::new(8);
        let pkt = EsbPacket::new(ADDR, vec![0xC3; 12]).unwrap();
        let mut air = m.transmit(&pkt);
        AwgnSource::from_snr_db(2, 20.0, 1.0).add_to(&mut air);
        let planar = wazabee_dsp::IqBuf::from_interleaved(&air);
        for offset in 0..m.params().samples_per_symbol {
            let f64_bits = wazabee_ble::gfsk::demodulate_aligned(m.params(), &air, offset);
            let f32_bits =
                wazabee_ble::demodulate_aligned_planar(m.params(), planar.as_slice(), offset);
            assert_eq!(f32_bits, f64_bits, "offset {offset}");
        }
    }

    #[test]
    fn shares_le2m_waveform_parameters() {
        // The premise of Scenario B: ESB 2M and LE 2M are the same waveform.
        let esb = EsbModem::new(8);
        let ble = GfskParams::ble(BlePhy::Le2M, 8);
        assert_eq!(esb.params(), &ble);
        assert_eq!(esb.sample_rate(), 16.0e6);
    }
}
