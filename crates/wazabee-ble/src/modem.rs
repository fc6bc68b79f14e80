//! A complete BLE modem: packets in, IQ out — and back.
//!
//! [`BleModem`] couples the GFSK waveform layer with packet assembly,
//! whitening and CRC, exposing both the *legitimate* interface (transmit and
//! receive BLE packets) and the *raw* interface (arbitrary bits, arbitrary
//! sync pattern) that WazaBee's primitives are built on.

use wazabee_dsp::iq::Iq;

use crate::channel::{BleChannel, BlePhy};
use crate::gfsk::{modulate, GfskParams, GfskReceiver};
use crate::packet::BlePacket;

/// A BLE physical-layer modem.
///
/// # Examples
///
/// ```
/// use wazabee_ble::{BleChannel, BleModem, BlePacket, BlePhy};
///
/// let modem = BleModem::new(BlePhy::Le2M, 8);
/// let ch = BleChannel::new(8).unwrap();
/// let pkt = BlePacket::advertising(vec![0x02, 0x03, 0xAA, 0xBB, 0xCC]);
/// let iq = modem.transmit(&pkt, ch, true);
/// let rx = modem.receive(&iq, pkt.access_address(), ch, true).unwrap();
/// assert_eq!(rx.pdu(), pkt.pdu());
/// assert!(rx.crc_ok());
/// ```
#[derive(Debug, Clone)]
pub struct BleModem {
    phy: BlePhy,
    params: GfskParams,
}

/// Longest body (PDU + CRC) a receiver will capture, in bits:
/// 2-byte header + 255-byte payload + 3-byte CRC.
pub const MAX_BODY_BITS: usize = (2 + 255 + 3) * 8;

impl BleModem {
    /// Creates a spec-compliant modem (BT = 0.5, h = 0.5) for `phy` at the
    /// given oversampling factor.
    pub fn new(phy: BlePhy, samples_per_symbol: usize) -> Self {
        BleModem {
            phy,
            params: GfskParams::ble(phy, samples_per_symbol),
        }
    }

    /// Creates a modem with custom GFSK parameters (used by ablation benches
    /// to sweep the modulation index and BT product).
    pub fn with_params(phy: BlePhy, params: GfskParams) -> Self {
        BleModem { phy, params }
    }

    /// The modem's PHY mode.
    pub fn phy(&self) -> BlePhy {
        self.phy
    }

    /// The modem's waveform parameters.
    pub fn params(&self) -> &GfskParams {
        &self.params
    }

    /// Simulation sample rate in samples per second.
    pub fn sample_rate(&self) -> f64 {
        self.params.sample_rate()
    }

    /// Modulates a full packet (preamble · AA · whitened PDU+CRC) to IQ.
    pub fn transmit(&self, packet: &BlePacket, channel: BleChannel, whitening: bool) -> Vec<Iq> {
        wazabee_telemetry::counter!("ble.tx.packets").inc();
        if whitening {
            wazabee_telemetry::counter!("ble.tx.whitening.on").inc();
        } else {
            wazabee_telemetry::counter!("ble.tx.whitening.off").inc();
        }
        let bits = packet.to_air_bits(channel, self.phy, whitening);
        modulate(&self.params, &bits)
    }

    /// Modulates raw bits with no framing at all — the diverted transmit path
    /// of WazaBee (the caller is responsible for every bit on air).
    pub fn transmit_raw(&self, bits: &[u8]) -> Vec<Iq> {
        modulate(&self.params, bits)
    }

    /// Receives a packet: correlates for `access_address`, captures the body,
    /// de-whitens (if enabled) and parses header, payload and CRC.
    ///
    /// Mirrors a real controller in permissive mode: a CRC failure is
    /// reported in the returned packet, not hidden.
    pub fn receive(
        &self,
        samples: &[Iq],
        access_address: u32,
        channel: BleChannel,
        whitening: bool,
    ) -> Option<BlePacket> {
        let mut tr = wazabee_flightrec::begin("ble.rx");
        if tr.active() {
            tr.tap_iq(samples, self.sample_rate(), None);
        }
        let sync = BlePacket::access_address_bits(access_address);
        let rx = GfskReceiver::new(self.params);
        let Some(capture) = rx.capture(samples, &sync, 1, MAX_BODY_BITS) else {
            wazabee_telemetry::counter!("ble.rx.fail.no_sync").inc();
            tr.fail(wazabee_flightrec::RxFailure::NoSync);
            return None;
        };
        tr.sync(
            capture.sync_errors,
            capture.sync_bit_index,
            capture.sample_offset,
            sync.len(),
        );
        let packet = BlePacket::from_body_bits(access_address, &capture.bits, channel, whitening);
        match &packet {
            Some(p) => {
                let ok = p.crc_ok();
                if ok {
                    wazabee_telemetry::counter!("ble.crc.ok").inc();
                } else {
                    wazabee_telemetry::counter!("ble.crc.fail").inc();
                    wazabee_telemetry::counter!("ble.rx.fail.crc").inc();
                }
                tr.deliver(p.pdu(), ok, wazabee_flightrec::FrameKind::Ble);
            }
            None => {
                wazabee_telemetry::counter!("ble.rx.fail.truncated").inc();
                tr.fail(wazabee_flightrec::RxFailure::TruncatedFrame);
            }
        }
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use wazabee_dsp::AwgnSource;

    fn modem() -> BleModem {
        BleModem::new(BlePhy::Le2M, 8)
    }

    fn ch(i: u8) -> BleChannel {
        BleChannel::new(i).unwrap()
    }

    fn random_pdu(seed: u64, payload: usize) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pdu = vec![0x02, payload as u8];
        pdu.extend((0..payload).map(|_| rng.gen::<u8>()));
        pdu
    }

    #[test]
    fn packet_loopback_clean_channel() {
        let m = modem();
        for (seed, payload) in [(1u64, 0usize), (2, 8), (3, 37), (4, 100)] {
            let pkt = BlePacket::advertising(random_pdu(seed, payload));
            let iq = m.transmit(&pkt, ch(8), true);
            let rx = m.receive(&iq, pkt.access_address(), ch(8), true).unwrap();
            assert_eq!(rx.pdu(), pkt.pdu());
            assert!(rx.crc_ok(), "payload {payload}");
        }
    }

    #[test]
    fn packet_loopback_le1m() {
        let m = BleModem::new(BlePhy::Le1M, 8);
        let pkt = BlePacket::advertising(random_pdu(5, 20));
        let iq = m.transmit(&pkt, ch(37), true);
        let rx = m.receive(&iq, pkt.access_address(), ch(37), true).unwrap();
        assert!(rx.crc_ok());
        assert_eq!(rx.pdu(), pkt.pdu());
    }

    #[test]
    fn packet_loopback_under_noise() {
        let m = modem();
        let pkt = BlePacket::advertising(random_pdu(6, 30));
        let mut iq = m.transmit(&pkt, ch(3), true);
        AwgnSource::from_snr_db(7, 18.0, 1.0).add_to(&mut iq);
        let rx = m.receive(&iq, pkt.access_address(), ch(3), true).unwrap();
        assert_eq!(rx.pdu(), pkt.pdu());
        assert!(rx.crc_ok());
    }

    #[test]
    fn receive_flags_crc_on_wrong_whitening_channel() {
        let m = modem();
        let pkt = BlePacket::advertising(random_pdu(8, 12));
        let iq = m.transmit(&pkt, ch(8), true);
        // De-whitened for the wrong channel → CRC must fail if it parses.
        if let Some(rx) = m.receive(&iq, pkt.access_address(), ch(9), true) {
            assert!(!rx.crc_ok());
        }
    }

    #[test]
    fn no_packet_in_pure_noise() {
        let m = modem();
        let mut iq = vec![wazabee_dsp::Iq::ZERO; 4000];
        AwgnSource::new(9, 0.7).add_to(&mut iq);
        assert!(m.receive(&iq, 0x8E89_BED6, ch(0), true).is_none());
    }

    #[test]
    fn raw_paths_compose() {
        // transmit_raw + a raw GFSK capture round-trip arbitrary bits after
        // an arbitrary sync pattern — the exact plumbing WazaBee builds on.
        let m = modem();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sync: Vec<u8> = (0..32).map(|_| rng.gen_range(0..=1)).collect();
        let payload: Vec<u8> = (0..256).map(|_| rng.gen_range(0..=1)).collect();
        let mut bits = vec![0, 1, 0, 1];
        bits.extend_from_slice(&sync);
        bits.extend_from_slice(&payload);
        bits.push(0);
        let iq = m.transmit_raw(&bits);
        let cap = GfskReceiver::new(*m.params())
            .capture(&iq, &sync, 2, payload.len())
            .unwrap();
        assert_eq!(cap.bits, payload);
    }

    #[test]
    fn sample_rate_reflects_phy() {
        assert_eq!(BleModem::new(BlePhy::Le1M, 8).sample_rate(), 8.0e6);
        assert_eq!(BleModem::new(BlePhy::Le2M, 8).sample_rate(), 16.0e6);
    }
}
