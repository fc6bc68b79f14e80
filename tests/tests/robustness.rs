//! Robustness fuzzing: no receiver in the workspace may panic on arbitrary
//! inputs — garbage IQ, garbage bits, garbage bytes, garbage sample and
//! capture files.

use proptest::prelude::*;
use wazabee::{WazaBeeRx, WazaBeeTx};
use wazabee_ble::{BleChannel, BleModem, BlePacket, BlePhy};
use wazabee_dot154::{Dot154Modem, MacFrame, Ppdu};
use wazabee_dsp::io::SampleFormat;
use wazabee_dsp::{Iq, IqBuf};
use wazabee_esb::{EsbModem, EsbPacket};
use wazabee_ids::{ChannelMonitor, MonitorConfig};

fn garbage_iq(seed: u64, n: usize) -> Vec<Iq> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| Iq::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn receivers_survive_garbage_iq(seed in any::<u64>(), n in 0usize..30_000) {
        let buf = garbage_iq(seed, n);
        let _ = Dot154Modem::new(8).receive(&buf);
        let _ = BleModem::new(BlePhy::Le2M, 8).receive(&buf, 0x8E89_BED6, BleChannel::new(8).unwrap(), true);
        let _ = EsbModem::new(8).receive(&buf, [0xE7; 5]);
        let _ = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap().receive(&buf);
    }

    #[test]
    fn ids_survives_garbage_iq(seed in any::<u64>(), n in 0usize..30_000) {
        let buf = garbage_iq(seed, n);
        let mut monitor = ChannelMonitor::new(2420, 8, MonitorConfig::default());
        let _ = monitor.observe(&buf);
    }

    #[test]
    fn frame_parsers_survive_garbage_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = MacFrame::from_psdu(&bytes);
        let _ = MacFrame::from_bytes(&bytes);
        let _ = EsbPacket::from_air_bits(&bytes.iter().map(|b| b & 1).collect::<Vec<_>>(), 5);
        let _ = wazabee_ble::AuxAdvInd::from_bytes(&bytes);
        let _ = wazabee_ble::AdvExtInd::from_bytes(&bytes);
        let _ = wazabee_ble::AdvPdu::from_bytes(&bytes);
        let _ = wazabee_ble::ConnectionParameters::from_bytes(&bytes);
        let _ = wazabee_ble::DataPdu::from_bytes(&bytes);
        let _ = wazabee_zigbee::XbeePayload::from_bytes(&bytes);
        let _ = wazabee_zigbee::parse_stream(&bytes);
        let _ = wazabee::exfil::Chunk::from_bytes(&bytes);
        for format in [SampleFormat::Cf32, SampleFormat::U8Offset128] {
            // A buffer already holding samples: a rejected decode must leave
            // it untouched, an accepted one appends exactly len / unit.
            let mut out = IqBuf::new();
            out.push(0.5, -0.5);
            let unit = format.bytes_per_sample();
            match format.decode(&bytes, &mut out) {
                Ok(n) => {
                    prop_assert_eq!(n, bytes.len() / unit);
                    prop_assert_eq!(bytes.len() % unit, 0);
                    prop_assert_eq!(out.len(), 1 + n);
                }
                Err(e) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    prop_assert_eq!(out.len(), 1);
                }
            }
        }
    }

    #[test]
    fn pcap_reader_survives_garbage_files(
        body in proptest::collection::vec(any::<u8>(), 0..200),
        with_header in any::<bool>(),
        case in any::<u32>(),
    ) {
        let mut raw = Vec::new();
        if with_header {
            // A well-formed 24-byte global header; everything after it is
            // garbage packet records.
            raw.extend_from_slice(&wazabee_flightrec::pcap::PCAP_MAGIC_US.to_le_bytes());
            raw.extend_from_slice(&[2, 0, 4, 0]);
            raw.extend_from_slice(&[0; 8]);
            raw.extend_from_slice(&65_535u32.to_le_bytes());
            raw.extend_from_slice(&195u32.to_le_bytes());
        }
        raw.extend_from_slice(&body);
        let path = std::env::temp_dir()
            .join(format!("wzb-robust-{}-{case}.pcap", std::process::id()));
        std::fs::write(&path, &raw).unwrap();
        let got = wazabee_flightrec::pcap::read_pcap(&path);
        std::fs::remove_file(&path).ok();
        match got {
            Ok(file) => {
                prop_assert!(with_header || raw.len() >= 24);
                let payload: usize = file.packets.iter().map(|p| 16 + p.bytes.len()).sum();
                prop_assert_eq!(24 + payload, raw.len());
            }
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
        }
    }

    #[test]
    fn ble_packet_parser_survives_garbage_bits(bits in proptest::collection::vec(0u8..=1, 0..600)) {
        let _ = BlePacket::from_air_bits(&bits, BleChannel::new(0).unwrap(), BlePhy::Le2M, true);
        let _ = BlePacket::from_body_bits(0xDEAD_BEEF, &bits, BleChannel::new(5).unwrap(), true);
    }

    #[test]
    fn truncated_waveforms_never_panic(cut in 0usize..100) {
        // A legitimate frame cut at an arbitrary percentage of its length.
        let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
        let ppdu = Ppdu::new(wazabee_dot154::fcs::append_fcs(&[1, 2, 3, 4])).unwrap();
        let air = tx.transmit(&ppdu);
        let end = air.len() * cut / 100;
        let _ = Dot154Modem::new(8).receive(&air[..end]);
        let _ = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap().receive(&air[..end]);
    }
}
