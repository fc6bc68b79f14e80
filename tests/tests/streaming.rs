//! Streaming reception: the re-arming receiver must deliver every frame in a
//! multi-frame capture, survive a decoy sync hit without abandoning the rest
//! of the buffer, and produce the exact same result sequence no matter how
//! the sample stream is chopped into chunks.

use proptest::prelude::*;
use wazabee::{WazaBeeError, WazaBeeRx};
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::msk::frame_chips_to_msk;
use wazabee_dot154::pn::pn_sequence;
use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu, ReceivedPpdu};
use wazabee_dsp::Iq;
use wazabee_radio::combine_at;

const SPS: usize = 8;

fn sniffer() -> WazaBeeRx<BleModem> {
    WazaBeeRx::new(BleModem::new(BlePhy::Le2M, SPS)).expect("LE 2M is the attack PHY")
}

/// Warmup bits plus the sync pattern followed by a non-SFD symbol: the
/// correlator fires, the SFD check rejects the attempt. This is the hit
/// that used to swallow everything behind it.
fn decoy_burst() -> Vec<Iq> {
    let ble = BleModem::new(BlePhy::Le2M, SPS);
    let mut bits: Vec<u8> = (0..wazabee::tx::TX_WARMUP_BITS)
        .map(|k| (k % 2) as u8)
        .collect();
    let mut chips = pn_sequence(0).to_vec();
    chips.extend(pn_sequence(5));
    bits.extend(frame_chips_to_msk(&chips, 0));
    ble.transmit_raw(&bits)
}

fn stream_in_chunks(
    rx: &WazaBeeRx<BleModem>,
    buf: &[Iq],
    chunk: usize,
) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
    let mut stream = rx.stream();
    let mut results = Vec::new();
    for piece in buf.chunks(chunk) {
        results.extend(stream.push(piece));
    }
    results.extend(stream.finish());
    results
}

#[test]
fn two_back_to_back_frames_with_random_gap_both_decode() {
    use rand::{Rng, SeedableRng};
    let zigbee = Dot154Modem::new(SPS);
    let rx = sniffer();
    let a = Ppdu::new(append_fcs(&[0x0A, 1, 2, 3])).unwrap();
    let b = Ppdu::new(append_fcs(&[0x0B, 9, 8, 7, 6])).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
    for _ in 0..4 {
        let mut air = zigbee.transmit(&a);
        let gap = air.len() + rng.gen_range(64usize..2048);
        combine_at(&mut air, &zigbee.transmit(&b), gap);
        let frames: Vec<_> = stream_in_chunks(&rx, &air, 4096)
            .into_iter()
            .filter_map(Result::ok)
            .collect();
        assert_eq!(frames.len(), 2, "lost a frame at gap {gap}");
        assert_eq!(frames[0].psdu, a.psdu());
        assert_eq!(frames[1].psdu, b.psdu());
        assert!(frames.iter().all(ReceivedPpdu::fcs_ok));
    }
}

#[test]
fn decoy_sync_hit_no_longer_swallows_the_genuine_frame() {
    let zigbee = Dot154Modem::new(SPS);
    let rx = sniffer();
    let genuine = Ppdu::new(append_fcs(&[0xCA, 0xFE, 0x57, 0xEA])).unwrap();
    let mut capture = decoy_burst();
    capture.extend(vec![Iq::ZERO; 800]);
    capture.extend(zigbee.transmit(&genuine));

    let results = stream_in_chunks(&rx, &capture, 4096);
    assert!(
        matches!(results.first(), Some(Err(_))),
        "the decoy should commit a typed failure first, got {:?}",
        results.first()
    );
    let frame = results
        .iter()
        .find_map(|r| r.as_ref().ok())
        .expect("genuine frame behind the decoy was swallowed");
    assert_eq!(frame.psdu, genuine.psdu());
    assert!(frame.fcs_ok());

    // The one-shot wrapper rides the same engine, so it recovers too.
    let one_shot = rx.try_receive(&capture).expect("try_receive gave up");
    assert_eq!(one_shot.psdu, genuine.psdu());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A sync hit that fails right as the retained buffers cross the trim
    /// low-water mark must still re-arm exactly one bit past the failure:
    /// the lead-in is sized so the stream trims its front mid-capture under
    /// small chunk sizes (and not at all under the whole-buffer reference),
    /// yet the committed sequence — typed failure first, then the genuine
    /// frame behind it — is byte-identical either way.
    #[test]
    fn failed_hit_straddling_trim_boundary_rearms(
        lead_in_bits in 4_000usize..6_000,
        gap in 64usize..800,
        chunk in 1usize..9_000,
    ) {
        let zigbee = Dot154Modem::new(SPS);
        let rx = sniffer();
        let genuine = Ppdu::new(append_fcs(&[0x7B, 0x00, 0x55])).unwrap();
        let mut capture = vec![Iq::ZERO; lead_in_bits * SPS];
        capture.extend(decoy_burst());
        capture.extend(vec![Iq::ZERO; gap]);
        capture.extend(zigbee.transmit(&genuine));

        let reference = stream_in_chunks(&rx, &capture, capture.len());
        let chunked = stream_in_chunks(&rx, &capture, chunk);
        prop_assert_eq!(&chunked, &reference, "chunk size {} diverged across the trim boundary", chunk);
        prop_assert!(
            matches!(chunked.first(), Some(Err(_))),
            "the straddling hit must commit a typed failure first, got {:?}",
            chunked.first()
        );
        let frames: Vec<_> = chunked.iter().filter_map(|r| r.as_ref().ok()).collect();
        prop_assert_eq!(frames.len(), 1, "genuine frame behind the trim boundary was lost");
        prop_assert_eq!(&frames[0].psdu, genuine.psdu());
        prop_assert!(frames[0].fcs_ok());
    }

    /// The committed result sequence is a function of the sample stream, not
    /// of how the front-end chops it: any chunk size must reproduce the
    /// whole-buffer-at-once sequence exactly, failures included.
    #[test]
    fn chunk_size_does_not_change_the_result_sequence(chunk in 1usize..60_000) {
        let zigbee = Dot154Modem::new(SPS);
        let rx = sniffer();
        let mut capture = decoy_burst();
        for k in 0..2u8 {
            capture.extend(vec![Iq::ZERO; 700 + 300 * usize::from(k)]);
            let ppdu = Ppdu::new(append_fcs(&[0x10 | k, 0xAB, 0xCD])).unwrap();
            capture.extend(zigbee.transmit(&ppdu));
        }
        let chunk = chunk.min(capture.len());
        let reference = stream_in_chunks(&rx, &capture, capture.len());
        let chunked = stream_in_chunks(&rx, &capture, chunk);
        prop_assert_eq!(&chunked, &reference, "chunk size {} diverged", chunk);
    }
}

/// A burst of non-finite cf32 samples (NaN, ±Inf) between two frames —
/// what a glitching SDR front-end or a corrupt capture can put on the wire —
/// must not poison the stream: it decodes to planar as-is, both frames come
/// out with their own payloads, and the engine keeps committing attempts
/// after the burst.
#[test]
fn non_finite_burst_between_frames_does_not_poison_the_stream() {
    let zigbee = Dot154Modem::new(SPS);
    let rx = sniffer();
    let a = Ppdu::new(append_fcs(&[0xA1, 0x0F, 0x1A])).unwrap();
    let b = Ppdu::new(append_fcs(&[0xB2, 0x1A, 0x0F, 0x77])).unwrap();

    let mut air = wazabee_dsp::IqBuf::from_interleaved(&zigbee.transmit(&a));
    let burst_end = air.len() + 2048;
    let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for k in 0..2048 {
        air.push(poison[k % 3], poison[(k / 3) % 3]);
    }
    air.extend_interleaved(&zigbee.transmit(&b));

    let format = wazabee_dsp::io::SampleFormat::Cf32;
    let mut planar = wazabee_dsp::IqBuf::new();
    format
        .decode(&format.encode(air.as_slice()), &mut planar)
        .unwrap();
    assert_eq!(planar.len(), air.len());

    for chunk in [4096, 777] {
        let mut stream = rx.stream();
        let mut results = Vec::new();
        let mut attempts_at_burst_end = None;
        let mut from = 0;
        while from < planar.len() {
            let to = (from + chunk).min(planar.len());
            results.extend(stream.push_planar(planar.slice(from, to)));
            if to >= burst_end && attempts_at_burst_end.is_none() {
                attempts_at_burst_end = Some(stream.attempts());
            }
            from = to;
        }
        results.extend(stream.flush());
        let after_burst = attempts_at_burst_end.expect("the burst was pushed");
        assert!(
            stream.attempts() > after_burst,
            "chunk {chunk}: no attempt committed after the burst"
        );
        assert_eq!(stream.attempts(), results.len() as u64, "chunk {chunk}");
        let frames: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
        assert_eq!(frames.len(), 2, "chunk {chunk}: {results:?}");
        assert_eq!(frames[0].psdu, a.psdu(), "chunk {chunk}");
        assert_eq!(frames[1].psdu, b.psdu(), "chunk {chunk}");
        assert!(frames.iter().all(|f| f.fcs_ok()), "chunk {chunk}");
    }
}
