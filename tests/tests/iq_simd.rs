//! Parity suite for the planar SIMD sample-domain kernels and the
//! table-driven transmit kernels.
//!
//! Every explicit-width kernel in `wazabee_dsp::simd` keeps a `*_scalar`
//! twin written with the identical per-element expression and accumulation
//! order, so the two must agree **bitwise** — not merely within a tolerance —
//! on arbitrary lengths, including tails shorter than the lane width. The
//! O-QPSK modulator and the Gaussian shaper, which fill their `f64` output
//! from per-call tables, are pinned the same way to the accumulating loops
//! they replaced. Each
//! kernel dispatched at run time is also checked variant by variant: its
//! portable body and, on hosts with AVX2, its AVX2 variant, each called by
//! name. The receive engine's lane packing (sign words, then a
//! de-interleave) is checked against the per-lane `step_by` loop it
//! replaced. On top
//! of the kernel-level checks, two golden decodes pin that moving sample
//! storage from interleaved `f64` to planar `f32` changed no decoded frame:
//! the streaming fixture and a Table III-style office-link fixture must
//! reproduce, attempt for attempt, the result sequences the retired
//! interleaved `f64` streaming engine (per-lane libm discriminator) produced
//! on them. Those sequences were recorded once from that engine and are
//! committed below as literals.

use proptest::prelude::*;
use wazabee::{WazaBeeError, WazaBeeRx};
use wazabee_ble::{BleModem, BlePhy};
use wazabee_chips::nrf52832;
use wazabee_dot154::msk::frame_chips_to_msk;
use wazabee_dot154::oqpsk::{modulate_chips, modulate_chips_scalar};
use wazabee_dot154::pn::pn_sequence;
use wazabee_dot154::{fcs::append_fcs, Dot154Channel, Dot154Modem, MacFrame, Ppdu, ReceivedPpdu};
use wazabee_dsp::gaussian::{shape_nrz, shape_nrz_scalar};
use wazabee_dsp::packed::deinterleave;
use wazabee_dsp::simd::{
    accumulate_interleaved_at, accumulate_interleaved_at_scalar, discriminate_planar_into,
    discriminate_planar_portable_into, discriminate_planar_scalar_into, nrz_hard_bits_into,
    sign_words_into, sign_words_portable_into, sign_words_scalar_into, sliding_sums_into,
    sliding_sums_portable_into, sliding_sums_scalar_into, window_sums_into,
    window_sums_scalar_into, LANES,
};
#[cfg(target_arch = "x86_64")]
use wazabee_dsp::simd::{
    discriminate_planar_avx2_into, sign_words_avx2_into, sliding_sums_avx2_into,
};
use wazabee_dsp::{Iq, IqBuf, PackedBits};
use wazabee_integration::has_avx2;
use wazabee_radio::{Link, LinkConfig, RfFrame, WifiChannel, WifiInterferer};

/// Bit patterns of an `f32` slice, for exact (not approximate) comparison.
fn bits_of(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn buf_bits(b: &IqBuf) -> (Vec<u32>, Vec<u32>) {
    (bits_of(b.i()), bits_of(b.q()))
}

/// Random lengths spanning several lane-width multiples, so every tail size
/// `0..LANES` (and the empty and one-sample cases) is hit across the runs.
const MAX_LEN: usize = 8 * LANES + 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The blocked polar discriminator equals its scalar twin bit for bit,
    /// at any length and tail, including degenerate 0- and 1-sample inputs
    /// and rails salted with NaN, ±Inf, `+0.0` and `-0.0` samples.
    #[test]
    fn prop_discriminate_planar_matches_scalar(
        n in 0usize..MAX_LEN,
        seed in any::<u64>(),
        salt in 0u32..4,
    ) {
        let (mut i, mut q) = random_rails(seed, n);
        salt_non_finite(seed ^ 0x5A17, salt, &mut i);
        salt_non_finite(seed ^ 0xA5A5, salt, &mut q);
        let mut fast = vec![0.5f32; 3]; // non-empty: the kernels append
        let mut slow = fast.clone();
        let mut portable = fast.clone();
        discriminate_planar_into(&i, &q, &mut fast);
        discriminate_planar_scalar_into(&i, &q, &mut slow);
        prop_assert_eq!(bits_of(&fast), bits_of(&slow));
        prop_assert_eq!(fast.len(), 3 + n.saturating_sub(1));

        discriminate_planar_portable_into(&i, &q, &mut portable);
        prop_assert_eq!(bits_of(&portable), bits_of(&slow));
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut avx2 = vec![0.5f32; 3];
            // SAFETY: has_avx2() detected AVX2 on this host.
            unsafe { discriminate_planar_avx2_into(&i, &q, &mut avx2) };
            prop_assert_eq!(bits_of(&avx2), bits_of(&slow));
        }
    }

    /// Window sums equal the scalar twin bitwise; trailing partial windows
    /// are dropped by both.
    #[test]
    fn prop_window_sums_match_scalar(
        n in 0usize..MAX_LEN,
        window in 1usize..13,
        seed in any::<u64>(),
    ) {
        let (x, _) = random_rails(seed, n);
        let mut fast = vec![0.75f32]; // non-empty: the kernels append
        let mut slow = fast.clone();
        window_sums_into(&x, window, &mut fast);
        window_sums_scalar_into(&x, window, &mut slow);
        prop_assert_eq!(bits_of(&fast), bits_of(&slow));
        prop_assert_eq!(fast.len(), 1 + n / window);
    }

    /// The all-phase sliding sums equal the scalar twin bitwise, one sum per
    /// complete window start, and every `window`-th of them is the matching
    /// disjoint window sum — the identity the receive engine relies on.
    #[test]
    fn prop_sliding_sums_match_scalar(
        n in 0usize..MAX_LEN,
        window in 1usize..13,
        seed in any::<u64>(),
    ) {
        let (x, _) = random_rails(seed, n);
        let mut fast = vec![0.25f32]; // non-empty: the kernels append
        let mut slow = fast.clone();
        let mut portable = fast.clone();
        sliding_sums_into(&x, window, &mut fast);
        sliding_sums_scalar_into(&x, window, &mut slow);
        prop_assert_eq!(bits_of(&fast), bits_of(&slow));
        prop_assert_eq!(fast.len(), 1 + (n + 1).saturating_sub(window));

        sliding_sums_portable_into(&x, window, &mut portable);
        prop_assert_eq!(bits_of(&portable), bits_of(&slow));
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut avx2 = vec![0.25f32];
            // SAFETY: has_avx2() detected AVX2 on this host.
            unsafe { sliding_sums_avx2_into(&x, window, &mut avx2) };
            prop_assert_eq!(bits_of(&avx2), bits_of(&slow));
        }

        for phase in 0..window.min(n) {
            let mut disjoint = Vec::new();
            window_sums_into(&x[phase..], window, &mut disjoint);
            let from_phase = fast.get(1 + phase..).unwrap_or(&[]);
            let strided: Vec<f32> = from_phase.iter().step_by(window).copied().collect();
            prop_assert_eq!(bits_of(&strided), bits_of(&disjoint));
        }
    }

    /// Hard slicing of any soft vector is sign-stable (`-0.0` slices as 1,
    /// like `+0.0` — both are `>= 0.0`; NaN slices as 0).
    #[test]
    fn prop_hard_slicing_matches_sign_rule(
        n in 0usize..MAX_LEN,
        seed in any::<u64>(),
        salt in 0u32..4,
    ) {
        let (mut soft, _) = random_rails(seed, n);
        salt_non_finite(seed ^ 0x51CE, salt, &mut soft);
        let mut sliced = Vec::new();
        nrz_hard_bits_into(&soft, &mut sliced);
        let expect: Vec<u8> = soft.iter().map(|&s| u8::from(s >= 0.0)).collect();
        prop_assert_eq!(sliced, expect);
    }

    /// Superposition accumulation (interleaved `f64` source into a planar
    /// `f32` destination at an offset, fused gain) matches its scalar twin
    /// bitwise — including the resize when the source overruns the buffer.
    #[test]
    fn prop_accumulate_interleaved_matches_scalar(
        n in 0usize..MAX_LEN,
        dst_len in 0usize..120,
        offset in 0usize..90,
        gain in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let (i, q) = random_rails(seed, n);
        let src: Vec<Iq> = i
            .iter()
            .zip(&q)
            .map(|(&a, &b)| Iq::new(f64::from(a), f64::from(b)))
            .collect();
        let mut fast = IqBuf::new();
        fast.resize(dst_len);
        let mut slow = IqBuf::new();
        slow.resize(dst_len);
        accumulate_interleaved_at(&mut fast, &src, offset, gain);
        accumulate_interleaved_at_scalar(&mut slow, &src, offset, gain);
        prop_assert_eq!(buf_bits(&fast), buf_bits(&slow));
    }

    /// The table-driven O-QPSK modulator equals the accumulating rail loop
    /// bit for bit (sign of zero included) at every oversampling in 1..=16,
    /// for empty, odd and even chip counts up to 2048.
    #[test]
    fn prop_oqpsk_modulate_matches_scalar(
        spc in 1usize..=16,
        n in 0usize..=2048,
        seed in any::<u64>(),
    ) {
        let chips = random_bits(seed, n);
        let fast = modulate_chips(&chips, spc);
        let slow = modulate_chips_scalar(&chips, spc);
        prop_assert_eq!(fast.len(), (n + 1) * spc);
        prop_assert_eq!(iq_bits(&fast), iq_bits(&slow));
    }

    /// The table-driven Gaussian shaper equals the scatter FIR over the
    /// rectangular image bit for bit, for sps 2..=16, spans 1..=6, BT 0.3–1.0
    /// and symbol counts from empty through shorter than the filter to long
    /// enough for every table size.
    #[test]
    fn prop_gaussian_shape_matches_scalar(
        sps in 2usize..=16,
        span in 1usize..=6,
        bt in 0.3f64..1.0,
        short in 0usize..=8,
        long in 0usize..=400,
        pick_short in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = if pick_short { short } else { long };
        let nrz: Vec<f64> = random_bits(seed, n)
            .iter()
            .map(|&b| if b == 1 { 1.0 } else { -1.0 })
            .collect();
        let fast = shape_nrz(&nrz, bt, sps, span);
        let slow = shape_nrz_scalar(&nrz, bt, sps, span);
        prop_assert_eq!(fast.len(), n * sps);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&fast), bits(&slow));
    }

    /// Sign words equal their scalar twin in every variant, on values
    /// salted with NaN, ±Inf and signed zeros: `-0.0` packs as 1 and NaN as
    /// 0, exactly as `x >= 0.0` decides.
    #[test]
    fn prop_sign_words_match_scalar(
        n in 0usize..SIGN_MAX_LEN,
        seed in any::<u64>(),
        salt in 0u32..4,
    ) {
        let (mut x, _) = random_rails(seed, n);
        salt_non_finite(seed ^ 0x5160, salt, &mut x);
        let mut slow = vec![u64::MAX]; // non-empty: the kernels append
        let mut fast = slow.clone();
        let mut portable = slow.clone();
        sign_words_scalar_into(&x, &mut slow);
        prop_assert_eq!(slow.len(), 1 + n.div_ceil(64));
        for (k, &v) in x.iter().enumerate() {
            prop_assert_eq!((slow[1 + k / 64] >> (k % 64)) & 1, u64::from(v >= 0.0));
        }
        sign_words_into(&x, &mut fast);
        prop_assert_eq!(&fast, &slow);
        sign_words_portable_into(&x, &mut portable);
        prop_assert_eq!(&portable, &slow);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut avx2 = vec![u64::MAX];
            // SAFETY: has_avx2() detected AVX2 on this host.
            unsafe { sign_words_avx2_into(&x, &mut avx2) };
            prop_assert_eq!(&avx2, &slow);
        }
    }

    /// The receive engine's lane packing — sign words, then a stride-`sps`
    /// de-interleave — appends to every lane exactly the bits the per-lane
    /// `step_by(sps)` loop it replaced appended, for every `sps` in 1..=16,
    /// ragged tails and every starting fill of the lanes' last words, on
    /// sums salted with NaN, ±Inf and signed zeros.
    #[test]
    fn prop_lane_packing_matches_step_by_loop(
        n in 0usize..1400,
        fills in proptest::array::uniform16(0usize..200),
        seed in any::<u64>(),
        salt in 0u32..4,
    ) {
        let (mut sums, _) = random_rails(seed, n);
        salt_non_finite(seed ^ 0x1A7E, salt, &mut sums);
        let mut signs = Vec::new();
        sign_words_into(&sums, &mut signs);
        for sps in 1..=16 {
            let lanes: Vec<PackedBits> = fills[..sps]
                .iter()
                .enumerate()
                .map(|(c, &fill)| {
                    let (bits, _) = random_rails(seed ^ c as u64, fill);
                    let bits: Vec<u8> = bits.iter().map(|&v| u8::from(v >= 0.0)).collect();
                    PackedBits::from_bits(&bits)
                })
                .collect();

            let mut want = lanes.clone();
            for (c, lane) in want.iter_mut().enumerate() {
                for block in sums.get(c..).unwrap_or(&[]).chunks(64 * sps) {
                    let mut word = 0u64;
                    let mut count = 0;
                    for &sum in block.iter().step_by(sps) {
                        word |= u64::from(sum >= 0.0) << count;
                        count += 1;
                    }
                    lane.extend_from_word(word, count);
                }
            }

            let mut got = lanes;
            deinterleave(&signs, sums.len(), sps, |c, word, count| {
                got[c].extend_from_word(word, count);
            });
            prop_assert_eq!(got, want, "sps {}", sps);
        }
    }

    /// `IqBuf` round-trips interleaved samples through arbitrary slicing and
    /// front-draining without disturbing the retained lanes.
    #[test]
    fn prop_iqbuf_slicing_preserves_samples(
        n in 0usize..200,
        from in 0usize..220,
        drain in 0usize..220,
        seed in any::<u64>(),
    ) {
        let (i, q) = random_rails(seed, n);
        let interleaved: Vec<Iq> = i
            .iter()
            .zip(&q)
            .map(|(&a, &b)| Iq::new(f64::from(a), f64::from(b)))
            .collect();
        let mut buf = IqBuf::from_interleaved(&interleaved);
        prop_assert_eq!(bits_of(buf.as_slice().slice_from(from).i()),
                        bits_of(&i[from.min(n)..]));
        buf.drain_front(drain);
        let kept = drain.min(n);
        prop_assert_eq!(bits_of(buf.i()), bits_of(&i[kept..]));
        prop_assert_eq!(bits_of(buf.q()), bits_of(&q[kept..]));
    }
}

/// Lengths for the sign-word kernels: several 64-value words, so every tail
/// length and the AVX2 variant's whole-word path are hit.
const SIGN_MAX_LEN: usize = 5 * 64 + 2;

/// Bit patterns of both rails of an `f64` waveform.
fn iq_bits(x: &[Iq]) -> Vec<(u64, u64)> {
    x.iter().map(|s| (s.i.to_bits(), s.q.to_bits())).collect()
}

/// Deterministic pseudo-random 0/1 values.
fn random_bits(seed: u64, n: usize) -> Vec<u8> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..2u8)).collect()
}

/// Deterministic pseudo-random `f32` rails, avoiding proptest vector
/// generation overhead at large lengths.
fn random_rails(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut i = Vec::with_capacity(n);
    let mut q = Vec::with_capacity(n);
    for _ in 0..n {
        i.push(rng.gen_range(-3.0f32..3.0));
        q.push(rng.gen_range(-3.0f32..3.0));
    }
    (i, q)
}

/// Replaces about `salt` in 8 samples of `x` with a non-finite or signed-zero
/// value (NaN, ±Inf, `+0.0`, `-0.0`).
fn salt_non_finite(seed: u64, salt: u32, x: &mut [f32]) {
    use rand::{Rng, SeedableRng};
    const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    for v in x {
        if rng.gen_range(0..8u32) < salt {
            *v = SPECIAL[rng.gen_range(0..SPECIAL.len())];
        }
    }
}

const SPS: usize = 8;

fn sniffer() -> WazaBeeRx<BleModem> {
    WazaBeeRx::new(BleModem::new(BlePhy::Le2M, SPS)).expect("LE 2M is the attack PHY")
}

fn run_engine(
    mut stream: wazabee::StreamingRx<'_, BleModem>,
    buf: &[Iq],
    chunk: usize,
) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
    let mut results = Vec::new();
    for piece in buf.chunks(chunk) {
        results.extend(stream.push(piece));
    }
    results.extend(stream.finish());
    results
}

/// One recorded decode attempt: a frame's PSDU (lowercase hex) and FCS
/// verdict, or the typed failure that ended the attempt.
type Golden = Result<(&'static str, bool), WazaBeeError>;

/// Reduces a decode run to the golden form and compares it with the record.
fn assert_golden(got: &[Result<ReceivedPpdu, WazaBeeError>], want: &[Golden], what: &str) {
    let got: Vec<Result<(String, bool), WazaBeeError>> = got
        .iter()
        .map(|r| {
            r.as_ref()
                .map(|f| {
                    let hex = f.psdu.iter().map(|b| format!("{b:02x}")).collect();
                    (hex, f.fcs_ok())
                })
                .map_err(Clone::clone)
        })
        .collect();
    let want: Vec<Result<(String, bool), WazaBeeError>> = want
        .iter()
        .map(|g| g.clone().map(|(hex, ok)| (hex.to_string(), ok)))
        .collect();
    assert_eq!(got, want, "{what}: decode diverged from the golden record");
}

/// The retired `f64` engine's decode of the streaming fixture: the decoy's
/// sync hit dies on its SFD, then both genuine frames come out. It produced
/// this same sequence at every chunk size listed in the test.
const STREAMING_GOLDEN: &[Golden] = &[
    Err(WazaBeeError::SyncFalsePositive),
    Ok(("204455663b41", true)),
    Ok(("21445566805d", true)),
];

/// The streaming fixture of `streaming.rs` — a decoy sync hit, then two real
/// frames behind silence gaps — decodes to the golden result sequence
/// (failures included) through the planar `f32` engine at every chunk size.
#[test]
fn planar_engine_matches_reference_on_streaming_fixture() {
    let ble = BleModem::new(BlePhy::Le2M, SPS);
    let zigbee = Dot154Modem::new(SPS);
    let rx = sniffer();

    let mut bits: Vec<u8> = (0..wazabee::tx::TX_WARMUP_BITS)
        .map(|k| (k % 2) as u8)
        .collect();
    let mut chips = pn_sequence(0).to_vec();
    chips.extend(pn_sequence(5));
    bits.extend(frame_chips_to_msk(&chips, 0));
    let mut capture = ble.transmit_raw(&bits);
    for k in 0..2u8 {
        capture.extend(vec![Iq::ZERO; 700 + 311 * usize::from(k)]);
        let ppdu = Ppdu::new(append_fcs(&[0x20 | k, 0x44, 0x55, 0x66])).unwrap();
        capture.extend(zigbee.transmit(&ppdu));
    }

    for chunk in [capture.len(), 4096, 777, 63] {
        let planar = run_engine(rx.stream(), &capture, chunk);
        assert_golden(&planar, STREAMING_GOLDEN, &format!("chunk {chunk}"));
    }
}

/// The retired `f64` engine's decode of every Table III-style delivery, by
/// `(channel, counter)`. Channel 14's counter-4 frame is the one the office
/// link corrupts: it decodes with a failing FCS.
const TABLE3_GOLDEN: [(u8, u16, &[Golden]); 40] = [
    (11, 0, &[Ok(("61880034124200630000004b7e", true))]),
    (11, 1, &[Ok(("61880134124200630001006e2a", true))]),
    (11, 2, &[Ok(("618802341242006300020001d6", true))]),
    (11, 3, &[Ok(("61880334124200630003002482", true))]),
    (11, 4, &[Ok(("6188043412420063000400ce26", true))]),
    (11, 5, &[Ok(("6188053412420063000500eb72", true))]),
    (11, 6, &[Ok(("6188063412420063000600848e", true))]),
    (11, 7, &[Ok(("6188073412420063000700a1da", true))]),
    (11, 8, &[Ok(("618808341242006300080041cf", true))]),
    (11, 9, &[Ok(("6188093412420063000900649b", true))]),
    (14, 0, &[Ok(("61880034124200630000004b7e", true))]),
    (14, 1, &[Ok(("61880134124200630001006e2a", true))]),
    (14, 2, &[Ok(("618802341242006300020001d6", true))]),
    (14, 3, &[Ok(("61880334124200630003002482", true))]),
    (14, 4, &[Ok(("6188043412420063000400ce27", false))]),
    (14, 5, &[Ok(("6188053412420063000500eb72", true))]),
    (14, 6, &[Ok(("6188063412420063000600848e", true))]),
    (14, 7, &[Ok(("6188073412420063000700a1da", true))]),
    (14, 8, &[Ok(("618808341242006300080041cf", true))]),
    (14, 9, &[Ok(("6188093412420063000900649b", true))]),
    (17, 0, &[Ok(("61880034124200630000004b7e", true))]),
    (17, 1, &[Ok(("61880134124200630001006e2a", true))]),
    (17, 2, &[Ok(("618802341242006300020001d6", true))]),
    (17, 3, &[Ok(("61880334124200630003002482", true))]),
    (17, 4, &[Ok(("6188043412420063000400ce26", true))]),
    (17, 5, &[Ok(("6188053412420063000500eb72", true))]),
    (17, 6, &[Ok(("6188063412420063000600848e", true))]),
    (17, 7, &[Ok(("6188073412420063000700a1da", true))]),
    (17, 8, &[Ok(("618808341242006300080041cf", true))]),
    (17, 9, &[Ok(("6188093412420063000900649b", true))]),
    (22, 0, &[Ok(("61880034124200630000004b7e", true))]),
    (22, 1, &[Ok(("61880134124200630001006e2a", true))]),
    (22, 2, &[Ok(("618802341242006300020001d6", true))]),
    (22, 3, &[Ok(("61880334124200630003002482", true))]),
    (22, 4, &[Ok(("6188043412420063000400ce26", true))]),
    (22, 5, &[Ok(("6188053412420063000500eb72", true))]),
    (22, 6, &[Ok(("6188063412420063000600848e", true))]),
    (22, 7, &[Ok(("6188073412420063000700a1da", true))]),
    (22, 8, &[Ok(("618808341242006300080041cf", true))]),
    (22, 9, &[Ok(("6188093412420063000900649b", true))]),
];

/// A Table III-style fixture — counter frames crossing the office link at the
/// committed SNR, WiFi interferers included — decodes to the golden result
/// sequence on a clear, a WiFi-overlapped and the testbed channel. This pins
/// that the f64→f32 storage change flipped no decision in the committed
/// Table III artifact's regime.
#[test]
fn planar_engine_matches_reference_on_table3_fixture() {
    let chip = nrf52832();
    let zigbee = Dot154Modem::new(SPS);
    let rx = sniffer();
    let seed = 0x0DA7_AB34u64;
    let mut golden = TABLE3_GOLDEN.iter();

    for channel_number in [11u8, 14, 17, 22] {
        let channel = Dot154Channel::new(channel_number).unwrap();
        let link_cfg = LinkConfig {
            snr_db: Some(4.3 + chip.rx_quality_db),
            ..LinkConfig::office_3m()
        };
        let mut link = Link::new(link_cfg, seed ^ (u64::from(channel_number) << 32));
        let selectivity = 10f64.powf(-chip.rx_quality_db / 10.0);
        for wifi in [6u8, 11] {
            let mut interferer =
                WifiInterferer::office(WifiChannel::new(wifi).expect("WiFi channel"));
            interferer.power *= selectivity;
            link.add_interferer(interferer);
        }
        let mhz = channel.center_mhz();
        for counter in 0..10u16 {
            let mac = MacFrame::data(
                0x1234,
                0x0063,
                0x0042,
                counter as u8,
                counter.to_le_bytes().to_vec(),
            );
            let ppdu = Ppdu::new(mac.to_psdu()).expect("counter frame fits");
            let air = zigbee.transmit(&ppdu);
            let heard = link.deliver(&RfFrame::new(mhz, air, zigbee.sample_rate()), mhz);
            let planar = run_engine(rx.stream(), &heard, 4096);
            let &(ch, ctr, want) = golden.next().expect("a golden row per delivery");
            assert_eq!((ch, ctr), (channel_number, counter), "golden table order");
            assert_golden(
                &planar,
                want,
                &format!("channel {channel_number} frame {counter}"),
            );
        }
    }
    assert!(golden.next().is_none(), "every golden row is exercised");
}
