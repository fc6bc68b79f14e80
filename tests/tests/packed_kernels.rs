//! Cross-crate equivalence tests for the packed-bitstream fast path and the
//! deterministic parallel sweep engine.
//!
//! The packed kernels (word-packed Hamming, the pigeonhole-prefiltered
//! sync search in its one-shot and streaming forms, `u32` despreading
//! tables) must agree bit-for-bit with the scalar references they replaced,
//! on arbitrary streams and on frame-like lanes — and the parallel channel
//! sweep must produce byte-identical artifacts at any thread count.

use proptest::prelude::*;
use wazabee_bench::lanes::{frame_like_lane, oracle_hits};
use wazabee_bench::table3::{render_table, run_primitive, Primitive, Table3Config};
use wazabee_chips::{cc1352r1, nrf52832};
use wazabee_dot154::Dot154Modem;
use wazabee_dsp::correlate::find_pattern_scalar;
#[cfg(target_arch = "x86_64")]
use wazabee_dsp::packed::nearest_row_avx2;
use wazabee_dsp::packed::{find_pattern_packed, nearest_row, nearest_row_portable};
use wazabee_dsp::{PackedBits, StreamCorrelator};
use wazabee_integration::has_avx2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing round-trips any 0/1 stream, and packed Hamming equals the
    /// scalar byte-per-bit count.
    #[test]
    fn prop_packed_hamming_matches_scalar(
        a in proptest::collection::vec(0u8..=1, 0..300),
    ) {
        let b: Vec<u8> = a.iter().map(|&x| x ^ ((a.len() % 3 == 0) as u8)).collect();
        let pa = PackedBits::from_bits(&a);
        let pb = PackedBits::from_bits(&b);
        prop_assert_eq!(pa.to_bits(), a.clone());
        prop_assert_eq!(pa.hamming(&pb), wazabee_dsp::bits::hamming(&a, &b));
    }

    /// The packed one-shot search returns the same first match — index and
    /// error count — as the scalar reference, for patterns of one word or
    /// less and for longer ones (multi-word prefilter and scoring).
    #[test]
    fn prop_find_pattern_matches_scalar(
        stream in proptest::collection::vec(0u8..=1, 0..400),
        pattern in proptest::collection::vec(0u8..=1, 1..200),
        start in 0usize..50,
        max_errors in 0usize..40,
    ) {
        let (ps, pp) = (PackedBits::from_bits(&stream), PackedBits::from_bits(&pattern));
        prop_assert_eq!(
            find_pattern_packed(&ps, &pp, start, max_errors),
            find_pattern_scalar(&stream, &pattern, start, max_errors)
        );
    }

    /// The 319-bit 802.15.4 SHR image, planted with bit flips in a random
    /// stream, is found where the scalar reference finds it at the modem's
    /// budget of 32, with no errors allowed, and with every alignment a
    /// candidate (budget = pattern length).
    #[test]
    fn prop_find_shr_matches_scalar(
        lead in proptest::collection::vec(0u8..=1, 0..300),
        trail in proptest::collection::vec(0u8..=1, 0..100),
        flips in proptest::collection::vec(0usize..319, 0..40),
        start in 0usize..64,
    ) {
        let shr = Dot154Modem::shr_msk_image();
        let mut stream = lead;
        let at = stream.len();
        stream.extend_from_slice(&shr);
        stream.extend(trail);
        for f in flips {
            stream[at + f] ^= 1;
        }
        let ps = PackedBits::from_bits(&stream);
        for max_errors in [0, 32, shr.len()] {
            prop_assert_eq!(
                find_pattern_packed(&ps, Dot154Modem::shr_msk_image_packed(), start, max_errors),
                find_pattern_scalar(&stream, &shr, start, max_errors),
                "budget {}", max_errors
            );
        }
    }

    /// On frame-like lanes, where the sync symbol repeats through every
    /// preamble and prefilter candidates are dense, the streaming
    /// correlator reports exactly the oracle's hits for any chunking, even
    /// when the lane is trimmed to the fresh bits after every feed.
    #[test]
    fn prop_stream_correlator_matches_oracle_on_frame_like_lanes(
        seed in any::<u64>(),
        flip in 0.0f64..0.15,
        max_errors in 0usize..=8,
        chunks in proptest::collection::vec(0usize..300, 1..12),
    ) {
        let bits = frame_like_lane(seed, 3000, flip);
        let sync = wazabee::access_address_pattern();
        let mut corr = StreamCorrelator::new(&PackedBits::from_bits(sync), max_errors);
        let mut got = Vec::new();
        let mut lane = PackedBits::default();
        // Absolute index of the lane's bit 0.
        let mut base = 0;
        let mut k = 0;
        for &chunk in chunks.iter().cycle() {
            if k == bits.len() {
                break;
            }
            let next = (k + chunk.max(1)).min(bits.len());
            lane.extend_from_bits(&bits[k..next]);
            corr.feed_packed(&lane, k - base, &mut got);
            let spent = lane.len() / 64;
            lane.drop_front_words(spent);
            base += spent * 64;
            k = next;
        }
        prop_assert_eq!(got, oracle_hits(&bits, sync, max_errors));
    }

    /// Packed Algorithm-1 despreading equals the scalar reference on any
    /// 31-bit block.
    #[test]
    fn prop_despread_msk_block_matches_scalar(
        bits in proptest::collection::vec(0u8..=1, 31),
    ) {
        let packed = wazabee_dsp::packed::pack_u32(&bits);
        prop_assert_eq!(
            wazabee::msk::despread_msk_block_packed(packed),
            wazabee::msk::despread_msk_block_scalar(&bits)
        );
    }

    /// The despreading kernel's portable body and, on hosts with AVX2, its
    /// AVX2 variant, each called by name, pick the same row as a plain
    /// first-minimum scan, on any block and table (duplicate rows included,
    /// so ties are exercised).
    #[test]
    fn prop_nearest_row_variants_match_scalar(
        x in any::<u32>(),
        rows in proptest::array::uniform16(any::<u32>()),
        dup in 0usize..16,
    ) {
        let mut table = rows;
        table[dup] = table[15 - dup];
        let mut want = (0u8, usize::MAX);
        for (s, &row) in table.iter().enumerate() {
            let d = (x ^ row).count_ones() as usize;
            if d < want.1 {
                want = (s as u8, d);
            }
        }
        prop_assert_eq!(nearest_row(&table, x), want);
        prop_assert_eq!(nearest_row_portable(&table, x), want);
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: has_avx2() detected AVX2 on this host.
            prop_assert_eq!(unsafe { nearest_row_avx2(&table, x) }, want);
        }
    }

    /// Packed waveform-table despreading equals its scalar reference on any
    /// 31-bit block.
    #[test]
    fn prop_closest_symbol_msk_matches_scalar(
        bits in proptest::collection::vec(0u8..=1, 31),
    ) {
        let packed = wazabee_dsp::packed::pack_u32(&bits);
        prop_assert_eq!(
            wazabee_dot154::msk::closest_symbol_msk_packed(packed),
            wazabee_dot154::msk::closest_symbol_msk_scalar(&bits)
        );
    }
}

/// Serialises the two tests that drive `run_primitive` in this binary:
/// both read process-global telemetry counters, so they must not overlap.
static RUN_PRIMITIVE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The Table III sweep renders byte-identical output at one worker and at
/// many — per-channel seeds make the grid order-independent, and the sweep
/// driver merges results in input order.
#[test]
fn table3_fast_config_identical_at_1_and_4_threads() {
    let _guard = RUN_PRIMITIVE_LOCK.lock().unwrap();
    let render = |threads: Option<usize>| {
        let cfg = Table3Config {
            frames: 4,
            threads,
            ..Table3Config::quick()
        };
        let nrf = nrf52832();
        let cc = cc1352r1();
        let rx_nrf = run_primitive(&nrf, Primitive::Reception, &cfg);
        let rx_cc = run_primitive(&cc, Primitive::Reception, &cfg);
        let tx_nrf = run_primitive(&nrf, Primitive::Transmission, &cfg);
        let tx_cc = run_primitive(&cc, Primitive::Transmission, &cfg);
        render_table("nRF52832", &rx_nrf, &tx_nrf, "CC1352-R1", &rx_cc, &tx_cc)
    };
    let serial = render(Some(1));
    let parallel = render(Some(4));
    assert_eq!(serial, parallel, "thread count changed the artifact");
}

/// Telemetry counters accumulate the same totals under the parallel sweep as
/// under the serial one — the atomic counters must not lose increments.
///
/// Counter statics are per call site and merged by name in the summary sink,
/// so the totals are read back out of the rendered summary.
#[test]
fn telemetry_counters_survive_concurrency() {
    let _guard = RUN_PRIMITIVE_LOCK.lock().unwrap();
    let counter_total = |name: &str, summary: &str| -> u64 {
        summary
            .lines()
            .find_map(|l| {
                let l = l.trim();
                l.strip_prefix(name)
                    .and_then(|rest| rest.trim().parse().ok())
            })
            .unwrap_or_else(|| panic!("counter {name} absent from summary"))
    };
    let run = |threads: Option<usize>| -> u64 {
        let cfg = Table3Config {
            frames: 3,
            threads,
            ..Table3Config::quick()
        };
        wazabee_telemetry::reset();
        let _ = run_primitive(&nrf52832(), Primitive::Reception, &cfg);
        counter_total("wazabee.rx.despread.symbols", &wazabee_telemetry::summary())
    };
    let serial = run(Some(1));
    let parallel = run(Some(4));
    assert!(serial > 0, "no despread activity recorded");
    assert_eq!(serial, parallel, "counter increments lost under threads");
}
