//! Cross-crate equivalence tests for the packed-bitstream fast path and the
//! deterministic parallel sweep engine.
//!
//! The packed kernels (word-packed Hamming, sliding-register correlation,
//! `u32` despreading tables) must agree bit-for-bit with the scalar
//! references they replaced, on arbitrary streams — and the parallel channel
//! sweep must produce byte-identical artifacts at any thread count.

use proptest::prelude::*;
use wazabee_bench::table3::{render_table, run_primitive, Primitive, Table3Config};
use wazabee_chips::{cc1352r1, nrf52832};
use wazabee_dsp::correlate::{best_pattern_match_scalar, find_pattern_scalar};
use wazabee_dsp::packed::{best_pattern_match_packed, find_pattern_packed};
use wazabee_dsp::PackedBits;

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

    /// The packed correlator (the kernel every receive path uses) returns
    /// the same match — index and error count — as the scalar reference, for
    /// short patterns (sliding register) and long ones (word compare).
    #[test]
    fn prop_find_pattern_matches_scalar(
        stream in proptest::collection::vec(0u8..=1, 0..400),
        pattern in proptest::collection::vec(0u8..=1, 1..100),
        start in 0usize..50,
        max_errors in 0usize..6,
    ) {
        let (ps, pp) = (PackedBits::from_bits(&stream), PackedBits::from_bits(&pattern));
        prop_assert_eq!(
            find_pattern_packed(&ps, &pp, start, max_errors),
            find_pattern_scalar(&stream, &pattern, start, max_errors)
        );
        prop_assert_eq!(
            best_pattern_match_packed(&ps, &pp),
            best_pattern_match_scalar(&stream, &pattern)
        );
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
