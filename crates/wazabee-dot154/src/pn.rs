//! The 802.15.4 DSSS pseudo-noise sequences (paper Table I).
//!
//! Each 4-bit symbol `(b0 b1 b2 b3)` — `b0` being the least significant bit,
//! transmitted first — is replaced by one of sixteen 32-chip PN sequences.
//! The family has a tight structure the tests verify: symbols 1–7 are 4-chip
//! right-rotations of symbol 0, and symbols 8–15 are symbols 0–7 with every
//! odd-indexed chip inverted.

use crate::channel::CHIPS_PER_SYMBOL;

/// The sixteen PN sequences, indexed by symbol value, exactly as printed in
/// paper Table I (chip `c0` first).
pub const PN_SEQUENCES: [[u8; 32]; 16] = [
    // 0: 0000
    [
        1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1,
        1, 0,
    ],
    // 1: 1000
    [
        1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0,
        1, 0,
    ],
    // 2: 0100
    [
        0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0,
        1, 0,
    ],
    // 3: 1100
    [
        0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1,
        0, 1,
    ],
    // 4: 0010
    [
        0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0,
        1, 1,
    ],
    // 5: 1010
    [
        0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1,
        0, 0,
    ],
    // 6: 0110
    [
        1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 0,
        0, 1,
    ],
    // 7: 1110
    [
        1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1,
        0, 1,
    ],
    // 8: 0001
    [
        1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0,
        1, 1,
    ],
    // 9: 1001
    [
        1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1,
        1, 1,
    ],
    // 10: 0101
    [
        0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1,
        1, 1,
    ],
    // 11: 1101
    [
        0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0,
        0, 0,
    ],
    // 12: 0011
    [
        0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1,
        1, 0,
    ],
    // 13: 1011
    [
        0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0,
        0, 1,
    ],
    // 14: 0111
    [
        1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1,
        0, 0,
    ],
    // 15: 1111
    [
        1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0,
        0, 0,
    ],
];

/// Returns the PN sequence for a symbol value.
///
/// # Panics
///
/// Panics if `symbol` is not in 0..16.
pub fn pn_sequence(symbol: u8) -> &'static [u8; 32] {
    &PN_SEQUENCES[usize::from(symbol)]
}

/// Hamming distance between a received 32-chip block and each of the sixteen
/// PN sequences; returns `(best_symbol, best_distance)`.
///
/// Ties resolve to the lowest symbol value, matching a deterministic
/// hardware correlator.
///
/// # Panics
///
/// Panics if `chips` is not exactly 32 entries long.
pub fn closest_symbol(chips: &[u8]) -> (u8, usize) {
    assert_eq!(chips.len(), CHIPS_PER_SYMBOL, "expected one 32-chip block");
    closest_symbol_packed(wazabee_dsp::packed::pack_u32(chips))
}

/// The sixteen 32-chip PN sequences packed LSB-first into `u32` words,
/// precomputed once — the fast-path chip-domain despreading table.
pub fn pn_sequences_packed() -> &'static [u32; 16] {
    static TABLE: std::sync::OnceLock<[u32; 16]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(|s| wazabee_dsp::packed::pack_u32(&PN_SEQUENCES[s])))
}

/// Packed chip-domain despreading: `chips` holds one 32-chip block LSB-first;
/// returns `(best_symbol, best_distance)` with the same tie-breaking as
/// [`closest_symbol`] ([`wazabee_dsp::packed::nearest_row`]).
pub fn closest_symbol_packed(chips: u32) -> (u8, usize) {
    wazabee_dsp::packed::nearest_row(pn_sequences_packed(), chips)
}

/// Minimum pairwise Hamming distance of the PN family — the error margin the
/// Hamming-despreading of the paper (§IV-D) relies on.
pub fn min_pairwise_distance() -> usize {
    let mut min = usize::MAX;
    for (a, seq_a) in PN_SEQUENCES.iter().enumerate() {
        for seq_b in PN_SEQUENCES.iter().skip(a + 1) {
            min = min.min(wazabee_dsp::bits::hamming(seq_a, seq_b));
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sequences_have_32_chips_and_are_distinct() {
        for (a, seq_a) in PN_SEQUENCES.iter().enumerate() {
            for (b, seq_b) in PN_SEQUENCES.iter().enumerate().skip(a + 1) {
                assert_ne!(seq_a, seq_b, "symbols {a} and {b} collide");
            }
        }
    }

    #[test]
    fn symbols_1_to_7_are_rotations_of_symbol_0() {
        // Symbol s (1..=7) is symbol 0 rotated right by 4·s chips.
        for (s, seq) in PN_SEQUENCES.iter().enumerate().take(8).skip(1) {
            let shift = 4 * s;
            for (i, &chip) in PN_SEQUENCES[0].iter().enumerate() {
                assert_eq!(seq[(i + shift) % 32], chip, "symbol {s} chip {i}");
            }
        }
    }

    #[test]
    fn symbols_8_to_15_are_odd_chip_conjugates() {
        // Symbol s+8 equals symbol s with every odd-indexed chip inverted.
        for s in 0..8usize {
            for (i, &chip) in PN_SEQUENCES[s].iter().enumerate() {
                let expect = chip ^ (i as u8 & 1);
                assert_eq!(PN_SEQUENCES[s + 8][i], expect, "symbol {} chip {i}", s + 8);
            }
        }
    }

    #[test]
    fn sequences_are_balanced() {
        // Every PN sequence carries 16 ones and 16 zeros.
        for (s, pn) in PN_SEQUENCES.iter().enumerate() {
            let ones: u8 = pn.iter().sum();
            assert_eq!(ones, 16, "symbol {s}");
        }
    }

    #[test]
    fn full_complement_is_not_in_the_family() {
        // Inverting all 32 chips never yields another PN sequence — this is
        // what makes MSK-domain despreading unambiguous.
        for (s, pn) in PN_SEQUENCES.iter().enumerate() {
            let comp: Vec<u8> = pn.iter().map(|&c| c ^ 1).collect();
            for (t, other) in PN_SEQUENCES.iter().enumerate() {
                assert_ne!(comp.as_slice(), other.as_slice(), "NOT({s}) == {t}");
            }
        }
    }

    #[test]
    fn closest_symbol_is_exact_on_clean_chips() {
        for s in 0..16u8 {
            let (sym, d) = closest_symbol(pn_sequence(s));
            assert_eq!((sym, d), (s, 0));
        }
    }

    #[test]
    fn closest_symbol_survives_chip_errors() {
        // With min pairwise distance d_min, up to ⌊(d_min−1)/2⌋ chip flips
        // are always corrected.
        let budget = (min_pairwise_distance() - 1) / 2;
        assert!(budget >= 5, "PN family weaker than expected: {budget}");
        for s in 0..16u8 {
            let mut chips = *pn_sequence(s);
            for k in 0..budget {
                chips[(k * 7) % 32] ^= 1;
            }
            let (sym, d) = closest_symbol(&chips);
            assert_eq!(sym, s);
            assert_eq!(d, budget);
        }
    }

    #[test]
    fn min_pairwise_distance_is_large() {
        // The 802.15.4 PN family's minimum distance in the chip domain.
        let d = min_pairwise_distance();
        assert!((12..=20).contains(&d), "unexpected d_min {d}");
    }

    #[test]
    #[should_panic(expected = "32-chip block")]
    fn closest_symbol_rejects_wrong_length() {
        let _ = closest_symbol(&[0u8; 31]);
    }
}
