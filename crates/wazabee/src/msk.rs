//! Paper Algorithm 1: converting an O-QPSK PN sequence into its MSK
//! representation, plus the correspondence table of §IV-C.
//!
//! The algorithm walks the O-QPSK constellation (states `11 → 01 → 00 → 10`
//! counter-clockwise) and emits a `1` for every +π/2 transition and a `0` for
//! every −π/2 transition. A 32-chip sequence yields 31 MSK bits.
//!
//! The tests validate the algorithm against the waveform-exact conversion in
//! [`wazabee_dot154::msk`]: the outputs agree on every bit except, for
//! sequences whose first chip is 0, the very first transition — an artefact
//! of Algorithm 1's fixed initial state that costs at most one bit of
//! Hamming margin and is invisible to the attack in practice.

use wazabee_dot154::pn::PN_SEQUENCES;

/// Paper Algorithm 1, verbatim: converts one 32-chip PN sequence to its
/// 31-bit MSK sequence.
///
/// # Examples
///
/// ```
/// use wazabee::msk::pn_to_msk_algorithm1;
/// use wazabee_dot154::pn::pn_sequence;
/// let msk = pn_to_msk_algorithm1(pn_sequence(0));
/// assert_eq!(msk.len(), 31);
/// ```
pub fn pn_to_msk_algorithm1(oqpsk_sequence: &[u8; 32]) -> [u8; 31] {
    let even_states = [1u8, 0, 0, 1];
    let odd_states = [1u8, 1, 0, 0];
    let mut current_state: usize = 0;
    let mut msk = [0u8; 31];
    for i in 1..32 {
        let states = if i % 2 == 1 {
            &odd_states
        } else {
            &even_states
        };
        if oqpsk_sequence[i] == states[(current_state + 1) % 4] {
            current_state = (current_state + 1) % 4;
            msk[i - 1] = 1;
        } else {
            current_state = (current_state + 3) % 4; // −1 mod 4
            msk[i - 1] = 0;
        }
    }
    msk
}

/// The full correspondence table of §IV-C: the 31-bit MSK image of each of
/// the sixteen PN sequences, computed with Algorithm 1.
pub fn correspondence_table() -> [[u8; 31]; 16] {
    let mut table = [[0u8; 31]; 16];
    for (s, row) in table.iter_mut().enumerate() {
        *row = pn_to_msk_algorithm1(&PN_SEQUENCES[s]);
    }
    table
}

/// The Algorithm-1 correspondence table packed LSB-first into `u32` words —
/// one word per symbol, precomputed once. This is the shape the fast
/// despreading path consumes: a single XOR + `count_ones` per candidate.
pub fn correspondence_table_packed() -> &'static [u32; 16] {
    static TABLE: std::sync::OnceLock<[u32; 16]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let table = correspondence_table();
        std::array::from_fn(|s| wazabee_dsp::packed::pack_u32(&table[s]))
    })
}

/// Finds the symbol whose Algorithm-1 MSK sequence best matches a received
/// 31-bit block (minimum Hamming distance), returning `(symbol, distance)` —
/// the despreading step of the paper's reception primitive (§IV-D).
///
/// `block` holds the 31 MSK bits LSB-first (bit 31 must be clear). Sixteen
/// XOR + `count_ones` comparisons against the packed correspondence table
/// ([`wazabee_dsp::packed::nearest_row`]); ties resolve to the lowest symbol
/// value.
pub fn despread_msk_block_packed(block: u32) -> (u8, usize) {
    wazabee_dsp::packed::nearest_row(correspondence_table_packed(), block)
}

/// Reference scalar implementation of [`despread_msk_block_packed`] over a
/// byte-per-bit block, retained for property tests and micro-benchmarks
/// against the packed fast path.
///
/// # Panics
///
/// Panics if `bits` is not exactly 31 entries long.
pub fn despread_msk_block_scalar(bits: &[u8]) -> (u8, usize) {
    assert_eq!(bits.len(), 31, "expected a 31-bit MSK block");
    static TABLE: std::sync::OnceLock<[[u8; 31]; 16]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(correspondence_table);
    let mut best = (0u8, usize::MAX);
    for (s, row) in table.iter().enumerate() {
        let d = wazabee_dsp::bits::hamming(bits, row);
        if d < best.1 {
            best = (s as u8, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wazabee_dot154::msk::{chips_to_msk, pn_msk_image};
    use wazabee_dot154::pn::pn_sequence;

    /// Despreads a byte-per-bit block through the packed kernel, checked
    /// against the scalar twin.
    fn despread_msk_block(bits: &[u8]) -> (u8, usize) {
        let packed = despread_msk_block_packed(wazabee_dsp::packed::pack_u32(bits));
        assert_eq!(packed, despread_msk_block_scalar(bits));
        packed
    }

    #[test]
    fn algorithm1_output_is_31_bits_of_zeros_and_ones() {
        for s in 0..16u8 {
            let msk = pn_to_msk_algorithm1(pn_sequence(s));
            assert!(msk.iter().all(|&b| b <= 1));
        }
    }

    #[test]
    fn algorithm1_matches_waveform_conversion_after_first_bit() {
        // Every bit except possibly the first must equal the waveform-exact
        // conversion, for all sixteen sequences.
        for s in 0..16u8 {
            let alg = pn_to_msk_algorithm1(pn_sequence(s));
            let wave = pn_msk_image(s);
            assert_eq!(&alg[1..], &wave[1..], "symbol {s} diverges beyond bit 0");
        }
    }

    #[test]
    fn algorithm1_first_bit_depends_on_initial_chip() {
        // When the sequence starts with chip 1 the fixed initial state '11'
        // is consistent and the first bit matches the waveform; when it
        // starts with chip 0 the first bit is complemented.
        for s in 0..16u8 {
            let alg = pn_to_msk_algorithm1(pn_sequence(s));
            let wave = pn_msk_image(s);
            if pn_sequence(s)[0] == 1 {
                assert_eq!(alg[0], wave[0], "symbol {s}");
            } else {
                assert_eq!(alg[0], wave[0] ^ 1, "symbol {s}");
            }
        }
    }

    #[test]
    fn table_rows_are_distinct() {
        let table = correspondence_table();
        for a in 0..16 {
            for b in (a + 1)..16 {
                assert_ne!(table[a], table[b], "rows {a} and {b} collide");
            }
        }
    }

    #[test]
    fn conjugate_rows_are_complementary() {
        // Inverting the odd chips of a PN sequence (symbol s ↔ s+8) flips
        // every phase transition.
        let table = correspondence_table();
        for s in 0..8usize {
            for (k, &bit) in table[s].iter().enumerate() {
                assert_eq!(bit ^ 1, table[s + 8][k], "symbol {s} bit {k}");
            }
        }
    }

    #[test]
    fn despreading_is_exact_on_clean_blocks() {
        let table = correspondence_table();
        for s in 0..16u8 {
            assert_eq!(despread_msk_block(&table[s as usize]), (s, 0));
        }
    }

    #[test]
    fn despreading_tolerates_bit_errors() {
        let table = correspondence_table();
        for s in 0..16u8 {
            let mut block = table[s as usize];
            for k in [2usize, 9, 17, 24, 30] {
                block[k] ^= 1;
            }
            let (sym, d) = despread_msk_block(&block);
            assert_eq!(sym, s, "symbol {s} lost after 5 bitflips");
            assert_eq!(d, 5);
        }
    }

    #[test]
    fn despreading_accepts_waveform_images_with_tiny_distance() {
        // Despreading waveform-exact images against the Algorithm-1 table
        // costs at most 1 bit — the attack's table works on real waveforms.
        for s in 0..16u8 {
            let (sym, d) = despread_msk_block(&pn_msk_image(s));
            assert_eq!(sym, s);
            assert!(d <= 1, "symbol {s} distance {d}");
        }
    }

    #[test]
    fn packed_despreading_agrees_with_scalar() {
        let table = correspondence_table();
        for (s, row) in table.iter().enumerate() {
            for flips in 0..=5usize {
                let mut block = *row;
                for k in 0..flips {
                    block[(k * 11) % 31] ^= 1;
                }
                let packed = wazabee_dsp::packed::pack_u32(&block);
                assert_eq!(
                    despread_msk_block_packed(packed),
                    despread_msk_block_scalar(&block),
                    "symbol {s} with {flips} flips"
                );
            }
        }
    }

    #[test]
    fn packed_table_matches_bit_table() {
        let bits = correspondence_table();
        let packed = correspondence_table_packed();
        for s in 0..16usize {
            assert_eq!(
                packed[s],
                wazabee_dsp::packed::pack_u32(&bits[s]),
                "row {s}"
            );
            assert_eq!(packed[s] >> 31, 0, "row {s} stray high bit");
        }
    }

    proptest! {
        #[test]
        fn prop_algorithm1_equals_closed_form_beyond_first_bit(
            chips in proptest::collection::vec(0u8..=1, 32),
        ) {
            // Algorithm 1 generalises to arbitrary 32-chip blocks; compare
            // against the closed-form waveform conversion.
            let arr: [u8; 32] = chips.clone().try_into().unwrap();
            let alg = pn_to_msk_algorithm1(&arr);
            let wave = chips_to_msk(&chips, false);
            prop_assert_eq!(&alg[1..], &wave[1..]);
            let expect_first = wave[0] ^ (chips[0] ^ 1);
            prop_assert_eq!(alg[0], expect_first);
        }
    }
}
