//! The exact chip-domain ↔ MSK-domain mapping of O-QPSK with half-sine
//! pulse shaping (paper §IV-B/IV-C).
//!
//! Over each chip interval `[i·Tc, (i+1)·Tc]` the O-QPSK waveform's phase
//! ramps by exactly ±π/2; the direction depends only on the two chips whose
//! half-sine pulses overlap the interval and on the rail parity:
//!
//! ```text
//! m_i = c_{i-1} ⊕ c_i ⊕ (i odd ? 1 : 0)
//! ```
//!
//! where `m_i = 1` encodes a counter-clockwise (+π/2) rotation. A sequence of
//! `n` chips therefore maps to `n − 1` *internal* MSK bits — the paper's
//! "length n−1" observation — plus one boundary bit per junction with the
//! previous chip. These functions are the ground truth the paper's
//! Algorithm 1 is validated against in the `wazabee` crate.

/// Converts a chip stream to its internal MSK bits (`chips.len() − 1` bits).
///
/// `first_index_odd` says whether chip 0 of the slice sits at an odd global
/// chip position (i.e. on the Q rail). Frames start at index 0 (even).
///
/// # Examples
///
/// ```
/// use wazabee_dot154::msk::chips_to_msk;
/// // Chips 1,1 starting at an even position: interval 1 is odd-parity,
/// // equal chips → m = 1⊕1⊕1 = 1 (counter-clockwise).
/// assert_eq!(chips_to_msk(&[1, 1], false), vec![1]);
/// ```
pub fn chips_to_msk(chips: &[u8], first_index_odd: bool) -> Vec<u8> {
    if chips.len() < 2 {
        return Vec::new();
    }
    let base = usize::from(first_index_odd);
    chips
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let i = base + k + 1; // global index of the interval's right chip
            (w[0] ^ w[1]) ^ (i as u8 & 1)
        })
        .collect()
}

/// The boundary MSK bit joining chip `prev` (at global index `right_index−1`)
/// to chip `next` (at `right_index`).
pub fn boundary_msk_bit(prev: u8, next: u8, right_index_odd: bool) -> u8 {
    (prev ^ next) ^ u8::from(right_index_odd)
}

/// Converts a full frame chip stream (starting at global index 0) to the
/// complete MSK bit stream a BLE-style FSK modulator must emit.
///
/// The stream has exactly `chips.len()` bits: one leading bit for the ramp
/// into chip 0 (computed against `virtual_prev_chip`, free for the
/// transmitter to choose) followed by the `chips.len() − 1` internal bits.
pub fn frame_chips_to_msk(chips: &[u8], virtual_prev_chip: u8) -> Vec<u8> {
    if chips.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(chips.len());
    out.push(boundary_msk_bit(virtual_prev_chip, chips[0], false));
    out.extend(chips_to_msk(chips, false));
    out
}

/// Reconstructs chips from MSK bits, given the chip preceding the first bit.
///
/// `bits[k]` is the transition into the chip at global index
/// `start_index + k`; reconstruction is the XOR recursion inverted:
/// `c_i = c_{i-1} ⊕ m_i ⊕ (i odd)`.
pub fn msk_to_chips(bits: &[u8], prev_chip: u8, start_index_odd: bool) -> Vec<u8> {
    let mut chips = Vec::with_capacity(bits.len());
    let mut prev = prev_chip & 1;
    let mut odd = start_index_odd;
    for &m in bits {
        let c = prev ^ (m & 1) ^ u8::from(odd);
        chips.push(c);
        prev = c;
        odd = !odd;
    }
    chips
}

/// The 31-bit internal MSK image of one 32-chip PN sequence placed at a
/// symbol boundary (its first chip at an even global index).
pub fn pn_msk_image(symbol: u8) -> Vec<u8> {
    chips_to_msk(crate::pn::pn_sequence(symbol), false)
}

/// All sixteen 31-bit MSK images, indexed by symbol — the correspondence
/// table of paper §IV-C, derived from the waveform rather than Algorithm 1.
pub fn msk_correspondence_table() -> [[u8; 31]; 16] {
    let mut table = [[0u8; 31]; 16];
    for (s, row) in table.iter_mut().enumerate() {
        let img = pn_msk_image(s as u8);
        row.copy_from_slice(&img);
    }
    table
}

/// The sixteen 31-bit MSK images packed LSB-first into `u32` words,
/// precomputed once — the fast-path despreading table.
pub fn msk_correspondence_table_packed() -> &'static [u32; 16] {
    static TABLE: std::sync::OnceLock<[u32; 16]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let table = msk_correspondence_table();
        std::array::from_fn(|s| wazabee_dsp::packed::pack_u32(&table[s]))
    })
}

/// Finds the symbol whose MSK image is closest (Hamming) to a received
/// 31-bit block; returns `(symbol, distance)`. `block` holds the 31 received
/// bits LSB-first (bit 31 must be clear). This runs per received symbol on
/// the hot receive path — sixteen XOR + `count_ones` against the cached
/// packed table ([`wazabee_dsp::packed::nearest_row`]). The scalar
/// byte-per-bit reference survives as [`closest_symbol_msk_scalar`].
pub fn closest_symbol_msk_packed(block: u32) -> (u8, usize) {
    wazabee_dsp::packed::nearest_row(msk_correspondence_table_packed(), block)
}

/// The scalar byte-per-bit reference implementation of
/// [`closest_symbol_msk_packed`], kept for property tests and
/// micro-benchmarks.
///
/// # Panics
///
/// Panics if `bits` is not exactly 31 entries long.
pub fn closest_symbol_msk_scalar(bits: &[u8]) -> (u8, usize) {
    assert_eq!(bits.len(), 31, "expected a 31-bit internal MSK block");
    static TABLE: std::sync::OnceLock<[[u8; 31]; 16]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(msk_correspondence_table);
    let mut best = (0u8, usize::MAX);
    for (s, row) in table.iter().enumerate() {
        let d = wazabee_dsp::bits::hamming(bits, row);
        if d < best.1 {
            best = (s as u8, d);
        }
    }
    best
}

/// Minimum pairwise Hamming distance between the sixteen 31-bit MSK images.
pub fn min_pairwise_msk_distance() -> usize {
    let table = msk_correspondence_table();
    let mut min = usize::MAX;
    for a in 0..16 {
        for b in (a + 1)..16 {
            min = min.min(wazabee_dsp::bits::hamming(&table[a], &table[b]));
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pn::{pn_sequence, PN_SEQUENCES};
    use proptest::prelude::*;

    #[test]
    fn two_chip_cases_match_hand_derivation() {
        // i=1 (odd interval): equal chips → CCW (1); differing → CW (0).
        assert_eq!(chips_to_msk(&[1, 1], false), vec![1]);
        assert_eq!(chips_to_msk(&[1, 0], false), vec![0]);
        // At odd start, interval index is even: equal chips → CW (0).
        assert_eq!(chips_to_msk(&[1, 1], true), vec![0]);
    }

    #[test]
    fn round_trip_chips_msk_chips() {
        let chips = pn_sequence(5);
        let msk = chips_to_msk(chips, false);
        let back = msk_to_chips(&msk, chips[0], true);
        assert_eq!(&back[..], &chips[1..]);
    }

    #[test]
    fn frame_stream_length_equals_chip_count() {
        let chips: Vec<u8> = PN_SEQUENCES[3].into_iter().chain(PN_SEQUENCES[9]).collect();
        let msk = frame_chips_to_msk(&chips, 0);
        assert_eq!(msk.len(), 64);
        // Reconstructing from the full stream recovers every chip.
        let back = msk_to_chips(&msk, 0, false);
        assert_eq!(back, chips);
    }

    #[test]
    fn images_are_31_bits_and_distinct() {
        let table = msk_correspondence_table();
        for a in 0..16 {
            for b in (a + 1)..16 {
                assert_ne!(table[a], table[b], "MSK images of {a} and {b} collide");
            }
        }
    }

    #[test]
    fn image_family_structure_follows_pn_structure() {
        // Conjugate symbols (s vs s+8) invert odd chips; in the MSK domain
        // that inverts *every* transition bit.
        let table = msk_correspondence_table();
        for s in 0..8usize {
            for (k, &bit) in table[s].iter().enumerate() {
                assert_eq!(bit ^ 1, table[s + 8][k], "symbol {s} bit {k}");
            }
        }
    }

    #[test]
    fn msk_min_distance_supports_hamming_despreading() {
        let d = min_pairwise_msk_distance();
        // Conjugate pairs are complementary (distance 31); the binding
        // constraint comes from rotations. The paper's attack relies on this
        // margin being comfortably positive.
        assert!(d >= 10, "MSK-domain d_min too small: {d}");
    }

    #[test]
    fn closest_symbol_corrects_errors_within_half_dmin() {
        let budget = (min_pairwise_msk_distance() - 1) / 2;
        for s in 0..16u8 {
            let mut img = pn_msk_image(s);
            for k in 0..budget {
                img[(k * 5) % 31] ^= 1;
            }
            let packed = closest_symbol_msk_packed(wazabee_dsp::packed::pack_u32(&img));
            assert_eq!(packed.0, s, "symbol {s}");
        }
    }

    #[test]
    fn packed_despreading_agrees_with_scalar() {
        // Every image, with an assortment of bitflips, decodes identically
        // through the scalar and packed paths.
        for s in 0..16u8 {
            let mut img = pn_msk_image(s);
            for flips in 0..6usize {
                assert_eq!(
                    closest_symbol_msk_packed(wazabee_dsp::packed::pack_u32(&img)),
                    closest_symbol_msk_scalar(&img),
                    "symbol {s} after {flips} flips"
                );
                img[(usize::from(s) + 7 * flips) % 31] ^= 1;
            }
        }
    }

    #[test]
    fn packed_table_matches_bit_table() {
        let packed = msk_correspondence_table_packed();
        let table = msk_correspondence_table();
        for s in 0..16usize {
            assert_eq!(packed[s], wazabee_dsp::packed::pack_u32(&table[s]), "{s}");
            assert_eq!(packed[s] >> 31, 0, "image {s} must fit in 31 bits");
        }
    }

    #[test]
    fn boundary_bit_parity() {
        assert_eq!(boundary_msk_bit(1, 1, true), 1);
        assert_eq!(boundary_msk_bit(1, 1, false), 0);
        assert_eq!(boundary_msk_bit(0, 1, false), 1);
    }

    proptest! {
        #[test]
        fn prop_round_trip_arbitrary_chips(
            chips in proptest::collection::vec(0u8..=1, 2..200),
            prev in 0u8..=1,
        ) {
            let msk = frame_chips_to_msk(&chips, prev);
            let back = msk_to_chips(&msk, prev, false);
            prop_assert_eq!(back, chips);
        }

        #[test]
        fn prop_complementing_chips_preserves_internal_msk(
            chips in proptest::collection::vec(0u8..=1, 2..100),
        ) {
            // The internal MSK image only sees chip differences, so the
            // complemented chip stream has the same image.
            let comp: Vec<u8> = chips.iter().map(|c| c ^ 1).collect();
            prop_assert_eq!(chips_to_msk(&chips, false), chips_to_msk(&comp, false));
        }

        #[test]
        fn prop_concatenation_is_images_plus_boundary(
            a in 0u8..16, b in 0u8..16,
        ) {
            // The MSK stream of two concatenated symbols is image(a) ·
            // boundary · image(b).
            let chips: Vec<u8> = pn_sequence(a).iter().chain(pn_sequence(b)).copied().collect();
            let msk = chips_to_msk(&chips, false);
            prop_assert_eq!(&msk[..31], &pn_msk_image(a)[..]);
            prop_assert_eq!(&msk[32..], &pn_msk_image(b)[..]);
            let boundary = boundary_msk_bit(pn_sequence(a)[31], pn_sequence(b)[0], false);
            prop_assert_eq!(msk[31], boundary);
        }
    }
}
