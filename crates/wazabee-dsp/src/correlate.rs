//! Pattern correlation over bit streams.
//!
//! Radio receivers find the start of a frame by correlating the incoming bit
//! stream against a known pattern (BLE: the access address; 802.15.4: the
//! preamble/SFD chips). WazaBee's RX primitive abuses exactly this machinery,
//! so the simulator exposes it as a first-class operation. The search every
//! receive path runs is word-packed ([`crate::packed::find_pattern_packed`]
//! and its streaming form [`crate::stream::StreamCorrelator`]); this module
//! keeps the match type and the byte-per-bit oracle that search is tested
//! against.

use crate::bits::hamming;

/// A match produced by [`crate::packed::find_pattern_packed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMatch {
    /// Index in the haystack where the pattern starts.
    pub index: usize,
    /// Number of mismatching bits at that alignment.
    pub errors: usize,
}

/// The byte-per-bit reference of [`crate::packed::find_pattern_packed`]:
/// one Hamming distance per alignment, O(n·m). No receive path calls it; it
/// is the oracle the packed sync search is tested and benchmarked against.
pub fn find_pattern_scalar(
    stream: &[u8],
    pattern: &[u8],
    start: usize,
    max_errors: usize,
) -> Option<PatternMatch> {
    if pattern.is_empty() || stream.len() < pattern.len() {
        return None;
    }
    let last = stream.len() - pattern.len();
    for index in start..=last {
        let errors = hamming(&stream[index..index + pattern.len()], pattern);
        if errors <= max_errors {
            return Some(PatternMatch { index, errors });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{find_pattern_packed, PackedBits};

    /// Runs the packed correlator on byte-per-bit inputs, checked against
    /// the scalar twin.
    fn find_pattern(
        stream: &[u8],
        pattern: &[u8],
        start: usize,
        max_errors: usize,
    ) -> Option<PatternMatch> {
        let packed = find_pattern_packed(
            &PackedBits::from_bits(stream),
            &PackedBits::from_bits(pattern),
            start,
            max_errors,
        );
        assert_eq!(
            packed,
            find_pattern_scalar(stream, pattern, start, max_errors)
        );
        packed
    }

    #[test]
    fn exact_match_found() {
        let stream = [1, 1, 0, 1, 0, 0, 1];
        let m = find_pattern(&stream, &[0, 1, 0], 0, 0).unwrap();
        assert_eq!(
            m,
            PatternMatch {
                index: 2,
                errors: 0
            }
        );
    }

    #[test]
    fn tolerant_match_counts_errors() {
        let stream = [1, 1, 0, 1, 1, 0, 1];
        // Every 3-bit window of this stream differs from 0,0,0 in exactly
        // two positions, so a 1-error search fails and a 2-error search
        // matches at the first alignment.
        assert!(find_pattern(&stream, &[0, 0, 0], 0, 1).is_none());
        let m = find_pattern(&stream, &[0, 0, 0], 0, 2).unwrap();
        assert_eq!(m.index, 0);
        assert_eq!(m.errors, 2);
    }

    #[test]
    fn start_offset_skips_early_matches() {
        let stream = [1, 0, 1, 0, 1, 0];
        let m = find_pattern(&stream, &[1, 0], 1, 0).unwrap();
        assert_eq!(m.index, 2);
    }

    #[test]
    fn no_match_in_short_stream() {
        assert!(find_pattern(&[1, 0], &[1, 0, 1], 0, 3).is_none());
        assert!(find_pattern(&[], &[1], 0, 0).is_none());
        assert!(find_pattern(&[1], &[], 0, 0).is_none());
    }
}
