//! Pattern correlation over bit streams and soft-decision sequences.
//!
//! Radio receivers find the start of a frame by correlating the incoming bit
//! stream against a known pattern (BLE: the access address; 802.15.4: the
//! preamble/SFD chips). WazaBee's RX primitive abuses exactly this machinery,
//! so the simulator exposes it as a first-class operation.

use crate::bits::hamming;

/// A match produced by [`crate::packed::find_pattern_packed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMatch {
    /// Index in the haystack where the pattern starts.
    pub index: usize,
    /// Number of mismatching bits at that alignment.
    pub errors: usize,
}

/// The scalar byte-per-bit reference implementation of
/// [`crate::packed::find_pattern_packed`]: O(n·m), kept for property tests
/// and micro-benchmarks against the packed fast path.
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

/// The scalar byte-per-bit reference implementation of
/// [`crate::packed::best_pattern_match_packed`].
pub fn best_pattern_match_scalar(stream: &[u8], pattern: &[u8]) -> Option<PatternMatch> {
    if pattern.is_empty() || stream.len() < pattern.len() {
        return None;
    }
    let last = stream.len() - pattern.len();
    let mut best: Option<PatternMatch> = None;
    for index in 0..=last {
        let errors = hamming(&stream[index..index + pattern.len()], pattern);
        if best.is_none_or(|b| errors < b.errors) {
            best = Some(PatternMatch { index, errors });
            if errors == 0 {
                break;
            }
        }
    }
    best
}

/// Soft correlation of a bipolar template against a soft-decision stream:
/// returns the normalised dot product at every alignment (range ≈ [−1, 1] for
/// matched amplitudes).
pub fn soft_correlate(stream: &[f64], template: &[f64]) -> Vec<f64> {
    if template.is_empty() || stream.len() < template.len() {
        return Vec::new();
    }
    let energy: f64 = template.iter().map(|t| t * t).sum();
    if energy == 0.0 {
        return vec![0.0; stream.len() - template.len() + 1];
    }
    (0..=stream.len() - template.len())
        .map(|k| {
            stream[k..k + template.len()]
                .iter()
                .zip(template)
                .map(|(s, t)| s * t)
                .sum::<f64>()
                / energy
        })
        .collect()
}

/// Index of the maximum of a slice (`None` for an empty slice; ties take the
/// earliest index).
pub fn argmax(values: &[f64]) -> Option<usize> {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{best_pattern_match_packed, find_pattern_packed, PackedBits};

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

    #[test]
    fn best_match_minimises_errors() {
        let stream = [1, 0, 0, 1, 1, 1, 0, 1];
        let pattern = [1, 1, 1, 1];
        let b = best_pattern_match_packed(
            &PackedBits::from_bits(&stream),
            &PackedBits::from_bits(&pattern),
        )
        .unwrap();
        assert_eq!(Some(b), best_pattern_match_scalar(&stream, &pattern));
        assert_eq!(b.index, 2); // earliest of the 1-error alignments
        assert_eq!(b.errors, 1);
    }

    #[test]
    fn soft_correlation_peaks_at_alignment() {
        let template = [1.0, -1.0, 1.0, 1.0];
        let mut stream = vec![0.1, -0.2, 0.0];
        stream.extend_from_slice(&template);
        stream.push(0.3);
        let c = soft_correlate(&stream, &template);
        assert_eq!(argmax(&c), Some(3));
        assert!((c[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn soft_correlation_of_inverted_template_is_minus_one() {
        let template = [1.0, -1.0, 1.0];
        let stream: Vec<f64> = template.iter().map(|x| -x).collect();
        let c = soft_correlate(&stream, &template);
        assert!((c[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn argmax_handles_edges() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[2.0]), Some(0));
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1)); // earliest tie wins
    }
}
