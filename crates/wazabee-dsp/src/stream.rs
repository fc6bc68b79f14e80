//! Stateful sync correlation for chunk-fed bit streams.
//!
//! [`crate::packed::find_pattern_packed`] answers "where does the pattern
//! first match in this buffer?" — fine for one-shot captures, useless for a
//! receiver that ingests IQ in arbitrary chunks: restarting the search on
//! every chunk is quadratic and loses matches that straddle a boundary.
//! [`StreamCorrelator`] is the streaming form of the same search: it carries
//! the last `pattern_len() − 1` bits and an absolute consumed-bit counter
//! across calls, so feeding the same bits in any chunking reports the same
//! matches at the same absolute indexes — exactly what a real radio's
//! always-armed access-address correlator does. Each call screens 64
//! alignments per step with the pigeonhole prefilter and scores only the
//! candidates (see [`crate::packed::find_pattern_packed`]).

use crate::correlate::PatternMatch;
use crate::packed::{PackedBits, SyncSearch};

/// A streaming sync correlator that persists across chunk boundaries.
///
/// Bits are fed in stream order; every alignment whose last bit is among
/// the fed bits is compared against the pattern, and a [`PatternMatch`]
/// (with the *absolute* index of the window start) is reported whenever the
/// Hamming distance is within the error budget. Unlike the one-shot search,
/// *every* qualifying alignment is reported, not just the first — the
/// caller decides which attempt to act on and which to re-arm past.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::stream::StreamCorrelator;
/// use wazabee_dsp::PackedBits;
///
/// let pattern = PackedBits::from_bits(&[1, 0, 1, 1]);
/// let mut corr = StreamCorrelator::new(&pattern, 0);
/// let mut hits = Vec::new();
/// // Feed one chunk at a time; the match straddles the boundary.
/// corr.feed_bits(&[0, 0, 1, 0], &mut hits);
/// corr.feed_bits(&[1, 1, 0], &mut hits);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].index, 2);
/// ```
#[derive(Debug, Clone)]
pub struct StreamCorrelator {
    search: SyncSearch<[u64; 1]>,
    /// The last `pattern_len() − 1` consumed bits, oldest in bit 0: the
    /// look-back that completes alignments straddling a call boundary.
    tail: u64,
    consumed: usize,
}

impl StreamCorrelator {
    /// Builds a correlator for `pattern` (1..=64 bits) accepting alignments
    /// with at most `max_errors` bit mismatches.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty or longer than 64 bits.
    pub fn new(pattern: &PackedBits, max_errors: usize) -> Self {
        let m = pattern.len();
        assert!(
            (1..=64).contains(&m),
            "streaming correlator needs a 1..=64-bit pattern, got {m}"
        );
        StreamCorrelator {
            search: SyncSearch::new([pattern.words()[0]], m, max_errors),
            tail: 0,
            consumed: 0,
        }
    }

    /// Clears the look-back bits and the consumed-bit counter, returning
    /// the correlator to its freshly constructed state (same pattern, same
    /// error budget) — the recycle path of pooled receive engines.
    pub fn reset(&mut self) {
        self.tail = 0;
        self.consumed = 0;
    }

    /// Pattern length in bits.
    pub fn pattern_len(&self) -> usize {
        self.search.len()
    }

    /// The error budget alignments must stay within to be reported.
    pub fn max_errors(&self) -> usize {
        self.search.max_errors()
    }

    /// Total bits consumed since construction. Every alignment with
    /// `index + pattern_len() <= consumed()` has already been reported.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Consumes a 0/1 slice (values masked to their lowest bit), appending
    /// every qualifying alignment to `out`.
    pub fn feed_bits(&mut self, bits: &[u8], out: &mut Vec<PatternMatch>) {
        self.feed_packed(&PackedBits::from_bits(bits), 0, out);
    }

    /// Consumes bits `from..stream.len()` of a packed stream, appending every
    /// qualifying alignment to `out` in ascending order — the shape the
    /// receive engine uses after appending freshly demodulated bits to a
    /// lane. Bits before `from` are never read: the alignments that reach
    /// back before it take their first bits from the correlator's own
    /// look-back.
    ///
    /// # Panics
    ///
    /// Panics if `from` exceeds the stream length.
    pub fn feed_packed(&mut self, stream: &PackedBits, from: usize, out: &mut Vec<PatternMatch>) {
        let end = stream.len();
        assert!(
            from <= end,
            "feed_packed start {from} exceeds stream length {end}"
        );
        let fresh = end - from;
        if fresh == 0 {
            return;
        }
        // The scan reads the look-back bits followed by the fresh ones:
        // bit `s` of that view is absolute bit `consumed − back + s`.
        let back = self.pattern_len() - 1;
        let head = self.tail | (stream.word_at(from) << back);
        let word = |k: usize| {
            if k == 0 {
                head
            } else {
                stream.word_at(from + 64 * k - back)
            }
        };
        let consumed = self.consumed;
        // Alignments that would start before bit 0 of the stream are void.
        let first = back.saturating_sub(consumed);
        if first < fresh {
            self.search.scan(word, first, fresh - 1, |s, errors| {
                out.push(PatternMatch {
                    index: consumed + s - back,
                    errors,
                });
                true
            });
        }
        let (k, shift) = (fresh / 64, fresh % 64);
        let window = (word(k) >> shift) | ((word(k + 1) << 1) << (63 - shift));
        self.tail = window & !(u64::MAX << back);
        self.consumed += fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::find_pattern_scalar;
    use crate::packed::find_pattern_packed;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_bits(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    /// The oracle: every alignment within the budget, via the byte-per-bit
    /// search restarted one bit past each hit.
    fn all_matches(bits: &[u8], pattern: &[u8], max_errors: usize) -> Vec<PatternMatch> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(m) = find_pattern_scalar(bits, pattern, start, max_errors) {
            start = m.index + 1;
            out.push(m);
        }
        out
    }

    #[test]
    fn streaming_matches_one_shot_search() {
        let bits = random_bits(90, 700);
        let stream = PackedBits::from_bits(&bits);
        for (seed, m, max_errors) in [
            (91u64, 1usize, 0usize),
            (92, 8, 1),
            (93, 32, 3),
            (94, 64, 6),
        ] {
            let pattern_bits = random_bits(seed, m);
            let pattern = PackedBits::from_bits(&pattern_bits);
            let mut corr = StreamCorrelator::new(&pattern, max_errors);
            let mut got = Vec::new();
            corr.feed_bits(&bits, &mut got);
            let want = all_matches(&bits, &pattern_bits, max_errors);
            assert_eq!(got, want, "m {m} max_errors {max_errors}");
            assert_eq!(corr.consumed(), bits.len());
            // The one-shot first-hit search, restarted, agrees too.
            let mut one_shot = Vec::new();
            let mut start = 0;
            while let Some(pm) = find_pattern_packed(&stream, &pattern, start, max_errors) {
                start = pm.index + 1;
                one_shot.push(pm);
            }
            assert_eq!(one_shot, want, "m {m} max_errors {max_errors} (one-shot)");
        }
    }

    #[test]
    fn chunking_never_changes_matches() {
        let bits = random_bits(95, 500);
        let pattern = PackedBits::from_bits(&random_bits(96, 32));
        let mut whole = Vec::new();
        StreamCorrelator::new(&pattern, 4).feed_bits(&bits, &mut whole);
        for chunk in [1usize, 2, 7, 31, 32, 33, 64, 499] {
            let mut corr = StreamCorrelator::new(&pattern, 4);
            let mut got = Vec::new();
            for c in bits.chunks(chunk) {
                corr.feed_bits(c, &mut got);
            }
            assert_eq!(got, whole, "chunk {chunk}");
        }
    }

    #[test]
    fn feed_packed_resumes_from_offset() {
        let bits = random_bits(102, 777);
        let stream = PackedBits::from_bits(&bits);
        let mut rng = ChaCha8Rng::seed_from_u64(103);
        for m in 1..=64usize {
            let pattern_bits = random_bits(200 + m as u64, m);
            let pattern = PackedBits::from_bits(&pattern_bits);
            // Every budget: the prefilter's segments shrink to single bits
            // at e = m − 1, and from e = m on (e + 1 > m, up to an
            // unbounded budget) every alignment is a candidate and a hit.
            for max_errors in (0..=m + 1).chain([usize::MAX]) {
                let want = all_matches(&bits, &pattern_bits, max_errors);
                if max_errors >= m {
                    assert_eq!(want.len(), bits.len() - m + 1, "m {m} e {max_errors}");
                }

                // Start anywhere (the earlier bits fed as one slice), then
                // grow a packed lane in random chunks and feed only the
                // fresh tail each time — the engine's ingest loop.
                let from = rng.gen_range(0..=bits.len());
                let mut corr = StreamCorrelator::new(&pattern, max_errors);
                let mut got = Vec::new();
                corr.feed_bits(&bits[..from], &mut got);
                let mut lane = PackedBits::from_bits(&bits[..from]);
                let mut k = from;
                while k < bits.len() {
                    let next = (k + rng.gen_range(0..=150usize)).min(bits.len());
                    lane.extend_from_bits(&bits[k..next]);
                    corr.feed_packed(&lane, k, &mut got);
                    k = next;
                }
                // Feeding a full stream from `from` in one call agrees too.
                let mut once = StreamCorrelator::new(&pattern, max_errors);
                let mut once_got = Vec::new();
                once.feed_bits(&bits[..from], &mut once_got);
                once.feed_packed(&stream, from, &mut once_got);
                assert_eq!(got, want, "m {m} e {max_errors} from {from}");
                assert_eq!(
                    once_got, want,
                    "m {m} e {max_errors} from {from} (one call)"
                );
                assert_eq!(corr.consumed(), bits.len());
            }
        }
    }

    #[test]
    fn feed_packed_never_reads_before_from() {
        // Garbage in every bit before `from` must not change a single hit:
        // the look-back comes from the correlator, not the stream.
        let bits = random_bits(104, 600);
        let pattern_bits = random_bits(105, 32);
        let pattern = PackedBits::from_bits(&pattern_bits);
        let want = all_matches(&bits, &pattern_bits, 12);
        for split in [1usize, 31, 63, 64, 65, 300] {
            let mut corr = StreamCorrelator::new(&pattern, 12);
            let mut got = Vec::new();
            corr.feed_bits(&bits[..split], &mut got);
            let mut poisoned = bits.clone();
            for b in &mut poisoned[..split] {
                *b ^= 1;
            }
            corr.feed_packed(&PackedBits::from_bits(&poisoned), split, &mut got);
            assert_eq!(got, want, "split {split}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds stream length")]
    fn feed_packed_rejects_start_past_end() {
        let pattern = PackedBits::from_bits(&[1, 0, 1]);
        let stream = PackedBits::from_bits(&[1, 0, 1, 1]);
        StreamCorrelator::new(&pattern, 0).feed_packed(&stream, 5, &mut Vec::new());
    }

    #[test]
    fn every_alignment_is_reported_not_just_the_first() {
        // 0101... matches [0,1] at every even index (errors 0) and at every
        // odd index only with 2 errors — budget 0 keeps the even ones.
        let bits: Vec<u8> = (0..10).map(|k| (k % 2) as u8).collect();
        let pattern = PackedBits::from_bits(&[0, 1]);
        let mut corr = StreamCorrelator::new(&pattern, 0);
        let mut got = Vec::new();
        corr.feed_bits(&bits, &mut got);
        let indexes: Vec<usize> = got.iter().map(|m| m.index).collect();
        assert_eq!(indexes, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn reset_restores_fresh_behaviour() {
        let bits = random_bits(99, 400);
        let pattern = PackedBits::from_bits(&random_bits(100, 24));
        let mut fresh = Vec::new();
        StreamCorrelator::new(&pattern, 2).feed_bits(&bits, &mut fresh);

        let mut corr = StreamCorrelator::new(&pattern, 2);
        let mut scratch = Vec::new();
        corr.feed_bits(&random_bits(101, 173), &mut scratch);
        corr.reset();
        assert_eq!(corr.consumed(), 0);
        let mut got = Vec::new();
        corr.feed_bits(&bits, &mut got);
        assert_eq!(got, fresh, "reset correlator must match a fresh one");
    }

    #[test]
    #[should_panic(expected = "1..=64-bit pattern")]
    fn rejects_empty_pattern() {
        let _ = StreamCorrelator::new(&PackedBits::default(), 0);
    }
}
