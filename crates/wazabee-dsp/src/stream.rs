//! Stateful sync correlation for chunk-fed bit streams.
//!
//! [`crate::packed::find_pattern_packed`] answers "where does the pattern
//! first match in this buffer?" — fine for one-shot captures, useless for a
//! receiver that ingests IQ in arbitrary chunks: restarting the search on
//! every chunk is quadratic and loses matches that straddle a boundary.
//! [`StreamCorrelator`] is the streaming form of the same sliding shift
//! register: the register (and an absolute consumed-bit counter) is carried
//! across calls, so feeding the same bits in any chunking reports the same
//! matches at the same absolute indexes — exactly what a real radio's
//! always-armed access-address correlator does.

use crate::correlate::PatternMatch;
use crate::packed::PackedBits;

/// A sliding-register sync correlator that persists across chunk boundaries.
///
/// Bits are pushed in stream order; once at least `pattern_len()` bits have
/// been consumed, every push compares the register window against the packed
/// pattern and reports a [`PatternMatch`] (with the *absolute* index of the
/// window start) whenever the Hamming distance is within the error budget.
/// Unlike the one-shot search, *every* qualifying alignment is reported, not
/// just the first — the caller decides which attempt to act on and which to
/// re-arm past.
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
    pat: u64,
    mask: u64,
    len: usize,
    max_errors: usize,
    reg: u64,
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
            pat: pattern.words()[0],
            mask: if m == 64 { u64::MAX } else { (1u64 << m) - 1 },
            len: m,
            max_errors,
            reg: 0,
            consumed: 0,
        }
    }

    /// Clears the sliding register and the consumed-bit counter, returning
    /// the correlator to its freshly constructed state (same pattern, same
    /// error budget) — the recycle path of pooled receive engines.
    pub fn reset(&mut self) {
        self.reg = 0;
        self.consumed = 0;
    }

    /// Pattern length in bits.
    pub fn pattern_len(&self) -> usize {
        self.len
    }

    /// The error budget alignments must stay within to be reported.
    pub fn max_errors(&self) -> usize {
        self.max_errors
    }

    /// Total bits consumed since construction. Every alignment with
    /// `index + pattern_len() <= consumed()` has already been reported.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Consumes one bit (masked to its lowest bit); reports the alignment
    /// ending at this bit if it is complete and within the error budget.
    pub fn push(&mut self, bit: u8) -> Option<PatternMatch> {
        self.reg = (self.reg >> 1) | (u64::from(bit & 1) << (self.len - 1));
        self.consumed += 1;
        self.score(self.reg, self.consumed)
    }

    /// The alignment held in `reg` after `consumed` bits, if it is complete
    /// and within the error budget.
    #[inline(always)]
    fn score(&self, reg: u64, consumed: usize) -> Option<PatternMatch> {
        if consumed < self.len {
            return None;
        }
        let errors = ((reg ^ self.pat) & self.mask).count_ones() as usize;
        (errors <= self.max_errors).then(|| PatternMatch {
            index: consumed - self.len,
            errors,
        })
    }

    /// Consumes a 0/1 slice, appending every qualifying alignment to `out`.
    pub fn feed_bits(&mut self, bits: &[u8], out: &mut Vec<PatternMatch>) {
        for &b in bits {
            out.extend(self.push(b));
        }
    }

    /// Consumes bits `from..stream.len()` of a packed stream, appending every
    /// qualifying alignment to `out` — the shape the receive engine uses
    /// after appending freshly demodulated bits to a lane. Equal to
    /// [`StreamCorrelator::push`] over each bit in turn, but reads the stream
    /// a word at a time and shifts its bits out of a register.
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
        let top = self.len - 1;
        let (mut reg, mut consumed) = (self.reg, self.consumed);
        let mut k = from;
        while k < end {
            let shift = k % 64;
            let take = (64 - shift).min(end - k);
            let mut word = stream.words()[k / 64] >> shift;
            for _ in 0..take {
                reg = (reg >> 1) | ((word & 1) << top);
                word >>= 1;
                consumed += 1;
                if let Some(pm) = self.score(reg, consumed) {
                    out.push(pm);
                }
            }
            k += take;
        }
        self.reg = reg;
        self.consumed = consumed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::find_pattern_packed;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_bits(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    /// Reference: every alignment within the budget, via the one-shot search
    /// restarted one bit past each hit.
    fn all_matches(
        stream: &PackedBits,
        pattern: &PackedBits,
        max_errors: usize,
    ) -> Vec<PatternMatch> {
        let mut out = Vec::new();
        let mut start = 0usize;
        while let Some(m) = find_pattern_packed(stream, pattern, start, max_errors) {
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
            let pattern = PackedBits::from_bits(&random_bits(seed, m));
            let mut corr = StreamCorrelator::new(&pattern, max_errors);
            let mut got = Vec::new();
            corr.feed_bits(&bits, &mut got);
            assert_eq!(
                got,
                all_matches(&stream, &pattern, max_errors),
                "m {m} max_errors {max_errors}"
            );
            assert_eq!(corr.consumed(), bits.len());
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
            let pattern = PackedBits::from_bits(&random_bits(200 + m as u64, m));
            // A budget loose enough that every pattern length has hits.
            let max_errors = m * 2 / 5;
            let mut want = Vec::new();
            StreamCorrelator::new(&pattern, max_errors).feed_bits(&bits, &mut want);
            assert!(!want.is_empty(), "m {m}: no hits to compare");

            // Start anywhere (the earlier bits fed per bit), then grow a
            // packed lane in random chunks and feed only the fresh tail each
            // time — the engine's ingest loop.
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
            assert_eq!(got, want, "m {m} from {from}");
            assert_eq!(once_got, want, "m {m} from {from} (one call)");
            assert_eq!(corr.consumed(), bits.len());
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
