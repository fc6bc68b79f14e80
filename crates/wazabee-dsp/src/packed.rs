//! Word-packed bit streams: the fast path behind every hot bit-level kernel.
//!
//! The canonical on-air representation in this workspace is a `Vec<u8>` of
//! 0/1 values — convenient, but every Hamming distance and sync correlation
//! over it costs one byte operation per bit. [`PackedBits`] stores the same
//! stream 64 bits per `u64` word (bit *k* of the stream in word `k / 64` at
//! position `k % 64`, matching the LSB-first on-air order of
//! [`crate::bits::bytes_to_bits_lsb`]), so Hamming distance becomes
//! XOR + `count_ones` and sync correlation becomes a sliding shift register —
//! the same trick real radio correlator hardware plays.
//!
//! Scalar byte-per-bit reference implementations remain available in
//! [`crate::bits`] and [`crate::correlate`]; property tests assert the two
//! agree bit-for-bit.

use crate::correlate::PatternMatch;

/// A bit stream packed 64 bits per word, LSB-first.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::packed::PackedBits;
/// let p = PackedBits::from_bits(&[1, 0, 1, 1]);
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.bit(2), 1);
/// assert_eq!(p.extract(0, 4), 0b1101);
/// assert_eq!(p.to_bits(), vec![1, 0, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Packs a 0/1 slice (values are masked to their lowest bit).
    pub fn from_bits(bits: &[u8]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (k, &b) in bits.iter().enumerate() {
            words[k / 64] |= u64::from(b & 1) << (k % 64);
        }
        PackedBits {
            words,
            len: bits.len(),
        }
    }

    /// Number of bits in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying 64-bit words (the final word is zero-padded).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bit `k` of the stream (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn bit(&self, k: usize) -> u8 {
        assert!(k < self.len, "bit index {k} out of range {}", self.len);
        ((self.words[k / 64] >> (k % 64)) & 1) as u8
    }

    /// Extracts `count ≤ 64` bits starting at `start`, returned LSB-first in
    /// a `u64` (bit *j* of the window at position *j*).
    ///
    /// # Panics
    ///
    /// Panics if `count > 64` or the window exceeds the stream.
    pub fn extract(&self, start: usize, count: usize) -> u64 {
        assert!(count <= 64, "cannot extract {count} > 64 bits");
        assert!(
            start + count <= self.len,
            "window {start}+{count} exceeds stream length {}",
            self.len
        );
        if count == 0 {
            return 0;
        }
        let word = start / 64;
        let shift = start % 64;
        let mut v = self.words[word] >> shift;
        if shift != 0 && word + 1 < self.words.len() {
            v |= self.words[word + 1] << (64 - shift);
        }
        if count == 64 {
            v
        } else {
            v & ((1u64 << count) - 1)
        }
    }

    /// Extracts `count ≤ 32` bits starting at `start` as a `u32` — the shape
    /// the packed despreading tables consume.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32` or the window exceeds the stream.
    pub fn extract_u32(&self, start: usize, count: usize) -> u32 {
        assert!(count <= 32, "cannot extract {count} > 32 bits into a u32");
        self.extract(start, count) as u32
    }

    /// Unpacks back to the byte-per-bit representation.
    pub fn to_bits(&self) -> Vec<u8> {
        (0..self.len).map(|k| self.bit(k)).collect()
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another stream of the same length, computed one
    /// XOR + `count_ones` per 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &PackedBits) -> usize {
        assert_eq!(self.len, other.len, "hamming distance needs equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Appends one bit (masked to its lowest bit) at the end of the stream.
    pub fn push(&mut self, bit: u8) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        let word = self.len / 64;
        self.words[word] |= u64::from(bit & 1) << (self.len % 64);
        self.len += 1;
    }

    /// Appends a 0/1 slice (values masked to their lowest bit) at the end of
    /// the stream — the growth path of the streaming correlator lanes.
    pub fn extend_from_bits(&mut self, bits: &[u8]) {
        for &b in bits {
            self.push(b);
        }
    }

    /// Empties the stream while keeping the word allocation — the recycle
    /// path of pooled receive engines, which reset between sessions instead
    /// of reallocating every lane.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Drops `words` whole 64-bit words (`words * 64` bits) from the front of
    /// the stream; bit `k` of the result is bit `k + words * 64` of the
    /// original. Trimming whole words keeps every surviving bit at its old
    /// in-word position, so the operation is a cheap `drain` with no reshifts.
    ///
    /// # Panics
    ///
    /// Panics if `words * 64` exceeds the stream length.
    pub fn drop_front_words(&mut self, words: usize) {
        let bits = words * 64;
        assert!(
            bits <= self.len,
            "cannot drop {bits} bits from a {}-bit stream",
            self.len
        );
        self.words.drain(..words);
        self.len -= bits;
    }
}

/// Packs up to 32 LSB-first bits into a `u32` (values masked to their lowest
/// bit) — the input shape of the packed despreading tables.
///
/// # Panics
///
/// Panics if `bits` is longer than 32.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::packed::pack_u32;
/// assert_eq!(pack_u32(&[1, 0, 1, 1]), 0b1101);
/// ```
pub fn pack_u32(bits: &[u8]) -> u32 {
    assert!(
        bits.len() <= 32,
        "cannot pack {} bits into a u32",
        bits.len()
    );
    bits.iter()
        .enumerate()
        .fold(0u32, |acc, (k, &b)| acc | (u32::from(b & 1) << k))
}

/// Packs up to 64 LSB-first bits into a `u64`.
///
/// # Panics
///
/// Panics if `bits` is longer than 64.
pub fn pack_u64(bits: &[u8]) -> u64 {
    assert!(
        bits.len() <= 64,
        "cannot pack {} bits into a u64",
        bits.len()
    );
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (k, &b)| acc | (u64::from(b & 1) << (k % 64)))
}

/// Finds the first alignment of `pattern` in `stream` with at most
/// `max_errors` mismatches, scanning from `start` — bit-identical to the
/// scalar [`crate::correlate::find_pattern_scalar`], but word-packed.
///
/// Patterns of 64 bits or fewer run through a sliding shift register (one
/// shift + XOR + `count_ones` per stream bit, independent of pattern
/// length); longer patterns compare whole 64-bit words per alignment with
/// early exit once the error budget is blown.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::correlate::find_pattern_scalar;
/// use wazabee_dsp::packed::find_pattern_packed;
/// use wazabee_dsp::PackedBits;
///
/// let stream = [0, 0, 1, 0, 1, 1, 0];
/// let pattern = [1, 0, 1];
/// let m = find_pattern_packed(
///     &PackedBits::from_bits(&stream),
///     &PackedBits::from_bits(&pattern),
///     0,
///     0,
/// )
/// .unwrap();
/// assert_eq!(m.index, 2);
/// assert_eq!(m.errors, 0);
/// assert_eq!(Some(m), find_pattern_scalar(&stream, &pattern, 0, 0));
/// ```
pub fn find_pattern_packed(
    stream: &PackedBits,
    pattern: &PackedBits,
    start: usize,
    max_errors: usize,
) -> Option<PatternMatch> {
    let m = pattern.len();
    if m == 0 || stream.len() < m {
        return None;
    }
    let last = stream.len() - m;
    if start > last {
        return None;
    }
    if m <= 64 {
        find_short(stream, pattern, start, last, max_errors)
    } else {
        find_long(stream, pattern, start, last, max_errors, false)
    }
}

/// Finds the best (fewest-errors) alignment of `pattern` in `stream` —
/// bit-identical to [`crate::correlate::best_pattern_match_scalar`]. Ties
/// take the earliest index; an exact match short-circuits.
pub fn best_pattern_match_packed(
    stream: &PackedBits,
    pattern: &PackedBits,
) -> Option<PatternMatch> {
    let m = pattern.len();
    if m == 0 || stream.len() < m {
        return None;
    }
    let last = stream.len() - m;
    if m <= 64 {
        best_short(stream, pattern, last)
    } else {
        // A best-match search is a threshold search whose budget tightens as
        // better alignments appear.
        find_long(stream, pattern, 0, last, usize::MAX, true)
    }
}

/// Sliding-register search for patterns of 64 bits or fewer: the register
/// shifts right as stream bits arrive at the top, so after consuming bit
/// `i ≥ m − 1` it holds the window starting at `i − m + 1` in LSB-first
/// order, ready for a single XOR + `count_ones` against the packed pattern.
fn find_short(
    stream: &PackedBits,
    pattern: &PackedBits,
    start: usize,
    last: usize,
    max_errors: usize,
) -> Option<PatternMatch> {
    let m = pattern.len();
    let pat = pattern.words()[0];
    let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    // Preload the register with the window ending just before the first
    // candidate alignment, then slide.
    let mut reg = stream.extract(start, m - 1) << 1;
    for index in start..=last {
        reg = (reg >> 1) | (u64::from(stream.bit(index + m - 1)) << (m - 1));
        let errors = ((reg ^ pat) & mask).count_ones() as usize;
        if errors <= max_errors {
            return Some(PatternMatch { index, errors });
        }
    }
    None
}

fn best_short(stream: &PackedBits, pattern: &PackedBits, last: usize) -> Option<PatternMatch> {
    let m = pattern.len();
    let pat = pattern.words()[0];
    let mask = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
    let mut reg = stream.extract(0, m - 1) << 1;
    let mut best: Option<PatternMatch> = None;
    for index in 0..=last {
        reg = (reg >> 1) | (u64::from(stream.bit(index + m - 1)) << (m - 1));
        let errors = ((reg ^ pat) & mask).count_ones() as usize;
        if best.is_none_or(|b| errors < b.errors) {
            best = Some(PatternMatch { index, errors });
            if errors == 0 {
                break;
            }
        }
    }
    best
}

/// Word-per-alignment search for patterns longer than 64 bits. In threshold
/// mode (`best = false`) it returns the first alignment within `max_errors`;
/// in best mode it keeps the running minimum, using it as an early-exit
/// budget for subsequent alignments.
fn find_long(
    stream: &PackedBits,
    pattern: &PackedBits,
    start: usize,
    last: usize,
    max_errors: usize,
    best_mode: bool,
) -> Option<PatternMatch> {
    let m = pattern.len();
    let words = pattern.words();
    let full_words = m / 64;
    let tail = m % 64;
    let mut best: Option<PatternMatch> = None;
    for index in start..=last {
        let budget = if best_mode {
            best.map_or(usize::MAX, |b| b.errors.saturating_sub(1))
        } else {
            max_errors
        };
        let mut errors = 0usize;
        for (w, &pw) in words.iter().enumerate().take(full_words) {
            errors += (stream.extract(index + w * 64, 64) ^ pw).count_ones() as usize;
            if errors > budget {
                break;
            }
        }
        if tail != 0 && errors <= budget {
            errors += (stream.extract(index + full_words * 64, tail) ^ words[full_words])
                .count_ones() as usize;
        }
        if errors > budget {
            continue;
        }
        if best_mode {
            if best.is_none_or(|b| errors < b.errors) {
                best = Some(PatternMatch { index, errors });
                if errors == 0 {
                    break;
                }
            }
        } else {
            return Some(PatternMatch { index, errors });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::{best_pattern_match_scalar, find_pattern_scalar};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_bits(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    #[test]
    fn clear_empties_and_stream_regrows_identically() {
        let bits = random_bits(7, 300);
        let mut p = PackedBits::from_bits(&bits);
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        p.extend_from_bits(&bits);
        assert_eq!(p, PackedBits::from_bits(&bits));
    }

    #[test]
    fn round_trip_various_lengths() {
        for n in [0usize, 1, 7, 63, 64, 65, 127, 128, 319, 1000] {
            let bits = random_bits(n as u64, n);
            let p = PackedBits::from_bits(&bits);
            assert_eq!(p.len(), n);
            assert_eq!(p.to_bits(), bits, "length {n}");
        }
    }

    #[test]
    fn values_are_masked_to_lowest_bit() {
        let p = PackedBits::from_bits(&[2, 3, 0xFF, 0]);
        assert_eq!(p.to_bits(), vec![0, 1, 1, 0]);
    }

    #[test]
    fn extract_crosses_word_boundaries() {
        let bits = random_bits(42, 200);
        let p = PackedBits::from_bits(&bits);
        for start in [0usize, 1, 33, 60, 63, 64, 65, 100, 136] {
            for count in [0usize, 1, 31, 32, 33, 63, 64] {
                let got = p.extract(start, count);
                let want = pack_u64(&bits[start..start + count]);
                assert_eq!(got, want, "start {start} count {count}");
            }
        }
    }

    #[test]
    fn extract_u32_matches_pack_u32() {
        let bits = random_bits(7, 96);
        let p = PackedBits::from_bits(&bits);
        for start in 0..64 {
            assert_eq!(p.extract_u32(start, 31), pack_u32(&bits[start..start + 31]));
        }
    }

    #[test]
    fn hamming_matches_scalar() {
        for n in [1usize, 64, 65, 319, 500] {
            let a = random_bits(n as u64, n);
            let b = random_bits(n as u64 + 1, n);
            let want = crate::bits::hamming(&a, &b);
            let got = PackedBits::from_bits(&a).hamming(&PackedBits::from_bits(&b));
            assert_eq!(got, want, "length {n}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn hamming_rejects_mismatched_lengths() {
        let _ = PackedBits::from_bits(&[1]).hamming(&PackedBits::from_bits(&[1, 0]));
    }

    #[test]
    fn count_ones_counts() {
        assert_eq!(PackedBits::from_bits(&random_bits(3, 130)).count_ones(), {
            random_bits(3, 130).iter().filter(|&&b| b == 1).count()
        });
    }

    #[test]
    fn short_pattern_search_matches_scalar() {
        let stream = random_bits(11, 600);
        for (seed, m) in [
            (20u64, 1usize),
            (21, 2),
            (22, 31),
            (23, 32),
            (24, 63),
            (25, 64),
        ] {
            let pattern = random_bits(seed, m);
            let ps = PackedBits::from_bits(&stream);
            let pp = PackedBits::from_bits(&pattern);
            for max_errors in [0usize, 1, m / 4, m / 2, m] {
                for start in [0usize, 5, 100] {
                    assert_eq!(
                        find_pattern_packed(&ps, &pp, start, max_errors),
                        find_pattern_scalar(&stream, &pattern, start, max_errors),
                        "m {m} max_errors {max_errors} start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn long_pattern_search_matches_scalar() {
        let mut stream = random_bits(31, 200);
        let pattern = random_bits(32, 319);
        stream.extend_from_slice(&pattern);
        stream.extend_from_slice(&random_bits(33, 50));
        stream[250] ^= 1; // one error inside the planted pattern
        let ps = PackedBits::from_bits(&stream);
        let pp = PackedBits::from_bits(&pattern);
        for max_errors in [0usize, 1, 5, 32] {
            assert_eq!(
                find_pattern_packed(&ps, &pp, 0, max_errors),
                find_pattern_scalar(&stream, &pattern, 0, max_errors),
                "max_errors {max_errors}"
            );
        }
    }

    #[test]
    fn best_match_agrees_with_scalar() {
        for (sseed, pseed, n, m) in [(40u64, 41u64, 300usize, 32usize), (42, 43, 400, 319)] {
            let stream = random_bits(sseed, n);
            let pattern = random_bits(pseed, m);
            assert_eq!(
                best_pattern_match_packed(
                    &PackedBits::from_bits(&stream),
                    &PackedBits::from_bits(&pattern)
                ),
                best_pattern_match_scalar(&stream, &pattern),
                "n {n} m {m}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_find_nothing() {
        let empty = PackedBits::from_bits(&[]);
        let one = PackedBits::from_bits(&[1]);
        let two = PackedBits::from_bits(&[1, 0]);
        assert_eq!(find_pattern_packed(&two, &empty, 0, 0), None);
        assert_eq!(find_pattern_packed(&one, &two, 0, 2), None);
        assert_eq!(find_pattern_packed(&two, &two, 1, 2), None);
        assert_eq!(best_pattern_match_packed(&one, &two), None);
        assert_eq!(best_pattern_match_packed(&two, &empty), None);
    }

    #[test]
    fn start_offset_skips_early_matches() {
        let stream = PackedBits::from_bits(&[1, 0, 1, 0, 1, 0]);
        let pattern = PackedBits::from_bits(&[1, 0]);
        let m = find_pattern_packed(&stream, &pattern, 1, 0).unwrap();
        assert_eq!(m.index, 2);
    }

    #[test]
    fn incremental_append_equals_from_bits() {
        let bits = random_bits(51, 300);
        for split in [0usize, 1, 63, 64, 65, 150, 299, 300] {
            let mut p = PackedBits::from_bits(&bits[..split]);
            p.extend_from_bits(&bits[split..]);
            assert_eq!(p, PackedBits::from_bits(&bits), "split {split}");
        }
        let mut q = PackedBits::default();
        for &b in &bits {
            q.push(b);
        }
        assert_eq!(q, PackedBits::from_bits(&bits));
    }

    #[test]
    fn drop_front_words_leaves_suffix() {
        let bits = random_bits(52, 400);
        for words in [0usize, 1, 3, 6] {
            let mut p = PackedBits::from_bits(&bits);
            p.drop_front_words(words);
            assert_eq!(p.to_bits(), &bits[words * 64..], "words {words}");
            // A trimmed stream keeps growing correctly.
            p.push(1);
            assert_eq!(p.bit(p.len() - 1), 1);
        }
    }

    #[test]
    #[should_panic(expected = "cannot drop")]
    fn drop_front_words_rejects_overdrain() {
        PackedBits::from_bits(&random_bits(53, 100)).drop_front_words(2);
    }
}
