//! Word-packed bit streams: the fast path behind every hot bit-level kernel.
//!
//! The canonical on-air representation in this workspace is a `Vec<u8>` of
//! 0/1 values — convenient, but every Hamming distance and sync correlation
//! over it costs one byte operation per bit. [`PackedBits`] stores the same
//! stream 64 bits per `u64` word (bit *k* of the stream in word `k / 64` at
//! position `k % 64`, matching the LSB-first on-air order of
//! [`crate::bits::bytes_to_bits_lsb`]), so Hamming distance becomes
//! XOR + `count_ones`. Sync correlation screens 64 alignments per step: a
//! pigeonhole prefilter built from shifted whole words rules out nearly
//! every alignment, and only the candidates it leaves are scored with
//! `count_ones` (see [`find_pattern_packed`]).
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

    /// The 64 bits starting at `start`, LSB-first, reading zeros past the
    /// end of the stream — the word feed of the sync search.
    pub(crate) fn word_at(&self, start: usize) -> u64 {
        let (k, shift) = (start / 64, start % 64);
        let lo = self.words.get(k).copied().unwrap_or(0);
        let hi = self.words.get(k + 1).copied().unwrap_or(0);
        (lo >> shift) | ((hi << 1) << (63 - shift))
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

    /// Appends the low `count ≤ 64` bits of `word`, LSB first (bit *j* of
    /// `word` becomes stream bit `len() + j`; higher bits are ignored) — the
    /// word-at-a-time growth path of the receive engine's lanes, equal to
    /// [`PackedBits::extend_from_bits`] over the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn extend_from_word(&mut self, word: u64, count: usize) {
        assert!(count <= 64, "cannot append {count} > 64 bits from one word");
        if count == 0 {
            return;
        }
        let word = if count == 64 {
            word
        } else {
            word & ((1u64 << count) - 1)
        };
        let fill = self.len % 64;
        if fill == 0 {
            self.words.push(word);
        } else {
            *self.words.last_mut().expect("partial word") |= word << fill;
            if fill + count > 64 {
                self.words.push(word >> (64 - fill));
            }
        }
        self.len += count;
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

/// The row of `table` nearest to `x` in Hamming distance, as `(row,
/// distance)`; ties resolve to the lowest row — the despreading step over a
/// packed 16-symbol table. Runs [`nearest_row_avx2`] on hosts with AVX2,
/// [`nearest_row_portable`] elsewhere.
pub fn nearest_row(table: &[u32; 16], x: u32) -> (u8, usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_detected() {
        // SAFETY: AVX2 was detected on this host on the line above.
        return unsafe { nearest_row_avx2(table, x) };
    }
    nearest_row_portable(table, x)
}

/// [`nearest_row`] compiled for the build's baseline target.
pub fn nearest_row_portable(table: &[u32; 16], x: u32) -> (u8, usize) {
    nearest_row_body(table, x)
}

/// [`nearest_row`] compiled for AVX2: the sixteen distances take two
/// vector population counts, and the minimum one vector reduction.
///
/// # Safety
///
/// Call only where [`crate::simd::avx2_detected`] is true: on a host
/// without AVX2 the instructions fault.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn nearest_row_avx2(table: &[u32; 16], x: u32) -> (u8, usize) {
    nearest_row_body(table, x)
}

/// Each row's key is its distance above its index (distances are at most
/// 32, indexes below 16), so the smallest key is the nearest row with ties
/// to the lowest index. A minimum over keys has no branch to mispredict on
/// noisy blocks, and vectorizes where the target has an unsigned minimum.
#[inline(always)]
fn nearest_row_body(table: &[u32; 16], x: u32) -> (u8, usize) {
    let key = table
        .iter()
        .enumerate()
        .map(|(s, &row)| ((x ^ row).count_ones() << 4) | s as u32)
        .min()
        .expect("sixteen rows");
    ((key & 15) as u8, (key >> 4) as usize)
}

/// Splits the first `len` bits of a packed LSB-first stream into `stride`
/// phases, phase `c` being bits `c, c + stride, c + 2·stride, …` — the
/// receive engine's step from all-phase sign words to per-lane bits.
///
/// Each phase goes to `emit(c, word, count)` up to 64 bits at a time, LSB
/// first, in stream order (bits of `word` at or above `count` are
/// unspecified). For `stride == 8` every 8 words hold 64 rows of 8 phases:
/// an 8×8 bit transpose per word turns its rows into phase bytes, and an
/// 8×8 byte transpose across the 8 words gathers each phase's bytes into
/// one word. Other strides gather bit by bit.
///
/// # Panics
///
/// Panics if `stride` is zero or `len` exceeds `words.len() * 64`.
pub fn deinterleave(
    words: &[u64],
    len: usize,
    stride: usize,
    mut emit: impl FnMut(usize, u64, usize),
) {
    assert!(stride > 0, "stride must be non-zero");
    assert!(
        len <= words.len() * 64,
        "{len} bits do not fit {} words",
        words.len()
    );
    if stride == 8 {
        for (b, block) in words[..len.div_ceil(64)].chunks(8).enumerate() {
            let rows = (len - b * 512).min(512);
            let mut t = [0u64; 8];
            for (t, &w) in t.iter_mut().zip(block) {
                *t = transpose8(w);
            }
            // Byte `c` of `t[k]` holds phase `c`'s bits of rows 8k..8k+8;
            // after the byte transpose, `t[c]` holds all 64 of them.
            transpose8_bytes(&mut t);
            for (c, &word) in t.iter().enumerate() {
                let count = (rows + 7 - c) / 8;
                if count > 0 {
                    emit(c, word, count);
                }
            }
        }
        return;
    }
    for c in 0..stride.min(len) {
        let mut p = c;
        while p < len {
            let (mut word, mut count) = (0u64, 0);
            while count < 64 && p < len {
                word |= ((words[p / 64] >> (p % 64)) & 1) << count;
                count += 1;
                p += stride;
            }
            emit(c, word, count);
        }
    }
}

/// Transposes the 8×8 bit matrix whose bit `8r + c` is row `r`, column `c`
/// (Hacker's Delight §7-3): bit `8r + c` moves to bit `8c + r`.
#[inline(always)]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes the 8×8 byte matrix whose row `k` is `m[k]`: byte `c` of
/// `m[k]` moves to byte `k` of `m[c]`. Each stage swaps the off-diagonal
/// `d`×`d` byte blocks of every `2d`×`2d` block.
#[inline(always)]
fn transpose8_bytes(m: &mut [u64; 8]) {
    for (d, mask) in [
        (1, 0x00FF_00FF_00FF_00FF_u64),
        (2, 0x0000_FFFF_0000_FFFF),
        (4, 0x0000_0000_FFFF_FFFF),
    ] {
        for k in (0..8).filter(|k| k & d == 0) {
            let x = ((m[k] >> (8 * d)) ^ m[k + d]) & mask;
            m[k + d] ^= x;
            m[k] ^= x << (8 * d);
        }
    }
}

/// Finds the first alignment of `pattern` in `stream` with at most
/// `max_errors` mismatches, scanning from `start` — bit-identical to the
/// scalar [`crate::correlate::find_pattern_scalar`], but word-packed.
///
/// This is the first-hit form of the workspace's one sync search (the
/// pigeonhole-prefiltered block kernel behind
/// [`crate::stream::StreamCorrelator`]): 64 alignments are screened per
/// step and only the candidates are scored, for patterns of any length.
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
    let words = stream.words();
    let mut found = None;
    SyncSearch::new(pattern.words(), m, max_errors).scan(
        |k| words.get(k).copied().unwrap_or(0),
        start,
        last,
        |index, errors| {
            found = Some(PatternMatch { index, errors });
            false
        },
    );
    found
}

/// A pattern and error budget set up for the sync search: a pigeonhole
/// prefilter that screens 64 alignments per step, and an exact scorer for
/// the candidates it lets through. `P` holds the packed pattern words: one
/// inline word for the streaming correlator, a borrowed slice for the
/// one-shot search, so neither allocates.
///
/// Split the `m`-bit pattern into `e + 1` disjoint segments. An alignment
/// within `e` errors leaves at least one segment without an error, so it
/// matches that segment exactly. For a block of 64 alignment starts, the
/// stream word shifted by `j` XORed with pattern bit `j` (inverted and
/// broadcast) has bit `i` set exactly when alignment `i` agrees on bit `j`.
/// ANDing those words over a segment and ORing the segments gives the
/// candidate alignments, with no branch and no `count_ones` per alignment.
/// Only the candidates are scored, in ascending order, so the hits are
/// those of a per-alignment search. With `e + 1 > m` every alignment is a
/// candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SyncSearch<P> {
    pattern: P,
    len: usize,
    max_errors: usize,
    /// Prefilter segments: `e + 1`, or none when that exceeds `len` and
    /// every alignment is a candidate.
    segments: usize,
    /// Bits per segment; the first `longer` segments hold one more.
    size: usize,
    longer: usize,
}

impl<P: AsRef<[u64]>> SyncSearch<P> {
    /// Sets up the search for the `len`-bit pattern packed LSB-first in
    /// `pattern` (exactly `len.div_ceil(64)` words), with error budget
    /// `max_errors`.
    pub(crate) fn new(pattern: P, len: usize, max_errors: usize) -> Self {
        debug_assert!(len > 0, "sync search needs a non-empty pattern");
        debug_assert_eq!(pattern.as_ref().len(), len.div_ceil(64));
        let segments = max_errors.saturating_add(1);
        let segments = if segments > len { 0 } else { segments };
        SyncSearch {
            pattern,
            len,
            max_errors,
            segments,
            size: len.checked_div(segments).unwrap_or(0),
            longer: len.checked_rem(segments).unwrap_or(0),
        }
    }

    /// Pattern length in bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The error budget a hit must stay within.
    pub(crate) fn max_errors(&self) -> usize {
        self.max_errors
    }

    /// Scores alignments `first..=last` of a stream read a word at a time:
    /// `word(k)` returns stream bits `64k..64k + 64`, LSB-first, with any
    /// value past the stream's end. Every alignment within the budget is
    /// passed to `hit` as `(index, errors)` in ascending order, until `hit`
    /// returns `false`. Needs `last + len() <=` the stream length.
    pub(crate) fn scan(
        &self,
        word: impl Fn(usize) -> u64,
        first: usize,
        last: usize,
        mut hit: impl FnMut(usize, usize) -> bool,
    ) {
        for block in first / 64..=last / 64 {
            let base = block * 64;
            let block_word = |q: usize| word(block + q);
            let valid = (u64::MAX << first.saturating_sub(base))
                & (u64::MAX >> (63 - (last - base).min(63)));
            let mut cand = self.candidates(&block_word) & valid;
            while cand != 0 {
                let i = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                if let Some(errors) = self.score(&block_word, i) {
                    if !hit(base + i, errors) {
                        return;
                    }
                }
            }
        }
    }

    /// The prefilter: bit `i` is set when the alignment starting at bit `i`
    /// of `word(0)` matches at least one segment exactly.
    #[inline(always)]
    fn candidates(&self, word: &impl Fn(usize) -> u64) -> u64 {
        if self.segments == 0 {
            return u64::MAX;
        }
        let pattern = self.pattern.as_ref();
        // For pattern bit `j`, bit `i` of the window's low half is stream
        // bit `i + j` and bit 0 of `inverse` is pattern bit `j` inverted;
        // both are refilled every 64 pattern bits.
        let mut window = u128::from(word(0)) | (u128::from(word(1)) << 64);
        let mut inverse = !pattern[0];
        let (mut j, mut refill) = (0, 64);
        let mut cand = 0;
        for g in 0..self.segments {
            let end = j + self.size + usize::from(g < self.longer);
            let mut run = u64::MAX;
            while j < end {
                if j == refill {
                    let q = j / 64;
                    window = u128::from(word(q)) | (u128::from(word(q + 1)) << 64);
                    inverse = !pattern[q];
                    refill += 64;
                }
                let stop = end.min(refill);
                for _ in j..stop {
                    run &= window as u64 ^ (inverse & 1).wrapping_neg();
                    window >>= 1;
                    inverse >>= 1;
                }
                j = stop;
            }
            cand |= run;
        }
        cand
    }

    /// The errors of the alignment starting at bit `i` of `word(0)`, or
    /// `None` once they exceed the budget.
    #[inline(always)]
    fn score(&self, word: &impl Fn(usize) -> u64, i: usize) -> Option<usize> {
        let mut errors = 0;
        let mut lo = word(0);
        for (q, &pat) in self.pattern.as_ref().iter().enumerate() {
            let next = word(q + 1);
            let window = (lo >> i) | ((next << 1) << (63 - i));
            let mask = u64::MAX >> (64 - (self.len - 64 * q).min(64));
            errors += ((window ^ pat) & mask).count_ones() as usize;
            if errors > self.max_errors {
                return None;
            }
            lo = next;
        }
        Some(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::find_pattern_scalar;
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
    fn transpose8_moves_row_col_to_col_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        for _ in 0..64 {
            let x: u64 = rng.gen();
            let t = transpose8(x);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!((t >> (8 * c + r)) & 1, (x >> (8 * r + c)) & 1);
                }
            }
        }
    }

    #[test]
    fn transpose8_bytes_moves_row_col_to_col_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(89);
        for _ in 0..16 {
            let m: [u64; 8] = std::array::from_fn(|_| rng.gen());
            let mut t = m;
            transpose8_bytes(&mut t);
            for (k, &row) in m.iter().enumerate() {
                for (c, &col) in t.iter().enumerate() {
                    assert_eq!((col >> (8 * k)) & 0xFF, (row >> (8 * c)) & 0xFF);
                }
            }
        }
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
    fn degenerate_inputs_find_nothing() {
        let empty = PackedBits::from_bits(&[]);
        let one = PackedBits::from_bits(&[1]);
        let two = PackedBits::from_bits(&[1, 0]);
        assert_eq!(find_pattern_packed(&two, &empty, 0, 0), None);
        assert_eq!(find_pattern_packed(&one, &two, 0, 2), None);
        assert_eq!(find_pattern_packed(&two, &two, 1, 2), None);
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
    fn extend_from_word_matches_extend_from_bits() {
        let bits = random_bits(54, 400);
        let mut rng = ChaCha8Rng::seed_from_u64(55);
        // Every starting fill `len % 64`, then random splits of the rest
        // into 0..=64-bit words (garbage above `count` must be ignored).
        for head in 0..=64usize {
            let mut p = PackedBits::from_bits(&bits[..head]);
            let mut k = head;
            while k < bits.len() {
                let count = rng.gen_range(0..=64usize).min(bits.len() - k);
                let word = pack_u64(&bits[k..k + count]);
                let junk = if count == 64 { 0 } else { u64::MAX << count };
                p.extend_from_word(word | junk, count);
                k += count;
            }
            assert_eq!(p, PackedBits::from_bits(&bits), "head {head}");
        }
    }

    #[test]
    #[should_panic(expected = "> 64 bits")]
    fn extend_from_word_rejects_oversized_count() {
        PackedBits::default().extend_from_word(0, 65);
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
