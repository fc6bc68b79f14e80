//! Linear-bucket histograms with atomic fixed-layout cells, and the log₂
//! duration bucketing behind every [`crate::Scope`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::labeled::{Cell, Handle, LabelSet, Metric};

/// Number of interior buckets in every histogram (plus under/overflow).
pub const HIST_BUCKETS: usize = 64;

/// A linear-bucket histogram over `[lo, hi)`, shaped like
/// [`crate::Counter`]: [`crate::histogram!`] declares one per call site,
/// `record` hits the inline empty-label cell, and labeled cells (same
/// range) are reached through `.with(labels)`.
///
/// The range divides into [`HIST_BUCKETS`] equal-width buckets; samples below
/// `lo` land in an underflow bucket, samples at or above `hi` in an overflow
/// bucket. Bucket counts are relaxed atomics, so recording is lock-free and
/// thread-safe; the running sum uses a compare-exchange loop on the f64 bit
/// pattern.
///
/// Quantiles use the nearest-rank method and report the *lower edge* of the
/// bucket holding that rank (underflow reports `lo - width`, overflow `hi`).
/// With integer-valued samples and unit-width buckets — e.g. Hamming
/// distances over `[0, 64)` — p50/p99 are therefore exact.
pub type Histogram = Metric<HistCell>;

/// A lock-free handle onto one histogram cell (see `.with(labels)`).
pub type HistogramHandle = Handle<HistCell>;

/// One histogram cell: its range, bucket counts and running sum.
#[derive(Debug)]
pub struct HistCell {
    lo: f64,
    hi: f64,
    /// Underflow, the [`HIST_BUCKETS`] interior buckets, overflow.
    counts: [AtomicU64; HIST_BUCKETS + 2],
    sum_bits: AtomicU64,
}

impl HistCell {
    const fn new(lo: f64, hi: f64) -> Self {
        HistCell {
            lo,
            hi,
            counts: [const { AtomicU64::new(0) }; HIST_BUCKETS + 2],
            sum_bits: AtomicU64::new(0),
        }
    }

    fn width(&self) -> f64 {
        (self.hi - self.lo) / HIST_BUCKETS as f64
    }

    #[inline]
    fn record(&self, v: f64) {
        let slot = if v < self.lo {
            0
        } else if v >= self.hi || !v.is_finite() {
            HIST_BUCKETS + 1
        } else {
            1 + (((v - self.lo) / self.width()) as usize).min(HIST_BUCKETS - 1)
        };
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        // f64 sum via CAS on the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    fn counts(&self) -> [u64; HIST_BUCKETS + 2] {
        self.counts.each_ref().map(|c| c.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile over `counts`, reporting the lower edge of
    /// the selected bucket; `None` when empty.
    fn quantile(&self, counts: &[u64], q: f64) -> Option<f64> {
        Some(match rank_bucket(counts, q)? {
            0 => self.lo - self.width(),
            i if i > HIST_BUCKETS => self.hi,
            i => self.lo + (i - 1) as f64 * self.width(),
        })
    }

    fn stats(&self) -> HistStats {
        let counts = self.counts();
        let count = counts.iter().sum::<u64>();
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        HistStats {
            count,
            sum,
            mean: (count > 0).then(|| sum / count as f64),
            p50: self.quantile(&counts, 0.5),
            p99: self.quantile(&counts, 0.99),
        }
    }
}

/// Index of the bucket holding the nearest-rank `q` quantile (`q` in
/// `[0, 1]`) of `counts`; `None` when every count is zero.
fn rank_bucket(counts: &[u64], q: f64) -> Option<usize> {
    let n: u64 = counts.iter().sum();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut seen = 0;
    counts.iter().position(|&c| {
        seen += c;
        rank <= seen
    })
}

impl Cell for HistCell {
    fn blank(&self) -> Self {
        HistCell::new(self.lo, self.hi)
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0, Ordering::Relaxed);
    }

    fn registered() -> &'static Mutex<Vec<&'static Histogram>> {
        &crate::registry::registry().histograms
    }
}

/// Aggregate view of one histogram cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistStats {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: f64,
    /// Mean, `None` when empty.
    pub mean: Option<f64>,
    /// Nearest-rank p50 (lower bucket edge), `None` when empty.
    pub p50: Option<f64>,
    /// Nearest-rank p99 (lower bucket edge), `None` when empty.
    pub p99: Option<f64>,
}

impl Histogram {
    /// Creates an unregistered histogram over `[lo, hi)` (use via
    /// [`crate::histogram!`]); `lo < hi` is checked on first record.
    #[must_use]
    pub const fn new(name: &'static str, lo: f64, hi: f64) -> Self {
        Metric::from_cell(name, HistCell::new(lo, hi))
    }

    /// Records one sample into the empty-label cell.
    #[inline]
    pub fn record(&'static self, v: f64) {
        let c = self.inline();
        debug_assert!(c.lo < c.hi, "histogram {} has empty range", self.name());
        c.record(v);
    }

    /// The configured `(lo, hi)` range.
    pub(crate) fn range(&self) -> (f64, f64) {
        let c = self.peek();
        (c.lo, c.hi)
    }

    /// The empty-label cell's count, sum, mean and p50/p99.
    #[must_use]
    pub fn stats(&self) -> HistStats {
        self.peek().stats()
    }

    /// The empty-label cell's `(underflow, interior[64], overflow)` counts.
    #[must_use]
    pub fn snapshot(&self) -> (u64, [u64; HIST_BUCKETS], u64) {
        let c = self.peek().counts();
        let interior = c[1..=HIST_BUCKETS].try_into().expect("64 interior buckets");
        (c[0], interior, c[HIST_BUCKETS + 1])
    }

    /// Nearest-rank quantile of the empty-label cell (`q` in `[0, 1]`);
    /// `None` when empty. Reports the lower edge of the selected bucket
    /// (see type docs).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let c = self.peek();
        c.quantile(&c.counts(), q)
    }

    /// Every labeled cell's aggregate stats, sorted by label set.
    #[must_use]
    pub fn cells(&self) -> Vec<(LabelSet, HistStats)> {
        self.cells_with(|c| Some(c.stats()))
    }
}

impl HistogramHandle {
    /// Records one sample — bucket math + relaxed atomics, no lock.
    #[inline]
    pub fn record(self, v: f64) {
        self.cell.record(v);
    }
}

/// Log₂ duration bucket: bucket `i` covers `[2^i, 2^(i+1))` ns (bucket 0
/// also absorbs 0 ns). Coarse by design — wide enough for anything from a
/// sub-µs kernel to a multi-second run, cheap enough (one `ilog2`) for hot
/// paths. Feeds every [`crate::Scope`]'s duration buckets.
#[inline]
pub(crate) fn log2_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ns.ilog2() as usize
    }
}

/// Nearest-rank quantile over log₂ duration buckets, in nanoseconds (the
/// lower bucket edge `2^i`, 0 for bucket 0); 0 when empty.
pub(crate) fn log2_quantile_ns(buckets: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    rank_bucket(buckets, q).map_or(0, |i| if i == 0 { 0 } else { 1 << i })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_half_open() {
        let _lock = crate::test_lock();
        static H: Histogram = Histogram::new("hist.test.bounds", 0.0, 64.0);
        // Width is exactly 1.0: [0,1) → bucket 0, [1,2) → bucket 1, …
        H.record(0.0);
        H.record(0.999_999);
        H.record(1.0);
        H.record(63.0);
        H.record(63.999);
        H.record(64.0); // at hi → overflow
        H.record(-0.001); // below lo → underflow
        let (under, interior, over) = H.snapshot();
        assert_eq!(under, 1);
        assert_eq!(over, 1);
        assert_eq!(interior[0], 2);
        assert_eq!(interior[1], 1);
        assert_eq!(interior[63], 2);
        assert_eq!(H.stats().count, 7);
    }

    #[test]
    fn quantiles_exact_on_unit_buckets() {
        let _lock = crate::test_lock();
        static H: Histogram = Histogram::new("hist.test.quant", 0.0, 64.0);
        // 100 samples: 0..=49 give value 10, 50..=89 give 20, 90..=99 give 40.
        for _ in 0..50 {
            H.record(10.0);
        }
        for _ in 0..40 {
            H.record(20.0);
        }
        for _ in 0..10 {
            H.record(40.0);
        }
        assert_eq!(H.quantile(0.5), Some(10.0)); // rank 50 → still the 10s
        assert_eq!(H.quantile(0.9), Some(20.0)); // rank 90 → last of the 20s
        assert_eq!(H.quantile(0.99), Some(40.0)); // rank 99 → the 40s
        assert_eq!(H.quantile(1.0), Some(40.0));
        assert_eq!(H.quantile(0.0), Some(10.0)); // rank clamps to 1
        assert!((H.stats().mean.unwrap() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let _lock = crate::test_lock();
        static H: Histogram = Histogram::new("hist.test.empty", 0.0, 1.0);
        assert_eq!(H.quantile(0.5), None);
        assert_eq!(H.stats().mean, None);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let _lock = crate::test_lock();
        static H: Histogram = Histogram::new("hist.test.mt", 0.0, 64.0);
        let threads: Vec<_> = (0..8)
            .map(|k| {
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        H.record(f64::from(k));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(H.stats().count, 40_000);
        let (_, interior, _) = H.snapshot();
        for b in &interior[..8] {
            assert_eq!(*b, 5_000);
        }
        // CAS-summed f64: 8 threads × 5000 × k.
        let expect: f64 = (0..8).map(|k| 5_000.0 * f64::from(k)).sum();
        assert!((H.stats().sum - expect).abs() < 1e-6);
    }

    #[test]
    fn time_histogram_buckets_by_log2() {
        let mut buckets = [0u64; HIST_BUCKETS];
        for ns in [0, 1, 2, 3, 1024, 1 << 40] {
            buckets[log2_bucket(ns)] += 1;
        }
        assert_eq!(buckets[0], 2); // 0 and 1
        assert_eq!(buckets[1], 2); // 2 and 3
        assert_eq!(buckets[10], 1);
        assert_eq!(buckets[40], 1);
        assert_eq!(log2_bucket(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(log2_quantile_ns(&buckets, 0.5), 2);
        assert_eq!(log2_quantile_ns(&buckets, 1.0), 1 << 40);
        assert_eq!(log2_quantile_ns(&[0; HIST_BUCKETS], 0.5), 0);
    }
}
