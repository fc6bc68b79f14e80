//! Value histograms with atomic fixed-layout buckets, and the log₂
//! duration bucketing behind every [`crate::Scope`].

#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of interior buckets in every histogram (plus under/overflow).
pub const HIST_BUCKETS: usize = 64;

/// A linear-bucket histogram over `[lo, hi)`.
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
#[derive(Debug)]
pub struct ValueHistogram {
    name: &'static str,
    lo: f64,
    hi: f64,
    #[cfg(feature = "enabled")]
    buckets: [AtomicU64; HIST_BUCKETS],
    #[cfg(feature = "enabled")]
    underflow: AtomicU64,
    #[cfg(feature = "enabled")]
    overflow: AtomicU64,
    #[cfg(feature = "enabled")]
    sum_bits: AtomicU64,
    #[cfg(feature = "enabled")]
    registered: AtomicBool,
}

impl ValueHistogram {
    /// Creates an unregistered histogram (use via [`crate::value_histogram!`]).
    ///
    /// `lo < hi` is required and checked on first record.
    #[must_use]
    pub const fn new(name: &'static str, lo: f64, hi: f64) -> Self {
        ValueHistogram {
            name,
            lo,
            hi,
            #[cfg(feature = "enabled")]
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            #[cfg(feature = "enabled")]
            underflow: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            overflow: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            sum_bits: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            registered: AtomicBool::new(false),
        }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured range.
    #[must_use]
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Width of one interior bucket.
    #[must_use]
    pub fn bucket_width(&self) -> f64 {
        (self.hi - self.lo) / HIST_BUCKETS as f64
    }

    /// Records one sample.
    #[inline]
    pub fn record(&'static self, v: f64) {
        #[cfg(feature = "enabled")]
        {
            debug_assert!(self.lo < self.hi, "histogram {} has empty range", self.name);
            if !self.registered.load(Ordering::Relaxed) {
                self.register_slow();
            }
            if v < self.lo {
                self.underflow.fetch_add(1, Ordering::Relaxed);
            } else if v >= self.hi || !v.is_finite() {
                self.overflow.fetch_add(1, Ordering::Relaxed);
            } else {
                let idx = ((v - self.lo) / self.bucket_width()) as usize;
                self.buckets[idx.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
            }
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
        #[cfg(not(feature = "enabled"))]
        let _ = v;
    }

    /// Total recorded samples (0 when disabled).
    #[must_use]
    pub fn count(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            let interior: u64 = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
            interior
                + self.underflow.load(Ordering::Relaxed)
                + self.overflow.load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        0
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        #[cfg(feature = "enabled")]
        {
            f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
        }
        #[cfg(not(feature = "enabled"))]
        0.0
    }

    /// Mean of recorded samples, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() / n as f64)
    }

    /// Snapshot of `(underflow, interior[64], overflow)` bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> (u64, [u64; HIST_BUCKETS], u64) {
        #[cfg(feature = "enabled")]
        {
            let mut interior = [0u64; HIST_BUCKETS];
            for (dst, src) in interior.iter_mut().zip(self.buckets.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            (
                self.underflow.load(Ordering::Relaxed),
                interior,
                self.overflow.load(Ordering::Relaxed),
            )
        }
        #[cfg(not(feature = "enabled"))]
        (0, [0; HIST_BUCKETS], 0)
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`); `None` when empty.
    ///
    /// Reports the lower edge of the selected bucket (see type docs).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (under, interior, over) = self.snapshot();
        let total = under + interior.iter().sum::<u64>() + over;
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = under;
        if rank <= seen {
            return Some(self.lo - self.bucket_width());
        }
        for (i, &c) in interior.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Some(self.lo + i as f64 * self.bucket_width());
            }
        }
        Some(self.hi)
    }

    #[cfg(feature = "enabled")]
    #[cold]
    fn register_slow(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            crate::registry::register_value_hist(self);
        }
    }

    #[cfg(feature = "enabled")]
    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.underflow.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
    }
}

/// Log₂ duration bucket: bucket `i` covers `[2^i, 2^(i+1))` ns (bucket 0
/// also absorbs 0 ns). Coarse by design — wide enough for anything from a
/// sub-µs kernel to a multi-second run, cheap enough (one `ilog2`) for hot
/// paths. Feeds every [`crate::Scope`]'s duration buckets.
#[cfg(feature = "enabled")]
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
#[cfg(feature = "enabled")]
pub(crate) fn log2_quantile_ns(buckets: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if rank <= seen {
            return if i == 0 { 0 } else { 1u64 << i };
        }
    }
    1u64 << (HIST_BUCKETS - 1)
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_half_open() {
        let _lock = crate::test_lock();
        static H: ValueHistogram = ValueHistogram::new("hist.test.bounds", 0.0, 64.0);
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
        assert_eq!(H.count(), 7);
    }

    #[test]
    fn quantiles_exact_on_unit_buckets() {
        let _lock = crate::test_lock();
        static H: ValueHistogram = ValueHistogram::new("hist.test.quant", 0.0, 64.0);
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
        assert!((H.mean().unwrap() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_quantile() {
        let _lock = crate::test_lock();
        static H: ValueHistogram = ValueHistogram::new("hist.test.empty", 0.0, 1.0);
        assert_eq!(H.quantile(0.5), None);
        assert_eq!(H.mean(), None);
    }

    #[test]
    fn concurrent_records_lose_nothing() {
        let _lock = crate::test_lock();
        static H: ValueHistogram = ValueHistogram::new("hist.test.mt", 0.0, 64.0);
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
        assert_eq!(H.count(), 40_000);
        let (_, interior, _) = H.snapshot();
        for b in &interior[..8] {
            assert_eq!(*b, 5_000);
        }
        // CAS-summed f64: 8 threads × 5000 × k.
        let expect: f64 = (0..8).map(|k| 5_000.0 * f64::from(k)).sum();
        assert!((H.sum() - expect).abs() < 1e-6);
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
