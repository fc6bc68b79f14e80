//! Counters and gauges: one atomic word per cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::labeled::{Cell, Handle, LabelSet, Metric};

/// A monotonically increasing event counter.
///
/// `const`-constructible so each [`crate::counter!`] call site owns a static
/// instance; the first touch registers it with the global registry.
/// `inc`/`add` hit the inline empty-label cell with one relaxed
/// `fetch_add`; labeled cells are reached through `.with(labels)`.
pub type Counter = Metric<AtomicU64>;

/// A lock-free handle onto one counter cell (see `.with(labels)`).
pub type CounterHandle = Handle<AtomicU64>;

impl Cell for AtomicU64 {
    fn blank(&self) -> Self {
        AtomicU64::new(0)
    }

    fn reset(&self) {
        self.store(0, Ordering::Relaxed);
    }

    fn registered() -> &'static Mutex<Vec<&'static Counter>> {
        &crate::registry::registry().counters
    }
}

impl Counter {
    /// Creates an unregistered counter (use via [`crate::counter!`]).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Metric::from_cell(name, AtomicU64::new(0))
    }

    /// Adds one to the empty-label cell.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Adds `n` to the empty-label cell.
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.inline().fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of the empty-label cell.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.peek().load(Ordering::Relaxed)
    }

    /// Every labeled cell's `(labels, value)`, sorted by label set.
    #[must_use]
    pub fn cells(&self) -> Vec<(LabelSet, u64)> {
        self.cells_with(|c| Some(c.load(Ordering::Relaxed)))
    }
}

impl CounterHandle {
    /// Adds one.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }

    /// Adds `n` — one relaxed `fetch_add`, no lock.
    #[inline]
    pub fn add(self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One gauge cell: the bits of the last `f64` set, or [`UNSET`].
#[derive(Debug)]
pub struct GaugeCell(AtomicU64);

/// Bits of a gauge cell that holds no value (never set, or reset since).
/// No arithmetic produces this NaN payload.
const UNSET: u64 = u64::MAX;

impl GaugeCell {
    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    fn get(&self) -> Option<f64> {
        let bits = self.0.load(Ordering::Relaxed);
        (bits != UNSET).then(|| f64::from_bits(bits))
    }
}

impl Cell for GaugeCell {
    fn blank(&self) -> Self {
        GaugeCell(AtomicU64::new(UNSET))
    }

    fn reset(&self) {
        self.0.store(UNSET, Ordering::Relaxed);
    }

    fn registered() -> &'static Mutex<Vec<&'static Gauge>> {
        &crate::registry::registry().gauges
    }
}

/// A last-value-wins `f64` gauge, shaped like [`Counter`]. A reset gauge
/// reads as unknown (`None`) until set again, so stale per-node values from
/// one phase cannot leak into the next.
pub type Gauge = Metric<GaugeCell>;

/// A lock-free handle onto one gauge cell (see `.with(labels)`).
pub type GaugeHandle = Handle<GaugeCell>;

impl Gauge {
    /// Creates an unregistered gauge (use via [`crate::gauge!`]).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Metric::from_cell(name, GaugeCell(AtomicU64::new(UNSET)))
    }

    /// Sets the empty-label cell to `v`.
    pub fn set(&'static self, v: f64) {
        self.inline().set(v);
    }

    /// Last value of the empty-label cell.
    #[must_use]
    pub fn get(&self) -> Option<f64> {
        self.peek().get()
    }

    /// Every labeled cell holding a value, sorted by label set.
    #[must_use]
    pub fn cells(&self) -> Vec<(LabelSet, f64)> {
        self.cells_with(GaugeCell::get)
    }
}

impl GaugeHandle {
    /// Sets the cell to `v`.
    #[inline]
    pub fn set(self, v: f64) {
        self.cell.set(v);
    }

    /// Last value set (`None` when unset since the last reset).
    #[must_use]
    pub fn get(self) -> Option<f64> {
        self.cell.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_merges_by_callsite() {
        let _lock = crate::test_lock();
        let c = crate::counter!("counter.test.basic");
        let before = c.get();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), before + 10);
    }

    #[test]
    fn atomic_under_contention() {
        let _lock = crate::test_lock();
        // 8 threads × 10_000 increments must never lose an update.
        static C: Counter = Counter::new("counter.test.contended");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        C.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(C.get(), 80_000);
    }
}
