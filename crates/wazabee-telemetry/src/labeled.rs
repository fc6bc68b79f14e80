//! Label sets and the one metric shape every kind shares.
//!
//! A [`Metric`] is a name, an inline empty-label cell and one more cell per
//! distinct label set (`channel=15`, `node=3`, …); [`crate::Counter`],
//! [`crate::Gauge`] and [`crate::Histogram`] differ only in their cell type.
//! The inline cell keeps the unlabeled hot path at one relaxed atomic op.
//! Labeled cells are reached only through `.with(labels)`, which takes the
//! metric's map lock once and returns a lock-free `Copy` [`Handle`]: hot
//! sites keep it, cold sites call `.with` inline. Cells are leaked boxes
//! that live for the rest of the process and [`crate::reset`] zeroes them
//! in place, so a cached handle never goes stale.
//!
//! Label sets are capped at [`MAX_LABELS`] pairs and stored sorted by key,
//! so `[("a","1"),("b","2")]` and `[("b","2"),("a","1")]` address the same
//! cell.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Maximum label pairs per metric (excess pairs are dropped, keeping the
/// first `MAX_LABELS` after sorting).
pub const MAX_LABELS: usize = 4;

/// An owned, sorted label set.
///
/// Keys are `'static` (label *names* are part of the schema); values are
/// formatted at the call site (`node=3`, `channel=15`).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelSet(Vec<(&'static str, String)>);

impl LabelSet {
    /// Builds a label set from `(key, value)` pairs, sorting by key and
    /// truncating past [`MAX_LABELS`]. Duplicate keys keep the first value.
    #[must_use]
    pub fn new(pairs: &[(&'static str, &str)]) -> Self {
        let mut v: Vec<(&'static str, String)> =
            pairs.iter().map(|&(k, val)| (k, val.to_string())).collect();
        v.sort_by_key(|&(k, _)| k);
        v.dedup_by_key(|&mut (k, _)| k);
        v.truncate(MAX_LABELS);
        LabelSet(v)
    }

    /// The sorted `(key, value)` pairs.
    #[must_use]
    pub fn pairs(&self) -> &[(&'static str, String)] {
        &self.0
    }

    /// Renders as `{k="v",k2="v2"}` (empty string for an empty set).
    #[must_use]
    pub fn render(&self) -> String {
        if self.0.is_empty() {
            return String::new();
        }
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", body.join(","))
    }

    /// Writes the member `"labels":{"k":"v",…}`.
    pub(crate) fn write_field(&self, w: &mut crate::json::Writer) {
        w.key("labels").begin_object();
        for (k, v) in &self.0 {
            w.field(k, v);
        }
        w.end_object();
    }
}

/// The storage of one cell of a metric kind.
pub trait Cell: Sync + Sized + 'static {
    /// An empty cell configured like `self` (a labeled cell's template is
    /// its metric's inline cell).
    fn blank(&self) -> Self;
    /// Zeroes the cell in place.
    fn reset(&self);
    /// The registry list this kind's metrics join on first touch.
    fn registered() -> &'static Mutex<Vec<&'static Metric<Self>>>;
}

/// One metric static — see the module docs. Declared through the
/// [`crate::counter!`], [`crate::gauge!`] and [`crate::histogram!`] macros.
#[derive(Debug)]
pub struct Metric<C: 'static> {
    name: &'static str,
    inline: C,
    /// The inline cell was written: only then does the metric appear in the
    /// snapshot's flat sections (`counters`, `value_histograms`).
    flat: AtomicBool,
    registered: AtomicBool,
    cells: Mutex<BTreeMap<LabelSet, &'static C>>,
}

/// A lock-free handle onto one cell of a metric (see `.with(labels)`).
#[derive(Debug)]
pub struct Handle<C: 'static> {
    pub(crate) cell: &'static C,
}

impl<C> Clone for Handle<C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Handle<C> {}

impl<C: Cell> Metric<C> {
    /// A metric with `inline` as its empty-label cell.
    pub(crate) const fn from_cell(name: &'static str, inline: C) -> Self {
        Metric {
            name,
            inline,
            flat: AtomicBool::new(false),
            registered: AtomicBool::new(false),
            cells: Mutex::new(BTreeMap::new()),
        }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The inline cell for writing: marks it written (registering the
    /// metric on first touch).
    #[inline]
    pub(crate) fn inline(&'static self) -> &'static C {
        if !self.flat.load(Ordering::Relaxed) {
            self.touch_flat();
        }
        &self.inline
    }

    /// The inline cell for reading.
    pub(crate) fn peek(&self) -> &C {
        &self.inline
    }

    /// Resolves (creating if needed) the cell for `labels`; the empty set
    /// is the inline cell. Takes the metric's map lock — keep the handle at
    /// hot sites.
    #[must_use]
    pub fn with(&'static self, labels: &[(&'static str, &str)]) -> Handle<C> {
        if labels.is_empty() {
            self.touch_flat();
            return Handle { cell: &self.inline };
        }
        self.register();
        let mut cells = self.cells.lock().expect("metric cells poisoned");
        let cell = cells
            .entry(LabelSet::new(labels))
            .or_insert_with(|| Box::leak(Box::new(self.inline.blank())));
        Handle { cell }
    }

    /// Every labeled cell's reading, sorted by label set; cells `read`
    /// maps to `None` are left out.
    pub(crate) fn cells_with<T>(&self, read: impl Fn(&C) -> Option<T>) -> Vec<(LabelSet, T)> {
        let cells = self.cells.lock().expect("metric cells poisoned");
        cells
            .iter()
            .filter_map(|(k, c)| Some((k.clone(), read(c)?)))
            .collect()
    }

    /// Whether the inline cell was ever written.
    pub(crate) fn flat(&self) -> bool {
        self.flat.load(Ordering::Relaxed)
    }

    /// Whether any labeled cell exists.
    pub(crate) fn labeled(&self) -> bool {
        !self.cells.lock().expect("metric cells poisoned").is_empty()
    }

    #[cold]
    fn touch_flat(&'static self) {
        self.flat.store(true, Ordering::Relaxed);
        self.register();
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::AcqRel)
        {
            C::registered()
                .lock()
                .expect("metric registry poisoned")
                .push(self);
        }
    }

    /// Zeroes every cell in place.
    pub(crate) fn reset(&self) {
        self.inline.reset();
        for c in self.cells.lock().expect("metric cells poisoned").values() {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_sets_are_order_insensitive() {
        let a = LabelSet::new(&[("node", "3"), ("channel", "15")]);
        let b = LabelSet::new(&[("channel", "15"), ("node", "3")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "{channel=\"15\",node=\"3\"}");
        assert_eq!(LabelSet::new(&[]).render(), "");
    }

    #[test]
    fn counter_family_fans_out_by_labels() {
        let _lock = crate::test_lock();
        let c = crate::counter!("labeled.test.frames");
        c.with(&[("channel", "15")]).add(3);
        c.with(&[("channel", "20")]).add(2);
        c.with(&[("channel", "15")]).inc();
        assert_eq!(c.with(&[("channel", "15")]).get(), 4);
        assert_eq!(c.with(&[("channel", "20")]).get(), 2);
        let cells = c.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].1 + cells[1].1, 6);
        // Labeled traffic never touches the inline cell.
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn cached_handle_hits_same_cell() {
        let _lock = crate::test_lock();
        let c = crate::counter!("labeled.test.handle");
        let h = c.with(&[("node", "7")]);
        let before = h.get();
        for _ in 0..100 {
            h.inc();
        }
        assert_eq!(c.with(&[("node", "7")]).get(), before + 100);
        // The empty label set is the inline cell.
        c.with(&[]).add(5);
        assert_eq!(c.get(), 5);
        // Reset zeroes in place: the cached handle still feeds the cell
        // the sinks read.
        crate::reset();
        h.inc();
        assert_eq!(c.cells(), [(LabelSet::new(&[("node", "7")]), 1)]);
    }

    #[test]
    fn gauge_holds_last_value() {
        let _lock = crate::test_lock();
        let g = crate::gauge!("labeled.test.gauge");
        let node = g.with(&[("node", "1")]);
        assert_eq!(node.get(), None);
        node.set(0.25);
        g.with(&[("node", "1")]).set(0.75);
        assert_eq!(node.get(), Some(0.75));
        assert_eq!(g.get(), None);
        // A reset gauge is last-value-unknown again.
        crate::reset();
        assert_eq!(node.get(), None);
        assert!(g.cells().is_empty());
    }

    #[test]
    fn histogram_family_aggregates_per_cell() {
        let _lock = crate::test_lock();
        let h = crate::histogram!("labeled.test.hist", 0.0, 64.0);
        let fir = h.with(&[("stage", "fir")]);
        for _ in 0..10 {
            fir.record(4.0);
        }
        fir.record(60.0);
        h.with(&[("stage", "demod")]).record(1.0);
        let cells = h.cells();
        let fir = cells
            .iter()
            .find(|(k, _)| k.render().contains("fir"))
            .map(|(_, s)| s.clone())
            .unwrap();
        assert_eq!(fir.count, 11);
        assert_eq!(fir.p50, Some(4.0));
        assert_eq!(fir.p99, Some(60.0));
        assert_eq!(h.stats().count, 0);
    }

    #[test]
    fn concurrent_labeled_increments_lose_nothing() {
        let _lock = crate::test_lock();
        static C: crate::Counter = crate::Counter::new("labeled.test.contended");
        let threads: Vec<_> = (0..4)
            .map(|k| {
                std::thread::spawn(move || {
                    let h = C.with(&[("worker", if k % 2 == 0 { "even" } else { "odd" })]);
                    for _ in 0..10_000 {
                        h.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(C.with(&[("worker", "even")]).get(), 20_000);
        assert_eq!(C.with(&[("worker", "odd")]).get(), 20_000);
    }
}
