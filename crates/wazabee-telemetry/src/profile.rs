//! The one timing probe: a [`Scope`] per call site, opened with
//! [`crate::scope!`] and closed when the returned [`ScopeGuard`] drops.
//!
//! A scope is a named region of the pipeline (`stream.demod`, `rx.decode`,
//! `sim.superpose`, `ble.gfsk.modulate_ns`, …). Opening and closing each
//! read the clock once, and those two readings feed three views:
//!
//! * the **profile** — per call site a static [`Scope`] holds relaxed-atomic
//!   count, total (inclusive) and self (exclusive) nanoseconds, and 64 log₂
//!   duration buckets, so every row reports exact counts plus p50/p99
//!   without locks. Self time comes from a thread-local child-time cell:
//!   each closing scope bills its total to the enclosing one, and a caller
//!   whose total is large but whose self is small is just a caller;
//! * the **trace** — one completed-span record (start and duration) pushed
//!   to the bounded causal ring when the scope closes (see
//!   [`crate::drain_trace`]), carrying the span id, the parent span open on
//!   the same thread and up to [`crate::MAX_SPAN_ARGS`] arguments;
//! * the **current span** — the thread-local id events and the flight
//!   recorder attach to ([`crate::current_span_id`]).
//!
//! The ring is bounded and evicts the oldest records; the profile is exact
//! no matter how many records the ring dropped. With the `enabled` feature
//! off the macro compiles to a zero-sized guard and dead code.

#[cfg(feature = "enabled")]
use std::cell::Cell;
use std::marker::PhantomData;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(feature = "enabled")]
use crate::hist::{log2_bucket, log2_quantile_ns};
use crate::span::SpanArgs;
use crate::HIST_BUCKETS;

/// Per-call-site timing store, declared statically by [`crate::scope!`].
#[derive(Debug)]
pub struct Scope {
    name: &'static str,
    #[cfg(feature = "enabled")]
    count: AtomicU64,
    #[cfg(feature = "enabled")]
    total_ns: AtomicU64,
    #[cfg(feature = "enabled")]
    self_ns: AtomicU64,
    #[cfg(feature = "enabled")]
    buckets: [AtomicU64; HIST_BUCKETS],
    #[cfg(feature = "enabled")]
    registered: AtomicBool,
}

#[cfg(feature = "enabled")]
thread_local! {
    /// Nanoseconds consumed by already-closed child scopes of the innermost
    /// open scope on this thread.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

impl Scope {
    /// Creates an unregistered scope (use via [`crate::scope!`]).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Scope {
            name,
            #[cfg(feature = "enabled")]
            count: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            total_ns: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            self_ns: AtomicU64::new(0),
            #[cfg(feature = "enabled")]
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            #[cfg(feature = "enabled")]
            registered: AtomicBool::new(false),
        }
    }

    /// The scope name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Opens the scope: profile bookkeeping, and this scope becomes the
    /// thread's current span. Its trace record is pushed when it closes.
    #[inline]
    #[must_use = "the scope closes when the guard drops; binding it to _ drops immediately"]
    pub fn enter(&'static self, args: SpanArgs) -> ScopeGuard {
        #[cfg(feature = "enabled")]
        {
            if !self.registered.load(Ordering::Relaxed) {
                self.register_slow();
            }
            let start_ns = crate::span::now_ns();
            // Start a fresh child accumulator for this nesting level; the
            // parent's accumulated child time is parked in the guard.
            let parent_child_ns = CHILD_NS.with(|c| c.replace(0));
            let (span_id, parent_id) = crate::span::open();
            ScopeGuard {
                scope: self,
                start_ns,
                parent_child_ns,
                span_id,
                parent_id,
                args,
                _not_send: PhantomData,
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = args;
            ScopeGuard {
                _not_send: PhantomData,
            }
        }
    }

    #[cfg(feature = "enabled")]
    #[cold]
    fn register_slow(&'static self) {
        if !self.registered.swap(true, Ordering::AcqRel) {
            crate::registry::registry()
                .scopes
                .lock()
                .unwrap()
                .push(self);
        }
    }

    #[cfg(feature = "enabled")]
    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII guard closing a [`Scope`] (see [`crate::scope!`]).
///
/// Not `Send`: the child-time and current-span cells are per-thread stacks
/// that assume guards drop in LIFO order on the thread that opened them.
///
/// ```compile_fail
/// fn needs_send<T: Send>(_: T) {}
/// needs_send(wazabee_telemetry::scope!("example.pinned"));
/// ```
#[must_use = "the scope closes when the guard drops; binding it to _ drops immediately"]
pub struct ScopeGuard {
    #[cfg(feature = "enabled")]
    scope: &'static Scope,
    #[cfg(feature = "enabled")]
    start_ns: u64,
    #[cfg(feature = "enabled")]
    parent_child_ns: u64,
    #[cfg(feature = "enabled")]
    span_id: u64,
    #[cfg(feature = "enabled")]
    parent_id: u64,
    #[cfg(feature = "enabled")]
    args: SpanArgs,
    _not_send: PhantomData<*const ()>,
}

impl ScopeGuard {
    /// This scope's process-unique span id (0 when telemetry is compiled
    /// out).
    #[inline]
    #[must_use]
    pub fn id(&self) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.span_id
        }
        #[cfg(not(feature = "enabled"))]
        0
    }
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        {
            let end_ns = crate::span::now_ns();
            let total = end_ns.saturating_sub(self.start_ns);
            // Whatever the child accumulator holds now was spent in scopes
            // nested under this one; restore the parent's accumulator and
            // bill it our whole total.
            let child = CHILD_NS.with(|c| c.replace(self.parent_child_ns + total));
            let s = self.scope;
            s.count.fetch_add(1, Ordering::Relaxed);
            s.total_ns.fetch_add(total, Ordering::Relaxed);
            s.self_ns
                .fetch_add(total.saturating_sub(child), Ordering::Relaxed);
            s.buckets[log2_bucket(total)].fetch_add(1, Ordering::Relaxed);
            crate::span::close(
                s.name,
                self.start_ns,
                total,
                self.span_id,
                self.parent_id,
                self.args,
            );
        }
    }
}

/// One row of the aggregated profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRow {
    /// Scope name.
    pub name: &'static str,
    /// Completed invocations, summed over call sites sharing the name.
    pub count: u64,
    /// Total (inclusive) nanoseconds.
    pub total_ns: u64,
    /// Self (exclusive) nanoseconds.
    pub self_ns: u64,
    /// Median duration in nanoseconds (lower edge of its log₂ bucket).
    pub p50_ns: u64,
    /// 99th-percentile duration in nanoseconds (lower edge of its log₂
    /// bucket).
    pub p99_ns: u64,
    /// Duration counts per log₂ bucket: bucket `i` covers `[2^i, 2^(i+1))`
    /// ns.
    pub buckets: [u64; HIST_BUCKETS],
}

/// The aggregated profile, one row per distinct scope name, sorted by self
/// time descending (the SIMD work order).
///
/// Empty when nothing was profiled or the `enabled` feature is off.
#[must_use]
pub fn profile_report() -> Vec<StageRow> {
    #[cfg(feature = "enabled")]
    {
        use std::collections::BTreeMap;
        let mut rows: BTreeMap<&'static str, StageRow> = BTreeMap::new();
        for s in crate::registry::registry().scopes.lock().unwrap().iter() {
            let row = rows.entry(s.name).or_insert(StageRow {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                p50_ns: 0,
                p99_ns: 0,
                buckets: [0; HIST_BUCKETS],
            });
            row.count += s.count.load(Ordering::Relaxed);
            row.total_ns += s.total_ns.load(Ordering::Relaxed);
            row.self_ns += s.self_ns.load(Ordering::Relaxed);
            for (dst, src) in row.buckets.iter_mut().zip(&s.buckets) {
                *dst += src.load(Ordering::Relaxed);
            }
        }
        let mut out: Vec<StageRow> = rows.into_values().filter(|r| r.count > 0).collect();
        for r in &mut out {
            r.p50_ns = log2_quantile_ns(&r.buckets, 0.5);
            r.p99_ns = log2_quantile_ns(&r.buckets, 0.99);
        }
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        out
    }
    #[cfg(not(feature = "enabled"))]
    Vec::new()
}

/// Renders the profile as a console table (empty string when nothing was
/// profiled).
#[must_use]
pub fn profile_summary() -> String {
    let rows = profile_report();
    if rows.is_empty() {
        return String::new();
    }
    let grand_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = String::from("-- stage profile (self-time order) --\n");
    for r in &rows {
        let pct = 100.0 * r.self_ns as f64 / grand_self.max(1) as f64;
        out.push_str(&format!(
            "  {:<28} n={:<8} self={:>10.3}ms ({pct:5.1}%) total={:>10.3}ms p50~{}ns p99~{}ns\n",
            r.name,
            r.count,
            r.self_ns as f64 / 1e6,
            r.total_ns as f64 / 1e6,
            r.p50_ns,
            r.p99_ns,
        ));
    }
    out
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::span::{drain_trace, TraceKind, TRACE_CAPACITY};
    use std::time::Instant;

    fn spin_ns(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    fn row(name: &str) -> StageRow {
        profile_report()
            .into_iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("no profile row {name}"))
    }

    #[test]
    fn nested_stages_split_self_and_total() {
        let _lock = crate::test_lock();
        crate::reset();
        {
            let _o = crate::scope!("profile.test.outer");
            spin_ns(200_000);
            {
                let _i = crate::scope!("profile.test.inner");
                spin_ns(400_000);
            }
            spin_ns(100_000);
        }
        let (outer, inner) = (row("profile.test.outer"), row("profile.test.inner"));
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The outer total covers everything; its self time excludes the
        // inner scope entirely.
        assert!(outer.total_ns >= 700_000, "{outer:?}");
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.self_ns >= 400_000 - 1_000, "{inner:?}");
    }

    #[test]
    fn sibling_stages_bill_the_same_parent() {
        let _lock = crate::test_lock();
        crate::reset();
        {
            let _p = crate::scope!("profile.test.parent");
            {
                let _a = crate::scope!("profile.test.a");
                spin_ns(150_000);
            }
            {
                let _b = crate::scope!("profile.test.b");
                spin_ns(150_000);
            }
        }
        // Both siblings' totals are excluded from the parent's self time.
        let (p, a, b) = (
            row("profile.test.parent"),
            row("profile.test.a"),
            row("profile.test.b"),
        );
        assert_eq!(p.self_ns + a.total_ns + b.total_ns, p.total_ns);
    }

    #[test]
    fn report_merges_by_name_and_sorts_by_self() {
        let _lock = crate::test_lock();
        crate::reset();
        for _ in 0..2 {
            let _g = crate::scope!("profile.test.hot");
            spin_ns(250_000);
        }
        {
            // A second call site with the same name merges into one row.
            let _g = crate::scope!("profile.test.hot");
            spin_ns(250_000);
        }
        {
            let _g = crate::scope!("profile.test.cold");
            spin_ns(50_000);
        }
        let rows = profile_report();
        let hot_pos = rows
            .iter()
            .position(|r| r.name == "profile.test.hot")
            .unwrap();
        let cold_pos = rows
            .iter()
            .position(|r| r.name == "profile.test.cold")
            .unwrap();
        assert!(hot_pos < cold_pos, "rows must sort by self time: {rows:?}");
        assert_eq!(rows[hot_pos].count, 3);
        assert_eq!(rows[hot_pos].buckets.iter().sum::<u64>(), 3);
        let s = profile_summary();
        assert!(s.contains("profile.test.hot"), "{s}");
    }

    #[test]
    fn macro_declares_and_enters() {
        let _lock = crate::test_lock();
        {
            let _g = crate::scope!("profile.test.via_macro", k = 1u8);
        }
        assert!(profile_report()
            .iter()
            .any(|r| r.name == "profile.test.via_macro"));
    }

    #[test]
    fn scope_guard_records_once() {
        let _lock = crate::test_lock();
        crate::reset();
        {
            let _g = crate::scope!("profile.test.once");
            std::hint::black_box(1 + 1);
        }
        let r = row("profile.test.once");
        assert_eq!(r.count, 1);
        assert_eq!(r.buckets.iter().sum::<u64>(), 1);
        let (events, _) = drain_trace();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "profile.test.once")
                .count(),
            1,
            "one completed-span record"
        );
    }

    /// Profile counts are exact however many records the bounded ring
    /// evicted, and one guard feeds the profile row, its quantiles and the
    /// causal links of the trace together.
    #[test]
    fn profile_is_exact_while_the_ring_evicts() {
        let _lock = crate::test_lock();
        crate::reset();
        let n = TRACE_CAPACITY + 1000;
        for _ in 0..n {
            let _g = crate::scope!("profile.test.flood");
        }
        let (parent_id, child_id) = {
            let parent = crate::scope!("profile.test.parent_one", k = 7u32);
            spin_ns(100_000);
            let child_id = {
                let child = crate::scope!("profile.test.child_one");
                spin_ns(50_000);
                child.id()
            };
            (parent.id(), child_id)
        };
        let flood = row("profile.test.flood");
        assert_eq!(flood.count, n as u64);
        assert_eq!(flood.buckets.iter().sum::<u64>(), n as u64);
        assert!(flood.p50_ns <= flood.p99_ns, "{flood:?}");

        let (events, dropped) = drain_trace();
        assert!(dropped > 0, "the ring must have evicted records");

        let (parent, child) = (
            row("profile.test.parent_one"),
            row("profile.test.child_one"),
        );
        assert_eq!((parent.count, child.count), (1, 1));
        assert_eq!(parent.self_ns + child.total_ns, parent.total_ns);
        assert!(parent.p50_ns <= parent.p99_ns);
        let span = |id: u64| {
            events
                .iter()
                .find(|e| e.span_id == id)
                .copied()
                .unwrap_or_else(|| panic!("no record for span {id}"))
        };
        let (pe, ce) = (span(parent_id), span(child_id));
        // The trace durations are the profile's totals: one clock reading
        // per edge feeds both.
        assert_eq!(
            pe.kind,
            TraceKind::Span {
                dur_ns: parent.total_ns
            }
        );
        assert_eq!(
            ce.kind,
            TraceKind::Span {
                dur_ns: child.total_ns
            }
        );
        assert_eq!(ce.parent_id, parent_id);
        assert_eq!(pe.args.pairs().len(), 1);
    }
}
