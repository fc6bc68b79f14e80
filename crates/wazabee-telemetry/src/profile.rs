//! The one timing probe: a [`Scope`] per call site, opened with
//! [`crate::scope!`] and closed when the returned [`ScopeGuard`] drops.
//!
//! A scope is a named region of the pipeline (`stream.demod`, `rx.decode`,
//! `sim.superpose`, `ble.gfsk.modulate_ns`, …). Opening and closing each
//! read the clock once, and those two readings feed three views:
//!
//! * the **profile** — per call site a count, total (inclusive) and self
//!   (exclusive) nanoseconds, and 64 log₂ duration buckets, so every row
//!   reports exact counts plus p50/p99 without locks. Self time comes from
//!   a thread-local child-time cell: each closing scope bills its total to
//!   the enclosing one, and a caller whose total is large but whose self is
//!   small is just a caller;
//! * the **trace** — one completed-span record (start and duration) pushed
//!   to the bounded trace ring while a trace consumer is attached (see
//!   [`crate::trace_attached`] and [`crate::drain_trace`]),
//!   carrying the span id, the parent span open on the same thread and up
//!   to [`crate::MAX_SPAN_ARGS`] arguments;
//! * the **current span** — the thread-local id events and the flight
//!   recorder attach to ([`crate::current_span_id`]).
//!
//! The profile is kept per thread: each thread owns one tally per call
//! site, which only it writes, with a plain relaxed load and store — no
//! locked read-modify-write and no cache line shared with another core.
//! [`profile_report`] sums the live threads' tallies with each [`Scope`]'s
//! own atomics, into which a thread folds its tallies when it exits, so
//! counts stay exact for threads joined before the report. The ring is
//! bounded and evicts the oldest records; the profile is exact no matter
//! how many records it dropped.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{log2_bucket, log2_quantile_ns};
use crate::span::{lock, SpanArgs};
use crate::HIST_BUCKETS;

/// One call site's count, total and self nanoseconds and log₂ duration
/// buckets.
#[derive(Debug)]
struct Tally {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// Adds `v` to a cell only the calling thread writes: a relaxed load and
/// store, which readers on other threads see whole.
#[inline]
fn bump(cell: &AtomicU64, v: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(v),
        Ordering::Relaxed,
    );
}

impl Tally {
    const fn new() -> Self {
        Tally {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// Records one close on a tally the calling thread owns.
    #[inline]
    fn record_owned(&self, total: u64, self_ns: u64) {
        bump(&self.count, 1);
        bump(&self.total_ns, total);
        bump(&self.self_ns, self_ns);
        bump(&self.buckets[log2_bucket(total)], 1);
    }

    /// Records one close on a tally any thread may write.
    fn record_shared(&self, total: u64, self_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(total, Ordering::Relaxed);
        self.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        self.buckets[log2_bucket(total)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `other` into this shared tally.
    fn fold(&self, other: &Tally) {
        let pairs = [
            (&self.count, &other.count),
            (&self.total_ns, &other.total_ns),
            (&self.self_ns, &other.self_ns),
        ];
        for (dst, src) in pairs
            .into_iter()
            .chain(self.buckets.iter().zip(&other.buckets))
        {
            let v = src.load(Ordering::Relaxed);
            if v != 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    fn add_to(&self, row: &mut StageRow) {
        row.count += self.count.load(Ordering::Relaxed);
        row.total_ns += self.total_ns.load(Ordering::Relaxed);
        row.self_ns += self.self_ns.load(Ordering::Relaxed);
        for (dst, src) in row.buckets.iter_mut().zip(&self.buckets) {
            *dst += src.load(Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Call sites per lazily allocated block of a thread's tallies.
const CHUNK: usize = 32;
/// Blocks per thread: room for 4096 call sites. A scope registered past
/// that records into its shared atomics instead.
const MAX_CHUNKS: usize = 128;

/// One thread's tallies, indexed by the scope's registration index. Only
/// the owning thread writes them; [`profile_report`] and [`reset`] read
/// and zero them from any thread.
struct ThreadTallies {
    chunks: [OnceLock<Box<[Tally; CHUNK]>>; MAX_CHUNKS],
}

impl ThreadTallies {
    /// The tally for scope `index`, allocating its block on first use;
    /// `None` past the last block.
    #[inline]
    fn tally(&self, index: usize) -> Option<&Tally> {
        let chunk = self.chunks.get(index / CHUNK)?;
        Some(&chunk.get_or_init(|| Box::new([const { Tally::new() }; CHUNK]))[index % CHUNK])
    }

    /// The tally for scope `index` if its block is allocated.
    fn tally_if_allocated(&self, index: usize) -> Option<&Tally> {
        Some(&self.chunks.get(index / CHUNK)?.get()?[index % CHUNK])
    }

    /// The allocated tallies with their scope indices.
    fn allocated(&self) -> impl Iterator<Item = (usize, &Tally)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((c, chunk.get()?)))
            .flat_map(|(c, block)| {
                block
                    .iter()
                    .enumerate()
                    .map(move |(k, t)| (c * CHUNK + k, t))
            })
    }
}

/// The live threads' tallies. Held while a thread folds its tallies on
/// exit, while [`profile_report`] sums and while [`reset`] zeroes, so each
/// close counts exactly once.
static LIVE: Mutex<Vec<Arc<ThreadTallies>>> = Mutex::new(Vec::new());

/// The calling thread's tallies, registered in [`LIVE`] on the thread's
/// first close and folded into the scopes' atomics when it exits.
struct LocalTallies(Arc<ThreadTallies>);

impl LocalTallies {
    fn new() -> Self {
        let tallies = Arc::new(ThreadTallies {
            chunks: [const { OnceLock::new() }; MAX_CHUNKS],
        });
        lock(&LIVE).push(Arc::clone(&tallies));
        LocalTallies(tallies)
    }
}

impl Drop for LocalTallies {
    fn drop(&mut self) {
        let mut live = lock(&LIVE);
        live.retain(|t| !Arc::ptr_eq(t, &self.0));
        let scopes = lock(&crate::registry::registry().scopes);
        for (index, tally) in self.0.allocated() {
            if let Some(scope) = scopes.get(index) {
                scope.folded.fold(tally);
            }
        }
    }
}

thread_local! {
    /// Nanoseconds consumed by already-closed child scopes of the innermost
    /// open scope on this thread.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
    /// This thread's profile tallies.
    static TALLIES: LocalTallies = LocalTallies::new();
}

/// Per-call-site timing store, declared statically by [`crate::scope!`].
#[derive(Debug)]
pub struct Scope {
    name: &'static str,
    /// Position in the registry's scope list, which indexes every thread's
    /// tallies; `usize::MAX` until the first open registers the scope.
    /// Stored under the registry lock, which every reader that maps an
    /// index back to its scope takes too.
    index: AtomicUsize,
    /// Tallies of threads that exited, and closes made where no thread
    /// tally was available.
    folded: Tally,
}

impl Scope {
    /// Creates an unregistered scope (use via [`crate::scope!`]).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        Scope {
            name,
            index: AtomicUsize::new(usize::MAX),
            folded: Tally::new(),
        }
    }

    /// The scope name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Opens the scope: profile bookkeeping, and this scope becomes the
    /// thread's current span. Its trace record is made when it closes.
    #[inline]
    #[must_use = "the scope closes when the guard drops; binding it to _ drops immediately"]
    pub fn enter(&'static self, args: SpanArgs) -> ScopeGuard {
        if self.index.load(Ordering::Relaxed) == usize::MAX {
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

    #[cold]
    fn register_slow(&'static self) {
        let mut scopes = lock(&crate::registry::registry().scopes);
        if self.index.load(Ordering::Relaxed) == usize::MAX {
            self.index.store(scopes.len(), Ordering::Relaxed);
            scopes.push(self);
        }
    }

    /// Records one close of `total` nanoseconds, `self_ns` of them its own,
    /// in the calling thread's tally.
    #[inline]
    fn record(&self, total: u64, self_ns: u64) {
        let index = self.index.load(Ordering::Relaxed);
        let owned = TALLIES
            .try_with(|t| t.0.tally(index).map(|t| t.record_owned(total, self_ns)))
            .ok()
            .flatten();
        if owned.is_none() {
            // Past the last tally block, or a close made from another
            // thread-local's destructor after this thread's tallies folded.
            self.folded.record_shared(total, self_ns);
        }
    }
}

/// Zeroes the profile: every scope's folded tallies and every live
/// thread's.
///
/// Call it only while no scope closes on another thread. An owner updates
/// its tally with a plain load and store, so a close racing the zeroing can
/// store back the thread's whole pre-reset tally, and the four fields of a
/// tally can mix pre- and post-reset values. The workspace's callers (tests
/// and benchmark phases) reset between phases, while no scope is open.
pub(crate) fn reset() {
    let live = lock(&LIVE);
    for scope in lock(&crate::registry::registry().scopes).iter() {
        scope.folded.reset();
    }
    for (_, tally) in live.iter().flat_map(|t| t.allocated()) {
        tally.reset();
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
    scope: &'static Scope,
    start_ns: u64,
    parent_child_ns: u64,
    span_id: u64,
    parent_id: u64,
    args: SpanArgs,
    _not_send: PhantomData<*const ()>,
}

impl ScopeGuard {
    /// This scope's process-unique span id.
    #[inline]
    #[must_use]
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        let end_ns = crate::span::now_ns();
        let total = end_ns.saturating_sub(self.start_ns);
        // Whatever the child accumulator holds now was spent in scopes
        // nested under this one; restore the parent's accumulator and
        // bill it our whole total.
        let child = CHILD_NS.with(|c| c.replace(self.parent_child_ns + total));
        let s = self.scope;
        s.record(total, total.saturating_sub(child));
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
/// Empty when nothing was profiled.
#[must_use]
pub fn profile_report() -> Vec<StageRow> {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<&'static str, StageRow> = BTreeMap::new();
    let live = lock(&LIVE);
    for (index, s) in lock(&crate::registry::registry().scopes).iter().enumerate() {
        let row = rows.entry(s.name).or_insert(StageRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            p50_ns: 0,
            p99_ns: 0,
            buckets: [0; HIST_BUCKETS],
        });
        s.folded.add_to(row);
        for tally in live.iter().filter_map(|t| t.tally_if_allocated(index)) {
            tally.add_to(row);
        }
    }
    drop(live);
    let mut out: Vec<StageRow> = rows.into_values().filter(|r| r.count > 0).collect();
    for r in &mut out {
        r.p50_ns = log2_quantile_ns(&r.buckets, 0.5);
        r.p99_ns = log2_quantile_ns(&r.buckets, 0.99);
    }
    out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    out
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

#[cfg(test)]
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
        crate::set_trace_attached(true);
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
        crate::set_trace_attached(true);
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

    /// Counts, buckets and self + child = total stay exact over threads
    /// that exited before the report (folded into the scope's atomics) and
    /// threads still alive (summed from their own tallies); `reset`
    /// zeroes both.
    #[test]
    fn profile_is_exact_across_threads() {
        use std::sync::Barrier;
        const THREADS: usize = 2;
        const CALLS: u64 = 1000;
        let _lock = crate::test_lock();
        crate::set_trace_attached(false);
        crate::reset();
        let work = || {
            for _ in 0..CALLS {
                let _o = crate::scope!("profile.test.threads.outer");
                let _i = crate::scope!("profile.test.threads.inner");
            }
        };
        let rows = || {
            profile_report()
                .into_iter()
                .filter(|r| r.name.starts_with("profile.test.threads."))
                .collect::<Vec<_>>()
        };
        let check = |rows: &[StageRow], calls: u64| {
            let find = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
            let (outer, inner) = (
                find("profile.test.threads.outer"),
                find("profile.test.threads.inner"),
            );
            assert_eq!((outer.count, inner.count), (calls, calls));
            assert_eq!(outer.buckets.iter().sum::<u64>(), calls);
            assert_eq!(inner.buckets.iter().sum::<u64>(), calls);
            assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        };

        let exited: Vec<_> = (0..THREADS).map(|_| std::thread::spawn(work)).collect();
        for h in exited {
            h.join().unwrap();
        }
        check(&rows(), THREADS as u64 * CALLS);

        // Read while the workers are parked, assert once they are released:
        // a failed assertion must not leave them waiting on the barrier.
        let worked = Barrier::new(THREADS + 1);
        let reported = Barrier::new(THREADS + 1);
        let (live, after_reset) = std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    work();
                    worked.wait();
                    reported.wait();
                });
            }
            worked.wait();
            let live = rows();
            crate::reset();
            let after_reset = rows();
            reported.wait();
            (live, after_reset)
        });
        check(&live, 2 * THREADS as u64 * CALLS);
        assert!(after_reset.is_empty(), "{after_reset:?}");
        // The reset threads exited with zeroed tallies: nothing folds back.
        assert!(rows().is_empty());
    }
}
