//! Causal span/event tracing over a bounded ring buffer.
//!
//! Tracing is coarser than counters — a mutex-guarded ring of the most recent
//! [`TRACE_CAPACITY`] records, oldest overwritten first — but unlike counters
//! every record is *causally linked*: spans carry a process-unique `span_id`,
//! the `parent_id` of the span that was open on the same thread when they
//! started, the recording thread's id, and up to [`MAX_SPAN_ARGS`] static
//! key/value arguments (`scope!("rx.decode", frame = seq, chan = ch)`). That
//! is enough structure for [`crate::trace_chrome_json`] to rebuild a browsable
//! per-frame timeline, and for the flight recorder to point a captured PCAP
//! frame at the exact trace slice that decoded it.
//!
//! Spans are the trace side of [`crate::scope!`]: opening one only hands
//! out its id and makes it the thread's current span; closing it pushes
//! one completed record (start, duration, ids, args). A closed parent is
//! therefore always newer in the ring than its children. Each thread keeps
//! its own current-span cell, so nesting is tracked per thread without any
//! cross-thread locking beyond the one ring push.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum trace records retained (oldest evicted beyond this).
pub const TRACE_CAPACITY: usize = 4096;

/// Maximum key/value arguments one span or event can carry.
pub const MAX_SPAN_ARGS: usize = 4;

/// One span/event argument value. Keys are `&'static str`; values are the
/// small copyable scalars the decode path already has at hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (frame sequence numbers, channels, bit offsets…).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (CFO estimates, distances…).
    F64(f64),
    /// Static string (failure reasons, node kinds…).
    Str(&'static str),
    /// Boolean flag.
    Bool(bool),
}

macro_rules! arg_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            #[inline]
            fn from(v: $t) -> Self {
                ArgValue::U64(v as u64)
            }
        }
    )*};
}
arg_from_uint!(u8, u16, u32, u64, usize);

macro_rules! arg_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            #[inline]
            fn from(v: $t) -> Self {
                ArgValue::I64(v as i64)
            }
        }
    )*};
}
arg_from_int!(i8, i16, i32, i64, isize);

impl From<f32> for ArgValue {
    #[inline]
    fn from(v: f32) -> Self {
        ArgValue::F64(f64::from(v))
    }
}

impl From<f64> for ArgValue {
    #[inline]
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    #[inline]
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    #[inline]
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// A bounded, copyable set of span/event arguments (at most
/// [`MAX_SPAN_ARGS`]; extras are silently dropped). Built by the [`crate::scope!`]
/// and [`crate::event!`] macros via [`SpanArgs::with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanArgs {
    pairs: [(&'static str, ArgValue); MAX_SPAN_ARGS],
    len: u8,
}

impl SpanArgs {
    /// An empty argument set.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        SpanArgs {
            pairs: [("", ArgValue::U64(0)); MAX_SPAN_ARGS],
            len: 0,
        }
    }

    /// Appends one key/value pair (dropped once [`MAX_SPAN_ARGS`] is reached).
    #[inline]
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        if (self.len as usize) < MAX_SPAN_ARGS {
            self.pairs[self.len as usize] = (key, value.into());
            self.len += 1;
        }
        self
    }

    /// The recorded pairs, in insertion order.
    #[inline]
    #[must_use]
    pub fn pairs(&self) -> &[(&'static str, ArgValue)] {
        &self.pairs[..self.len as usize]
    }
}

impl Default for SpanArgs {
    #[inline]
    fn default() -> Self {
        SpanArgs::new()
    }
}

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// A closed span, recorded once when it closed.
    Span {
        /// Time between open and close, in nanoseconds.
        dur_ns: u64,
    },
    /// An instantaneous event, optionally carrying a value.
    Instant {
        /// Attached numeric payload, if any.
        value: Option<f64>,
    },
}

/// One record in the trace ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the first telemetry record of the process: a
    /// span's start, an instant's moment.
    pub ts_ns: u64,
    /// The span/event name.
    pub name: &'static str,
    /// Record kind.
    pub kind: TraceKind,
    /// Process-unique id of this span (0 for instant events).
    pub span_id: u64,
    /// Id of the span open on this thread when the record was made
    /// (0 = no enclosing span).
    pub parent_id: u64,
    /// Small dense id of the recording thread (1-based).
    pub thread_id: u64,
    /// Static key/value arguments attached at the call site.
    pub args: SpanArgs,
}

struct Ring {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    buf: VecDeque::new(),
    dropped: 0,
});

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Next span id to hand out; 0 is reserved for "no span".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Next thread id to hand out (thread ids are dense and 1-based; they are
/// *not* reset by [`crate::reset`] — a thread keeps its id for its lifetime).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Id of the innermost span currently open on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// This thread's dense trace id, assigned on first use.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's dense trace id (assigned on first call, 1-based).
pub(crate) fn thread_trace_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Id of the innermost trace span currently open on the calling thread, or 0
/// when none. The streaming receiver
/// hands this to the flight recorder so a captured frame can name the trace
/// slice that decoded it.
#[inline]
#[must_use]
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(Cell::get)
}

/// Restarts the span-id sequence at 1. Called by [`crate::reset`] so sweep
/// cells and tests see deterministic ids; live guards keep the ids they
/// already captured.
pub(crate) fn reset_ids() {
    NEXT_SPAN_ID.store(1, Ordering::Relaxed);
}

fn push(ev: TraceEvent) {
    let mut ring = RING.lock().unwrap();
    if ring.buf.len() == TRACE_CAPACITY {
        ring.buf.pop_front();
        ring.dropped += 1;
    }
    ring.buf.push_back(ev);
}

/// Records an instantaneous event carrying an optional value and key/value
/// arguments (see the [`crate::event!`] macro).
///
/// The event is parented to the span currently open on this thread.
#[inline]
pub fn event_with(name: &'static str, value: Option<f64>, args: SpanArgs) {
    push(TraceEvent {
        ts_ns: now_ns(),
        name,
        kind: TraceKind::Instant { value },
        span_id: 0,
        parent_id: current_span_id(),
        thread_id: thread_trace_id(),
        args,
    });
}

/// Takes every buffered trace record (and the evicted-record count),
/// emptying the ring.
pub fn drain_trace() -> (Vec<TraceEvent>, u64) {
    let mut ring = RING.lock().unwrap();
    let events = ring.buf.drain(..).collect();
    let dropped = ring.dropped;
    ring.dropped = 0;
    (events, dropped)
}

/// Peeks at the buffered records (and the evicted-record count since the
/// last drain) without draining, both read under one lock so the
/// count describes exactly these records.
#[must_use]
pub(crate) fn snapshot_trace() -> (Vec<TraceEvent>, u64) {
    let ring = RING.lock().unwrap();
    (ring.buf.iter().copied().collect(), ring.dropped)
}

/// Opens a span: hands out its id and makes it the thread's current span.
/// Nothing is recorded until [`close`]. Returns `(span_id, parent_id)`.
pub(crate) fn open() -> (u64, u64) {
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent_id = CURRENT_SPAN.with(|c| c.replace(span_id));
    (span_id, parent_id)
}

/// Closes a span opened by [`open`] at `start_ns` and lasting `dur_ns`:
/// restores the parent as the thread's current span and records the span's
/// one completed record.
pub(crate) fn close(
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    span_id: u64,
    parent_id: u64,
    args: SpanArgs,
) {
    CURRENT_SPAN.with(|c| c.set(parent_id));
    push(TraceEvent {
        ts_ns: start_ns,
        name,
        kind: TraceKind::Span { dur_ns },
        span_id,
        parent_id,
        thread_id: thread_trace_id(),
        args,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_drain() {
        let _lock = crate::test_lock();
        drain_trace();
        {
            let _outer = crate::scope!("span.test.outer");
            {
                let _inner = crate::scope!("span.test.inner");
                crate::event!("span.test.mark", 1.5);
            }
        }
        let (events, dropped) = drain_trace();
        assert_eq!(dropped, 0);
        // One record per span, pushed when it closes: innermost first.
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["span.test.mark", "span.test.inner", "span.test.outer"]
        );
        let [mark, inner, outer] = [events[0], events[1], events[2]];
        assert!(matches!(
            mark.kind,
            TraceKind::Instant { value: Some(v) } if (v - 1.5).abs() < 1e-12
        ));
        let end = |e: TraceEvent| match e.kind {
            TraceKind::Span { dur_ns } => e.ts_ns + dur_ns,
            TraceKind::Instant { .. } => panic!("{e:?} is not a span"),
        };
        // Each span's [start, start + dur] brackets what it encloses.
        assert!(outer.ts_ns <= inner.ts_ns && inner.ts_ns <= mark.ts_ns);
        assert!(mark.ts_ns <= end(inner) && end(inner) <= end(outer));
    }

    #[test]
    fn causal_links_connect_parent_child_and_events() {
        let _lock = crate::test_lock();
        drain_trace();
        {
            let outer = crate::scope!("span.test.causal.outer");
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = crate::scope!("span.test.causal.inner");
                assert_eq!(current_span_id(), inner.id());
                crate::event!("span.test.causal.mark");
            }
            // Inner closed: the outer span is current again.
            assert_eq!(current_span_id(), outer_id);
        }
        assert_eq!(current_span_id(), 0);
        let (events, _) = drain_trace();
        let find = |name: &str| *events.iter().find(|e| e.name == name).unwrap();
        let outer = find("span.test.causal.outer");
        let inner = find("span.test.causal.inner");
        let mark = find("span.test.causal.mark");
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        assert_eq!(mark.parent_id, inner.span_id);
        assert_eq!(mark.span_id, 0);
        // All on the same thread here.
        assert_eq!(outer.thread_id, inner.thread_id);
        assert_ne!(outer.thread_id, 0);
    }

    #[test]
    fn args_are_recorded_and_capped() {
        let _lock = crate::test_lock();
        drain_trace();
        {
            let _s = crate::scope!(
                "span.test.args",
                frame = 7u32,
                chan = 15u8,
                cfo = -1250.5f64,
                kind = "zigbee",
                dropped = 99u64, // fifth arg is dropped
            );
        }
        let (events, _) = drain_trace();
        assert_eq!(events.len(), 1);
        let pairs = events[0].args.pairs();
        assert_eq!(pairs.len(), MAX_SPAN_ARGS);
        assert_eq!(pairs[0], ("frame", ArgValue::U64(7)));
        assert_eq!(pairs[1], ("chan", ArgValue::U64(15)));
        assert_eq!(pairs[2], ("cfo", ArgValue::F64(-1250.5)));
        assert_eq!(pairs[3], ("kind", ArgValue::Str("zigbee")));
    }

    #[test]
    fn threads_get_distinct_ids_and_independent_stacks() {
        let _lock = crate::test_lock();
        drain_trace();
        let here = thread_trace_id();
        let (there, there_parent) = std::thread::spawn(|| {
            let _s = crate::scope!("span.test.thread");
            (thread_trace_id(), current_span_id())
        })
        .join()
        .unwrap();
        assert_ne!(here, there);
        assert_ne!(there_parent, 0);
        // The spawning thread's stack is untouched by the other thread.
        assert_eq!(current_span_id(), 0);
    }

    #[test]
    fn reset_ids_restarts_span_sequence() {
        let _lock = crate::test_lock();
        drain_trace();
        let before = crate::scope!("span.test.seq").id();
        assert_ne!(before, 0);
        reset_ids();
        let after = crate::scope!("span.test.seq").id();
        assert_eq!(after, 1);
        drain_trace();
    }

    /// A parent's record is pushed after all of its children's, so closing
    /// a parent that outlived a ring's worth of children still records it.
    #[test]
    fn parent_closed_after_a_flood_of_children_stays_in_the_ring() {
        let _lock = crate::test_lock();
        drain_trace();
        let n = TRACE_CAPACITY + 10;
        let parent_id = {
            let parent = crate::scope!("span.test.flood.parent");
            for _ in 0..n {
                let _child = crate::scope!("span.test.flood.child");
            }
            parent.id()
        };
        let (events, dropped) = drain_trace();
        assert_eq!(dropped, (n + 1 - TRACE_CAPACITY) as u64);
        let (parent, children) = events.split_last().unwrap();
        assert_eq!(
            (parent.name, parent.span_id),
            ("span.test.flood.parent", parent_id)
        );
        assert!(children.iter().all(|c| c.parent_id == parent_id));
    }

    #[test]
    fn ring_evicts_oldest() {
        let _lock = crate::test_lock();
        drain_trace();
        for _ in 0..TRACE_CAPACITY + 10 {
            crate::event!("span.test.flood");
        }
        let (events, dropped) = drain_trace();
        assert_eq!(events.len(), TRACE_CAPACITY);
        assert_eq!(dropped, 10);
    }
}
