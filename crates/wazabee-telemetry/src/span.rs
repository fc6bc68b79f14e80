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
//! Spans are the trace side of [`crate::scope!`]: enter on construction,
//! exit (with duration) on drop. Each thread keeps its own current-span
//! cell, so nesting is tracked per thread without any cross-thread locking
//! beyond the ring push.

#[cfg(feature = "enabled")]
use std::cell::Cell;
#[cfg(feature = "enabled")]
use std::collections::VecDeque;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};
#[cfg(feature = "enabled")]
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
    /// A span opened.
    SpanEnter,
    /// A span closed; duration in nanoseconds.
    SpanExit {
        /// Time between enter and exit.
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
    /// Nanoseconds since the first telemetry record of the process.
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

#[cfg(feature = "enabled")]
struct Ring {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

#[cfg(feature = "enabled")]
fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: VecDeque::with_capacity(TRACE_CAPACITY),
            dropped: 0,
        })
    })
}

#[cfg(feature = "enabled")]
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[cfg(feature = "enabled")]
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Next span id to hand out; 0 is reserved for "no span".
#[cfg(feature = "enabled")]
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Next thread id to hand out (thread ids are dense and 1-based; they are
/// *not* reset by [`crate::reset`] — a thread keeps its id for its lifetime).
#[cfg(feature = "enabled")]
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

#[cfg(feature = "enabled")]
thread_local! {
    /// Id of the innermost span currently open on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// This thread's dense trace id, assigned on first use.
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
}

/// This thread's dense trace id (assigned on first call, 1-based).
#[cfg(feature = "enabled")]
pub(crate) fn thread_trace_id() -> u64 {
    THREAD_ID.with(|c| {
        let mut id = c.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

/// Id of the innermost trace span currently open on the calling thread, or 0
/// when none (or when telemetry is compiled out). The streaming receiver
/// hands this to the flight recorder so a captured frame can name the trace
/// slice that decoded it.
#[inline]
#[must_use]
pub fn current_span_id() -> u64 {
    #[cfg(feature = "enabled")]
    {
        CURRENT_SPAN.with(Cell::get)
    }
    #[cfg(not(feature = "enabled"))]
    0
}

/// Restarts the span-id sequence at 1. Called by [`crate::reset`] so sweep
/// cells and tests see deterministic ids; live guards keep the ids they
/// already captured.
pub(crate) fn reset_ids() {
    #[cfg(feature = "enabled")]
    NEXT_SPAN_ID.store(1, Ordering::Relaxed);
}

#[cfg(feature = "enabled")]
fn push(ev: TraceEvent) {
    let mut ring = ring().lock().unwrap();
    if ring.buf.len() == TRACE_CAPACITY {
        ring.buf.pop_front();
        ring.dropped += 1;
    }
    ring.buf.push_back(ev);
}

/// Records an instantaneous event (see also the [`crate::event!`] macro).
///
/// The event is parented to the span currently open on this thread.
#[inline]
pub fn event(name: &'static str, value: Option<f64>) {
    event_with(name, value, SpanArgs::new());
}

/// Records an instantaneous event carrying key/value arguments.
#[inline]
pub fn event_with(name: &'static str, value: Option<f64>, args: SpanArgs) {
    #[cfg(feature = "enabled")]
    push(TraceEvent {
        ts_ns: now_ns(),
        name,
        kind: TraceKind::Instant { value },
        span_id: 0,
        parent_id: current_span_id(),
        thread_id: thread_trace_id(),
        args,
    });
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value, args);
}

/// Takes every buffered trace record (and the evicted-record count),
/// emptying the ring.
pub fn drain_trace() -> (Vec<TraceEvent>, u64) {
    #[cfg(feature = "enabled")]
    {
        let mut ring = ring().lock().unwrap();
        let events = ring.buf.drain(..).collect();
        let dropped = ring.dropped;
        ring.dropped = 0;
        (events, dropped)
    }
    #[cfg(not(feature = "enabled"))]
    (Vec::new(), 0)
}

/// Empties the ring without returning anything.
pub(crate) fn clear() {
    #[cfg(feature = "enabled")]
    {
        let mut ring = ring().lock().unwrap();
        ring.buf.clear();
        ring.dropped = 0;
    }
}

/// Peeks at the buffered records without draining.
#[must_use]
pub(crate) fn snapshot_trace() -> Vec<TraceEvent> {
    #[cfg(feature = "enabled")]
    {
        ring().lock().unwrap().buf.iter().copied().collect()
    }
    #[cfg(not(feature = "enabled"))]
    Vec::new()
}

/// Evicted-record count since the last drain/clear.
#[cfg(feature = "enabled")]
pub(crate) fn dropped_count() -> u64 {
    ring().lock().unwrap().dropped
}

/// Opens a span at `ts_ns`: hands out its id, makes it the thread's
/// current span and records the enter event. Returns `(span_id, parent_id)`.
#[cfg(feature = "enabled")]
pub(crate) fn open(name: &'static str, ts_ns: u64, args: SpanArgs) -> (u64, u64) {
    let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent_id = CURRENT_SPAN.with(|c| c.replace(span_id));
    push(TraceEvent {
        ts_ns,
        name,
        kind: TraceKind::SpanEnter,
        span_id,
        parent_id,
        thread_id: thread_trace_id(),
        args,
    });
    (span_id, parent_id)
}

/// Closes a span opened by [`open`] at `ts_ns` after `dur_ns`: restores the
/// parent as the thread's current span and records the exit event.
#[cfg(feature = "enabled")]
pub(crate) fn close(
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    span_id: u64,
    parent_id: u64,
    args: SpanArgs,
) {
    CURRENT_SPAN.with(|c| c.set(parent_id));
    push(TraceEvent {
        ts_ns,
        name,
        kind: TraceKind::SpanExit { dur_ns },
        span_id,
        parent_id,
        thread_id: thread_trace_id(),
        args,
    });
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_drain() {
        let _lock = crate::test_lock();
        clear();
        {
            let _outer = crate::scope!("span.test.outer");
            {
                let _inner = crate::scope!("span.test.inner");
                event("span.test.mark", Some(1.5));
            }
        }
        let (events, dropped) = drain_trace();
        assert_eq!(dropped, 0);
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "span.test.outer",
                "span.test.inner",
                "span.test.mark",
                "span.test.inner",
                "span.test.outer",
            ]
        );
        assert!(matches!(events[0].kind, TraceKind::SpanEnter));
        assert!(matches!(events[3].kind, TraceKind::SpanExit { .. }));
        assert!(matches!(
            events[2].kind,
            TraceKind::Instant { value: Some(v) } if (v - 1.5).abs() < 1e-12
        ));
        // Timestamps are monotone.
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn causal_links_connect_parent_child_and_events() {
        let _lock = crate::test_lock();
        clear();
        {
            let outer = crate::scope!("span.test.causal.outer");
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            assert_eq!(current_span_id(), outer_id);
            {
                let inner = crate::scope!("span.test.causal.inner");
                assert_eq!(current_span_id(), inner.id());
                event("span.test.causal.mark", None);
            }
            // Inner closed: the outer span is current again.
            assert_eq!(current_span_id(), outer_id);
        }
        assert_eq!(current_span_id(), 0);
        let (events, _) = drain_trace();
        let outer_enter = events
            .iter()
            .find(|e| e.name == "span.test.causal.outer" && e.kind == TraceKind::SpanEnter)
            .unwrap();
        let inner_enter = events
            .iter()
            .find(|e| e.name == "span.test.causal.inner" && e.kind == TraceKind::SpanEnter)
            .unwrap();
        let mark = events
            .iter()
            .find(|e| e.name == "span.test.causal.mark")
            .unwrap();
        assert_eq!(outer_enter.parent_id, 0);
        assert_eq!(inner_enter.parent_id, outer_enter.span_id);
        assert_eq!(mark.parent_id, inner_enter.span_id);
        assert_eq!(mark.span_id, 0);
        // Enter and exit of the same span share one id.
        let inner_exit = events
            .iter()
            .find(|e| {
                e.name == "span.test.causal.inner" && matches!(e.kind, TraceKind::SpanExit { .. })
            })
            .unwrap();
        assert_eq!(inner_exit.span_id, inner_enter.span_id);
        // All on the same thread here.
        assert_eq!(outer_enter.thread_id, inner_enter.thread_id);
        assert_ne!(outer_enter.thread_id, 0);
    }

    #[test]
    fn args_are_recorded_and_capped() {
        let _lock = crate::test_lock();
        clear();
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
        let enter = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanEnter)
            .unwrap();
        let pairs = enter.args.pairs();
        assert_eq!(pairs.len(), MAX_SPAN_ARGS);
        assert_eq!(pairs[0], ("frame", ArgValue::U64(7)));
        assert_eq!(pairs[1], ("chan", ArgValue::U64(15)));
        assert_eq!(pairs[2], ("cfo", ArgValue::F64(-1250.5)));
        assert_eq!(pairs[3], ("kind", ArgValue::Str("zigbee")));
        // Exit carries the same args.
        let exit = events
            .iter()
            .find(|e| matches!(e.kind, TraceKind::SpanExit { .. }))
            .unwrap();
        assert_eq!(exit.args.pairs(), pairs);
    }

    #[test]
    fn threads_get_distinct_ids_and_independent_stacks() {
        let _lock = crate::test_lock();
        clear();
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
        clear();
        let before = crate::scope!("span.test.seq").id();
        assert_ne!(before, 0);
        reset_ids();
        let after = crate::scope!("span.test.seq").id();
        assert_eq!(after, 1);
        clear();
    }

    #[test]
    fn ring_evicts_oldest() {
        let _lock = crate::test_lock();
        clear();
        for _ in 0..TRACE_CAPACITY + 10 {
            event("span.test.flood", None);
        }
        let (events, dropped) = drain_trace();
        assert_eq!(events.len(), TRACE_CAPACITY);
        assert_eq!(dropped, 10);
    }
}
