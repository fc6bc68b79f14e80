//! Chrome Trace Event export: render the causal trace ring as JSON that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//!
//! The exporter walks the ring *without draining it* and emits one
//! `traceEvents` array:
//!
//! * a span record (one per closed span) becomes one complete event
//!   (`"ph":"X"`) spanning its start and duration, carrying the span's
//!   `id`/`parent` and user args; a span still open has no record yet and
//!   appears once it closes;
//! * an instant event (`event!`) becomes `"ph":"i"` scoped to its thread.
//!
//! Timestamps are microseconds since the process's telemetry epoch, kept
//! fractional to preserve nanosecond resolution. Records whose parent span
//! has no record in the ring are marked `"parent_evicted":true` instead of
//! pretending to be roots — the causal chain is either resolvable or
//! explicitly broken, never silently wrong. A parent's record is always
//! newer than its children's, so that marker means the parent is still
//! open or the ring was drained since.
//!
//! Set `WAZABEE_TRACE_OUT=PATH` and the bench binaries / example session
//! guard call [`dump_trace_from_env`] on exit; [`dump_trace_to`] writes the
//! same document anywhere on demand.

use std::io::{self, Write};
use std::path::Path;

use std::collections::HashSet;

use crate::json::Fixed;
use crate::json::Writer;
use crate::span::{snapshot_trace, ArgValue, SpanArgs, TraceEvent, TraceKind};

/// Environment variable naming the Chrome Trace JSON dump path (see
/// [`dump_trace_from_env`]).
pub const ENV_TRACE_OUT: &str = "WAZABEE_TRACE_OUT";

/// Renders the current trace ring as a Chrome Trace Event JSON document.
///
/// The ring is only peeked — records stay available to [`crate::summary`]
/// and later exports.
#[must_use]
pub fn trace_chrome_json() -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object().key("traceEvents").begin_array();
    let (events, dropped) = snapshot_trace();

    // Which span ids have a record in the ring? A nonzero parent outside
    // this set is unresolvable — mark, don't guess.
    let live_spans: HashSet<u64> = events
        .iter()
        .filter(|ev| ev.span_id != 0)
        .map(|ev| ev.span_id)
        .collect();

    w.begin_object()
        .field("ph", "M")
        .field("pid", 1u8)
        .field("name", "process_name")
        .key("args")
        .begin_object()
        .field("name", "wazabee")
        .end_object()
        .end_object();

    for ev in &events {
        let orphaned = ev.parent_id != 0 && !live_spans.contains(&ev.parent_id);
        w.begin_object().field("name", ev.name);
        match ev.kind {
            TraceKind::Span { .. } => w.field("ph", "X"),
            TraceKind::Instant { .. } => w.field("ph", "i").field("s", "t"),
        };
        w.field("pid", 1u8)
            .field("tid", ev.thread_id)
            .field("ts", micros(ev.ts_ns));
        if let TraceKind::Span { dur_ns } = ev.kind {
            w.field("dur", micros(dur_ns));
        }
        args_object(&mut w, ev, orphaned);
        w.end_object();
    }
    w.end_array()
        .field("displayTimeUnit", "ns")
        .key("otherData")
        .begin_object()
        .field("evicted_records", dropped)
        .end_object();
    w.end_object();
    out
}

/// Nanoseconds → fractional microseconds with exactly three decimals, the
/// resolution Chrome Trace's µs timebase can carry without losing ns.
fn micros(ns: u64) -> Fixed {
    Fixed(ns as f64 / 1e3, 3)
}

/// Writes a record's Chrome `args` member: causal ids first, then the
/// user's key/value pairs, then the orphan marker when the parent span has
/// no record in the ring, then an instant's finite value.
fn args_object(w: &mut Writer, ev: &TraceEvent, orphaned: bool) {
    w.key("args").begin_object();
    if ev.span_id != 0 {
        w.field("span_id", ev.span_id);
    }
    if ev.parent_id != 0 {
        w.field("parent", ev.parent_id);
    }
    write_args(w, &ev.args);
    if orphaned {
        w.field("parent_evicted", true);
    }
    if let TraceKind::Instant { value: Some(v) } = ev.kind {
        if v.is_finite() {
            w.field("value", v);
        }
    }
    w.end_object();
}

/// Writes a [`SpanArgs`] set as object members (shared with the JSONL
/// sink's trace lines).
pub(crate) fn write_args(w: &mut Writer, args: &SpanArgs) {
    for &(k, v) in args.pairs() {
        w.key(k);
        match v {
            ArgValue::U64(v) => w.value(v),
            ArgValue::I64(v) => w.value(v),
            ArgValue::F64(v) => w.value(v),
            ArgValue::Str(s) => w.value(s),
            ArgValue::Bool(b) => w.value(b),
        };
    }
}

/// Writes the Chrome Trace document (see [`trace_chrome_json`]) to `path`,
/// truncating it.
pub fn dump_trace_to(path: &Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(trace_chrome_json().as_bytes())?;
    file.flush()
}

/// If the `WAZABEE_TRACE_OUT` environment variable is set, dumps the
/// Chrome Trace JSON there and returns `Ok(true)`;
/// otherwise returns `Ok(false)` without touching the filesystem.
pub fn dump_trace_from_env() -> io::Result<bool> {
    match std::env::var_os(ENV_TRACE_OUT) {
        Some(path) if !path.is_empty() => {
            dump_trace_to(Path::new(&path))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_spans_render_as_x_events_with_causal_args() {
        let _lock = crate::test_lock();
        crate::reset();
        {
            let _outer = crate::scope!("export.test.outer", chan = 15u8);
            let _inner = crate::scope!("export.test.inner", frame = 3u32);
            crate::event!("export.test.mark", 2.5);
        }
        let doc = trace_chrome_json();
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        // Both spans closed: they must appear as "X" phases, not "B".
        assert!(
            doc.contains("\"name\":\"export.test.outer\",\"ph\":\"X\""),
            "{doc}"
        );
        assert!(
            doc.contains("\"name\":\"export.test.inner\",\"ph\":\"X\""),
            "{doc}"
        );
        assert!(!doc.contains("\"ph\":\"B\""), "{doc}");
        // User args and causal ids ride along.
        assert!(doc.contains("\"chan\":15"), "{doc}");
        assert!(doc.contains("\"frame\":3"), "{doc}");
        assert!(doc.contains("\"parent\":"), "{doc}");
        // The instant carries its value.
        assert!(doc.contains("\"ph\":\"i\""), "{doc}");
        assert!(doc.contains("\"value\":2.5"), "{doc}");
        crate::reset();
    }

    /// A still-open span has no record yet: its closed children point at
    /// it with the orphan marker, and once it closes it renders as "X" and
    /// the same children resolve with no marker.
    #[test]
    fn open_span_appears_once_it_closes() {
        let _lock = crate::test_lock();
        crate::reset();
        let child = "\"name\":\"export.test.open.child\"";
        let guard = crate::scope!("export.test.open");
        drop(crate::scope!("export.test.open.child"));
        let open = trace_chrome_json();
        assert!(!open.contains("\"export.test.open\""), "{open}");
        assert!(open.contains(child), "{open}");
        assert!(open.contains("\"parent_evicted\":true"), "{open}");
        drop(guard);
        let closed = trace_chrome_json();
        assert!(
            closed.contains("\"name\":\"export.test.open\",\"ph\":\"X\""),
            "{closed}"
        );
        assert!(closed.contains(child), "{closed}");
        assert!(!closed.contains("parent_evicted"), "{closed}");
        crate::reset();
    }

    #[test]
    fn micros_keeps_nanosecond_resolution() {
        let render = |ns| {
            let mut out = String::new();
            Writer::new(&mut out).value(micros(ns));
            out
        };
        assert_eq!(render(0), "0.000");
        assert_eq!(render(1), "0.001");
        assert_eq!(render(1_234_567), "1234.567");
        assert_eq!(render(86_400_000_000_999), "86400000000.999");
    }

    #[test]
    fn dump_trace_from_env_is_noop_when_unset() {
        if std::env::var_os(ENV_TRACE_OUT).is_none() {
            assert!(!dump_trace_from_env().unwrap());
        }
    }
}
