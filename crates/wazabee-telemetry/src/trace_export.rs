//! Chrome Trace Event export: render the causal trace ring as JSON that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//!
//! The exporter walks the ring *without draining it* and emits one
//! `traceEvents` array:
//!
//! * a closed span (its `SpanExit` record is in the ring) becomes one
//!   complete event (`"ph":"X"`) spanning enter→exit, carrying the span's
//!   `id`/`parent` and user args;
//! * a span whose exit was never recorded (still open, or the exit was
//!   evicted) becomes a begin event (`"ph":"B"`) so the tail of a long run
//!   still renders;
//! * an instant event (`event!`) becomes `"ph":"i"` scoped to its thread.
//!
//! Timestamps are microseconds since the process's telemetry epoch, kept
//! fractional to preserve nanosecond resolution. Records whose parent span
//! was evicted from the bounded ring are marked `"parent_evicted":true`
//! instead of pretending to be roots — the causal chain is either resolvable
//! or explicitly broken, never silently wrong.
//!
//! Set `WAZABEE_TRACE_OUT=PATH` and the bench binaries / example session
//! guard call [`dump_trace_from_env`] on exit; [`dump_trace_to`] writes the
//! same document anywhere on demand. With the `enabled` feature off nothing
//! is ever written and the document renders empty.

use std::io::{self, Write};
use std::path::Path;

#[cfg(feature = "enabled")]
use std::collections::HashSet;
#[cfg(feature = "enabled")]
use std::fmt::Write as _;

#[cfg(feature = "enabled")]
use crate::sink::json_escape;
#[cfg(feature = "enabled")]
use crate::span::{snapshot_trace, ArgValue, SpanArgs, TraceEvent, TraceKind};

/// Environment variable naming the Chrome Trace JSON dump path (see
/// [`dump_trace_from_env`]).
pub const ENV_TRACE_OUT: &str = "WAZABEE_TRACE_OUT";

/// Renders the current trace ring as a Chrome Trace Event JSON document.
///
/// The ring is only peeked — records stay available to [`crate::summary`]
/// and later exports. With the `enabled` feature off this returns an empty
/// document (`{"traceEvents":[]}`).
#[must_use]
pub fn trace_chrome_json() -> String {
    #[cfg(not(feature = "enabled"))]
    {
        "{\"traceEvents\":[]}".to_string()
    }
    #[cfg(feature = "enabled")]
    {
        let events = snapshot_trace();
        let dropped = crate::span::dropped_count();

        // Which span ids still have records in the ring? A nonzero parent
        // outside this set was evicted — mark, don't guess.
        let mut live_spans: HashSet<u64> = HashSet::with_capacity(events.len());
        // Which span ids have their exit in the ring? Those enters are
        // subsumed by the complete ("X") event built from the exit.
        let mut exited: HashSet<u64> = HashSet::new();
        for ev in &events {
            if ev.span_id != 0 {
                live_spans.insert(ev.span_id);
            }
            if matches!(ev.kind, TraceKind::SpanExit { .. }) {
                exited.insert(ev.span_id);
            }
        }

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&line);
        };

        emit(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"wazabee\"}}"
                .to_string(),
            &mut out,
        );

        for ev in &events {
            let orphaned = ev.parent_id != 0 && !live_spans.contains(&ev.parent_id);
            match ev.kind {
                TraceKind::SpanEnter => {
                    if exited.contains(&ev.span_id) {
                        continue; // rendered as a complete event at its exit
                    }
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\
                             \"ts\":{},\"args\":{}}}",
                            json_escape(ev.name),
                            ev.thread_id,
                            micros(ev.ts_ns),
                            args_object(ev, orphaned),
                        ),
                        &mut out,
                    );
                }
                TraceKind::SpanExit { dur_ns } => {
                    let start_ns = ev.ts_ns.saturating_sub(dur_ns);
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                             \"ts\":{},\"dur\":{},\"args\":{}}}",
                            json_escape(ev.name),
                            ev.thread_id,
                            micros(start_ns),
                            micros(dur_ns),
                            args_object(ev, orphaned),
                        ),
                        &mut out,
                    );
                }
                TraceKind::Instant { value } => {
                    let mut args = args_object(ev, orphaned);
                    if let Some(v) = value {
                        if v.is_finite() {
                            args.truncate(args.len() - 1);
                            if args.len() > 1 {
                                args.push(',');
                            }
                            let _ = write!(args, "\"value\":{v}}}");
                        }
                    }
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                             \"tid\":{},\"ts\":{},\"args\":{args}}}",
                            json_escape(ev.name),
                            ev.thread_id,
                            micros(ev.ts_ns),
                        ),
                        &mut out,
                    );
                }
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"evicted_records\":{dropped}}}}}"
        );
        out
    }
}

/// Nanoseconds → fractional microseconds with exactly three decimals, the
/// resolution Chrome Trace's µs timebase can carry without losing ns.
#[cfg(feature = "enabled")]
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders a record's Chrome `args` object: causal ids first, then the
/// user's key/value pairs, then the orphan marker when the parent span's
/// records were evicted from the ring.
#[cfg(feature = "enabled")]
fn args_object(ev: &TraceEvent, orphaned: bool) -> String {
    let mut out = String::from("{");
    if ev.span_id != 0 {
        let _ = write!(out, "\"span_id\":{}", ev.span_id);
    }
    if ev.parent_id != 0 {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\"parent\":{}", ev.parent_id);
    }
    for (k, v) in ev.args.pairs() {
        if out.len() > 1 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), arg_json(v));
    }
    if orphaned {
        if out.len() > 1 {
            out.push(',');
        }
        out.push_str("\"parent_evicted\":true");
    }
    out.push('}');
    out
}

/// Renders one argument value as a JSON value.
#[cfg(feature = "enabled")]
fn arg_json(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(v) => format!("{v}"),
        ArgValue::I64(v) => format!("{v}"),
        ArgValue::F64(v) => {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        ArgValue::Str(s) => format!("\"{}\"", json_escape(s)),
        ArgValue::Bool(b) => format!("{b}"),
    }
}

/// Renders a [`SpanArgs`] set alone as a JSON object (used by the JSONL
/// sink's trace lines).
#[cfg(feature = "enabled")]
pub(crate) fn span_args_json(args: &SpanArgs) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in args.pairs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k), arg_json(v));
    }
    out.push('}');
    out
}

/// Writes the Chrome Trace document (see [`trace_chrome_json`]) to `path`,
/// truncating it.
pub fn dump_trace_to(path: &Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(trace_chrome_json().as_bytes())?;
    file.flush()
}

/// If the `WAZABEE_TRACE_OUT` environment variable is set (and telemetry is
/// compiled in), dumps the Chrome Trace JSON there and returns `Ok(true)`;
/// otherwise returns `Ok(false)` without touching the filesystem.
pub fn dump_trace_from_env() -> io::Result<bool> {
    #[cfg(feature = "enabled")]
    {
        match std::env::var_os(ENV_TRACE_OUT) {
            Some(path) if !path.is_empty() => {
                dump_trace_to(Path::new(&path))?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
    #[cfg(not(feature = "enabled"))]
    Ok(false)
}

#[cfg(all(test, feature = "enabled"))]
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

    #[test]
    fn open_span_renders_as_begin_event() {
        let _lock = crate::test_lock();
        crate::reset();
        let guard = crate::scope!("export.test.open");
        let doc = trace_chrome_json();
        assert!(
            doc.contains("\"name\":\"export.test.open\",\"ph\":\"B\""),
            "{doc}"
        );
        drop(guard);
        crate::reset();
    }

    #[test]
    fn micros_keeps_nanosecond_resolution() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn dump_trace_from_env_is_noop_when_unset() {
        if std::env::var_os(ENV_TRACE_OUT).is_none() {
            assert!(!dump_trace_from_env().unwrap());
        }
    }
}
