//! Output sinks: end-of-run console summary and JSONL export.
//!
//! Both sinks read the global registry (every counter/histogram touched this
//! run); the JSONL dump also reads the trace ring. The summary derives the
//! headline figures of the paper's evaluation — sync-hit rate, CRC-24/FCS
//! pass rates, PER — from counter naming conventions: any
//! `*.hit`/`*.miss` or `*.ok`/`*.fail` pair yields a rate line, and
//! `*frames_tx` vs `*frames_ok` totals yield PER.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::json::Writer;
use crate::labeled::{Cell, Metric};
use crate::registry::{listed, registry};
use crate::span::{snapshot_trace, TraceKind};
use crate::{Gauge, HistStats, Histogram, LabelSet};
use std::sync::Mutex;

/// Environment variable naming a JSONL dump path (see [`dump_from_env`]).
pub const ENV_OUT: &str = "WAZABEE_TELEMETRY_OUT";

/// Empty-label counter cells, summed by name (call sites sharing a name
/// merge here).
fn merged_counters() -> BTreeMap<&'static str, u64> {
    let mut merged: BTreeMap<&'static str, u64> = BTreeMap::new();
    for c in listed(&registry().counters).iter().filter(|c| c.flat()) {
        *merged.entry(c.name()).or_insert(0) += c.get();
    }
    merged
}

/// Renders the end-of-run console summary table.
///
/// Sections: derived rates (sync success, CRC/FCS pass, PER), counters,
/// labeled cells and gauges, empty-label histogram cells
/// (count/mean/p50/p99), alerts, and the scope profile
/// (count/self/total/p50/p99).
#[must_use]
pub fn summary() -> String {
    let mut out = String::from("=== wazabee telemetry summary ===\n");
    let counters = merged_counters();

    // Derived headline rates from naming conventions.
    let total = |suffix: &str| -> u64 {
        counters
            .iter()
            .filter(|(name, _)| name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let mut derived: Vec<String> = [
        ("sync-hit rate", ".sync.hit", ".sync.miss"),
        ("CRC-24 pass rate", ".crc.ok", ".crc.fail"),
        ("FCS pass rate", ".fcs.ok", ".fcs.fail"),
    ]
    .into_iter()
    .filter_map(|(label, pass, fail)| {
        let (pass, fail) = (total(pass), total(fail));
        let n = pass + fail;
        (n > 0).then(|| {
            format!(
                "  {label:<28} {pass}/{n} ({:.2}%)",
                100.0 * pass as f64 / n as f64
            )
        })
    })
    .collect();
    let (frames_tx, frames_ok) = (total("frames_tx"), total("frames_ok"));
    if frames_tx > 0 {
        let per = 1.0 - (frames_ok.min(frames_tx) as f64 / frames_tx as f64);
        derived.push(format!(
            "  {:<28} {:.4} ({frames_ok}/{frames_tx} frames ok)",
            "PER", per
        ));
    }
    // Failure taxonomy: counters named `*.rx.fail.<reason>` (emitted by
    // the flight-recorder hooks in the RX paths) grouped by reason.
    let mut fail_by_reason: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, value) in &counters {
        if let Some((_, reason)) = name.split_once(".rx.fail.") {
            if !reason.is_empty() {
                *fail_by_reason.entry(reason).or_insert(0) += value;
            }
        }
    }
    derived.extend(
        fail_by_reason
            .iter()
            .map(|(reason, n)| format!("  rx.fail.{reason:<20} {n}")),
    );
    section(&mut out, "derived", derived);
    section(
        &mut out,
        "counters",
        counters.iter().map(|(name, v)| format!("  {name:<40} {v}")),
    );

    // Labeled cells, one line per cell, `name{labels}` style.
    section(
        &mut out,
        "labeled counters",
        sorted(&registry().counters, Metric::labeled)
            .into_iter()
            .flat_map(|c| {
                c.cells()
                    .into_iter()
                    .map(move |(l, v)| format!("  {:<40} {v}", cell_name(c.name(), &l)))
            }),
    );
    section(
        &mut out,
        "gauges",
        gauges().into_iter().flat_map(|(g, cells)| {
            cells
                .into_iter()
                .map(move |(l, v)| format!("  {:<40} {v:.4}", cell_name(g.name(), &l)))
        }),
    );
    section(
        &mut out,
        "labeled histograms",
        sorted(&registry().histograms, Metric::labeled)
            .into_iter()
            .flat_map(|h| {
                h.cells()
                    .into_iter()
                    .filter(|(_, s)| s.count > 0)
                    .map(move |(l, s)| format!("  {}", stats_line(&cell_name(h.name(), &l), &s)))
            }),
    );
    section(
        &mut out,
        "value histograms",
        flat_histograms().into_iter().map(|h| {
            let s = h.stats();
            if s.count == 0 {
                format!("  {:<40} (empty)", h.name())
            } else {
                format!("  {}", stats_line(h.name(), &s))
            }
        }),
    );

    // Health rules: one watchdog tick, then every armed rule with its
    // verdict — firing/latched alerts stand out, healthy rules read "ok".
    section(
        &mut out,
        "alerts",
        crate::health::evaluate_health().iter().map(|a| {
            let status = match (a.firing, a.latched) {
                (true, _) => "FIRING",
                (false, true) => "latched",
                (false, false) => "ok",
            };
            let value = a
                .value
                .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
            format!(
                "  {:<40} {status} ({} {} {}, value {value}, fired {}x)",
                a.name,
                a.signal.metric(),
                a.cmp.symbol(),
                a.threshold,
                a.fired_count,
            )
        }),
    );

    out.push_str(&crate::profile::profile_summary());
    out
}

/// Appends `-- title --` and `lines`, one per line, unless there are none.
fn section(out: &mut String, title: &str, lines: impl IntoIterator<Item = String>) {
    let mut lines = lines.into_iter().peekable();
    if lines.peek().is_some() {
        let _ = writeln!(out, "-- {title} --");
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
    }
}

/// `name n=… mean=… p50=… p99=…` for one histogram cell.
fn stats_line(name: &str, s: &HistStats) -> String {
    format!(
        "{name:<40} n={} mean={:.3} p50={:.3} p99={:.3}",
        s.count,
        s.mean.unwrap_or(f64::NAN),
        s.p50.unwrap_or(f64::NAN),
        s.p99.unwrap_or(f64::NAN),
    )
}

/// Renders `name{labels}` (or just `name` for the empty label set).
fn cell_name(name: &str, labels: &LabelSet) -> String {
    format!("{name}{}", labels.render())
}

/// Histograms whose empty-label cell was written, in registration order.
fn flat_histograms() -> Vec<&'static Histogram> {
    let mut v = listed(&registry().histograms);
    v.retain(|h| h.flat());
    v
}

/// The registered metrics of one kind that `keep` accepts, sorted by name
/// (a stable sort: call sites sharing a name stay in registration order).
fn sorted<C: Cell>(
    list: &Mutex<Vec<&'static Metric<C>>>,
    keep: impl Fn(&Metric<C>) -> bool,
) -> Vec<&'static Metric<C>> {
    let mut v = listed(list);
    v.retain(|m| keep(m));
    v.sort_by_key(|m| m.name());
    v
}

/// Registered gauges sorted by name, each with its set cells: the inline
/// cell (empty labels) first, then the labeled ones.
fn gauges() -> Vec<(&'static Gauge, Vec<(LabelSet, f64)>)> {
    sorted(&registry().gauges, |_| true)
        .into_iter()
        .map(|g| {
            let inline = g.get().map(|value| (LabelSet::default(), value));
            (g, inline.into_iter().chain(g.cells()).collect())
        })
        .collect()
}

/// Writes a histogram cell's `count`, `sum` (when `with_sum`), `mean`,
/// `p50` and `p99` members.
fn stats_fields(w: &mut Writer, s: &HistStats, with_sum: bool) {
    w.field("count", s.count);
    if with_sum {
        w.field("sum", s.sum);
    }
    w.field("mean", s.mean)
        .field("p50", s.p50)
        .field("p99", s.p99);
}

/// Writes the member `"key":[…]` of `u64`s.
fn u64_array(w: &mut Writer, key: &str, vals: &[u64]) {
    w.key(key).begin_array();
    for &v in vals {
        w.value(v);
    }
    w.end_array();
}

/// Writes `{"labels":{…},"value":v}` cells of one metric.
fn value_cells<V: crate::json::Value>(w: &mut Writer, cells: Vec<(LabelSet, V)>) {
    w.key("cells").begin_array();
    for (labels, value) in cells {
        w.begin_object();
        labels.write_field(w);
        w.field("value", value).end_object();
    }
    w.end_array();
}

/// Renders the complete current telemetry state as one JSON object — the
/// body served by the snapshot server ([`crate::serve`]) and usable directly
/// for mid-run introspection.
///
/// Top-level shape (`schema` = `"wazabee.telemetry.snapshot/1"`):
/// `counters` (name → empty-label value, summed over call sites sharing the
/// name), `labeled_counters` / `gauges` / `labeled_histograms` (per-metric
/// cell arrays), `value_histograms` (empty-label histogram cells), `alerts`
/// (one watchdog tick over every armed [`crate::HealthRule`]), `stages` (the
/// scope profile: count, self/total, p50/p99) and `wall_series`. A metric
/// appears in `counters` / `value_histograms` only if its empty-label cell
/// was written. `enabled` is always `true`; the key stays for readers of
/// the `snapshot/1` schema.
#[must_use]
pub fn snapshot_json() -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object()
        .field("schema", "wazabee.telemetry.snapshot/1")
        .field("enabled", true);
    w.key("counters").begin_object();
    for (name, value) in merged_counters() {
        w.field(name, value);
    }
    w.end_object();

    w.key("labeled_counters").begin_array();
    for c in sorted(&registry().counters, Metric::labeled) {
        w.begin_object().field("name", c.name());
        value_cells(&mut w, c.cells());
        w.end_object();
    }
    w.end_array();

    w.key("gauges").begin_array();
    for (g, cells) in gauges() {
        w.begin_object().field("name", g.name());
        value_cells(&mut w, cells);
        w.end_object();
    }
    w.end_array();

    w.key("labeled_histograms").begin_array();
    for h in sorted(&registry().histograms, Metric::labeled) {
        let (lo, hi) = h.range();
        w.begin_object()
            .field("name", h.name())
            .field("lo", lo)
            .field("hi", hi)
            .key("cells")
            .begin_array();
        for (labels, stats) in h.cells() {
            w.begin_object();
            labels.write_field(&mut w);
            stats_fields(&mut w, &stats, true);
            w.end_object();
        }
        w.end_array().end_object();
    }
    w.end_array();

    w.key("value_histograms").begin_array();
    for h in flat_histograms() {
        w.begin_object().field("name", h.name());
        stats_fields(&mut w, &h.stats(), false);
        w.end_object();
    }
    w.end_array();

    w.key("alerts").begin_array();
    for a in crate::health::evaluate_health() {
        crate::health::write_alert(&mut w, &a);
    }
    w.end_array();

    w.key("stages").begin_array();
    for row in crate::profile::profile_report() {
        w.begin_object()
            .field("name", row.name)
            .field("count", row.count)
            .field("total_ns", row.total_ns)
            .field("self_ns", row.self_ns)
            .field("p50_ns", row.p50_ns)
            .field("p99_ns", row.p99_ns)
            .end_object();
    }
    w.end_array();

    w.key("wall_series").begin_array();
    for s in crate::timeseries::registered_wall_series() {
        w.begin_object()
            .field("series", s.name())
            .key("points")
            .begin_array();
        for p in s.snapshot() {
            w.begin_array().value(p.t).value(p.value).end_array();
        }
        w.end_array().end_object();
    }
    w.end_array();
    w.end_object();
    out
}

/// Writes one JSONL record — the object `body` fills — and a newline,
/// rendering through the reused `line` buffer.
fn write_line(
    out: &mut dyn Write,
    line: &mut String,
    body: impl FnOnce(&mut Writer),
) -> io::Result<()> {
    line.clear();
    let mut w = Writer::new(line);
    w.begin_object();
    body(&mut w);
    w.end_object();
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// Writes every registered metric and buffered trace record as JSON Lines.
///
/// Record shapes (one JSON object per line, `type` discriminates):
/// `counter`, `value_histogram` (empty-label histogram cells),
/// `labeled_counter`, `gauge`, `labeled_histogram`, `stage`, `wall_series`,
/// `trace`. A `trace` line's `kind` is `span` (one per closed span: `ts_ns`
/// its start, `dur_ns` its duration) or `instant`; there are trace lines
/// only while a trace consumer is attached ([`crate::trace_attached`]),
/// as it is whenever `WAZABEE_TELEMETRY_OUT` is set. The trace ring is
/// *not* drained.
pub fn write_jsonl(out: &mut dyn Write) -> io::Result<()> {
    let mut line = String::new();
    for (name, value) in merged_counters() {
        write_line(out, &mut line, |w| {
            w.field("type", "counter")
                .field("name", name)
                .field("value", value);
        })?;
    }
    for h in flat_histograms() {
        let (lo, hi) = h.range();
        let (under, interior, over) = h.snapshot();
        write_line(out, &mut line, |w| {
            w.field("type", "value_histogram")
                .field("name", h.name())
                .field("lo", lo)
                .field("hi", hi);
            stats_fields(w, &h.stats(), true);
            w.field("underflow", under).field("overflow", over);
            u64_array(w, "buckets", &interior);
        })?;
    }
    for c in sorted(&registry().counters, Metric::labeled) {
        for (labels, value) in c.cells() {
            write_line(out, &mut line, |w| {
                w.field("type", "labeled_counter").field("name", c.name());
                labels.write_field(w);
                w.field("value", value);
            })?;
        }
    }
    for (g, cells) in gauges() {
        for (labels, value) in cells {
            write_line(out, &mut line, |w| {
                w.field("type", "gauge").field("name", g.name());
                labels.write_field(w);
                w.field("value", value);
            })?;
        }
    }
    for h in sorted(&registry().histograms, Metric::labeled) {
        let (lo, hi) = h.range();
        for (labels, stats) in h.cells() {
            write_line(out, &mut line, |w| {
                w.field("type", "labeled_histogram").field("name", h.name());
                labels.write_field(w);
                w.field("lo", lo).field("hi", hi);
                stats_fields(w, &stats, true);
            })?;
        }
    }
    for row in crate::profile::profile_report() {
        write_line(out, &mut line, |w| {
            w.field("type", "stage")
                .field("name", row.name)
                .field("count", row.count)
                .field("total_ns", row.total_ns)
                .field("self_ns", row.self_ns)
                .field("p50_ns", row.p50_ns)
                .field("p99_ns", row.p99_ns);
            u64_array(w, "buckets", &row.buckets);
        })?;
    }
    for s in crate::timeseries::registered_wall_series() {
        for p in s.snapshot() {
            write_line(out, &mut line, |w| {
                w.field("type", "wall_series")
                    .field("series", s.name())
                    .field("t_ns", p.t)
                    .field("value", p.value);
            })?;
        }
    }
    for ev in snapshot_trace().0 {
        write_line(out, &mut line, |w| {
            let (kind, dur_ns, value) = match ev.kind {
                TraceKind::Span { dur_ns } => ("span", Some(dur_ns), None),
                TraceKind::Instant { value } => ("instant", None, value),
            };
            w.field("type", "trace")
                .field("ts_ns", ev.ts_ns)
                .field("name", ev.name)
                .field("kind", kind)
                .field("dur_ns", dur_ns)
                .field("value", value);
            w.field("span_id", ev.span_id)
                .field("parent_id", ev.parent_id)
                .field("thread", ev.thread_id)
                .key("args")
                .begin_object();
            crate::trace_export::write_args(w, &ev.args);
            w.end_object();
        })?;
    }
    Ok(())
}

/// Writes the JSONL dump (see [`write_jsonl`]) to `path`, truncating it.
pub fn dump_jsonl_to(path: &Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    write_jsonl(&mut file)?;
    file.flush()
}

/// If the `WAZABEE_TELEMETRY_OUT` environment variable is set, dumps JSONL
/// to that path and returns `Ok(true)`; otherwise returns `Ok(false)`.
pub fn dump_from_env() -> io::Result<bool> {
    match std::env::var_os(ENV_OUT) {
        Some(path) if !path.is_empty() => {
            dump_jsonl_to(Path::new(&path))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_derives_rates_from_counter_names() {
        let _lock = crate::test_lock();
        crate::counter!("sink.test.sync.hit").add(9);
        crate::counter!("sink.test.sync.miss").add(1);
        crate::counter!("sink.test.crc.ok").add(7);
        crate::counter!("sink.test.crc.fail").add(3);
        crate::counter!("sink.test.frames_tx").add(10);
        crate::counter!("sink.test.frames_ok").add(8);
        let s = summary();
        assert!(s.contains("sync-hit rate"), "summary:\n{s}");
        assert!(s.contains("90.00%"), "summary:\n{s}");
        assert!(s.contains("CRC-24 pass rate"), "summary:\n{s}");
        assert!(s.contains("70.00%"), "summary:\n{s}");
        assert!(s.contains("PER"), "summary:\n{s}");
        assert!(s.contains("0.2000"), "summary:\n{s}");
    }

    #[test]
    fn summary_groups_rx_failure_reasons() {
        let _lock = crate::test_lock();
        crate::counter!("sink.a.rx.fail.no_sync").add(4);
        crate::counter!("sink.b.rx.fail.no_sync").add(2);
        crate::counter!("sink.a.rx.fail.fcs").add(1);
        let s = summary();
        // Reasons are summed across layer prefixes.
        assert!(s.contains("rx.fail.no_sync"), "summary:\n{s}");
        assert!(s.contains("rx.fail.fcs"), "summary:\n{s}");
        let no_sync_line = s
            .lines()
            .find(|l| l.contains("rx.fail.no_sync"))
            .expect("no_sync line");
        assert!(
            no_sync_line.trim_end().ends_with('6'),
            "line: {no_sync_line}"
        );
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let _lock = crate::test_lock();
        crate::set_trace_attached(true);
        crate::counter!("sink.test.jsonl.count").add(2);
        crate::histogram!("sink.test.jsonl.vals", 0.0, 8.0).record(3.0);
        crate::event!("sink.test.jsonl.ev", 1.25);
        drop(crate::scope!("sink.test.jsonl.scope"));
        let mut buf = Vec::new();
        write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text
            .lines()
            .any(|l| l.contains("\"sink.test.jsonl.count\"") && l.contains("\"value\":2")));
        assert!(text.lines().any(|l| l.contains("\"sink.test.jsonl.vals\"")
            && l.contains("\"type\":\"value_histogram\"")));
        assert!(text
            .lines()
            .any(|l| l.contains("\"sink.test.jsonl.ev\"") && l.contains("\"kind\":\"instant\"")));
        assert!(text.lines().any(|l| l.contains("\"type\":\"stage\"")
            && l.contains("\"sink.test.jsonl.scope\"")
            && l.contains("\"p99_ns\":")
            && l.contains("\"buckets\":[")));
        // Every line must be a single braced object with balanced quotes.
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
            assert_eq!(line.matches('"').count() % 2, 0, "bad line: {line}");
        }
    }

    /// A span's JSONL line brackets the work it timed, and its duration
    /// is the profile's total for that one call.
    #[test]
    fn jsonl_span_line_brackets_the_work() {
        let _lock = crate::test_lock();
        crate::set_trace_attached(true);
        crate::reset();
        let now = crate::span::now_ns;
        let before = now();
        let inside = {
            let _s = crate::scope!("sink.test.span");
            now()
        };
        let after = now();
        let mut buf = Vec::new();
        write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("\"sink.test.span\",\"kind\":\"span\""))
            .unwrap_or_else(|| panic!("no span line:\n{text}"));
        let num = |key: &str| -> u64 {
            let v = line.split(&format!("\"{key}\":")).nth(1).unwrap();
            v[..v.find(',').unwrap()].parse().unwrap()
        };
        let (start, end) = (num("ts_ns"), num("ts_ns") + num("dur_ns"));
        assert!(before <= start && start <= inside && inside <= end && end <= after);
        let row = crate::profile::profile_report();
        let row = row.iter().find(|r| r.name == "sink.test.span").unwrap();
        assert_eq!((row.count, row.total_ns), (1, num("dur_ns")));
        crate::reset();
    }

    #[test]
    fn json_escape_handles_specials() {
        let _lock = crate::test_lock();
        crate::counter!("sink.test.\"q\"\\\n\u{1}").inc();
        let mut buf = Vec::new();
        write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("\"name\":\"sink.test.\\\"q\\\"\\\\\\n\\u0001\""),
            "{text}"
        );
        assert!(snapshot_json().contains("\"sink.test.\\\"q\\\"\\\\\\n\\u0001\":1"));
    }

    #[test]
    fn dump_from_env_is_noop_when_unset() {
        // Other tests may race on env in theory, but nothing in this crate
        // sets ENV_OUT, so absence is stable.
        if std::env::var_os(ENV_OUT).is_none() {
            assert!(!dump_from_env().unwrap());
        }
    }
}
