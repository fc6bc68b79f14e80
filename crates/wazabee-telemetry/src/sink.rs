//! Output sinks: end-of-run console summary and JSONL export.
//!
//! Both sinks read the global registry (every counter/histogram touched this
//! run) and the trace ring. The summary derives the headline figures of the
//! paper's evaluation — sync-hit rate, CRC-24/FCS pass rates, PER — from
//! counter naming conventions: any `*.hit`/`*.miss` or `*.ok`/`*.fail` pair
//! yields a rate line, and `*frames_tx` vs `*frames_ok` totals yield PER.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

use crate::span::{snapshot_trace, TraceKind};

/// Environment variable naming a JSONL dump path (see [`dump_from_env`]).
pub const ENV_OUT: &str = "WAZABEE_TELEMETRY_OUT";

#[cfg(feature = "enabled")]
fn merged_counters() -> BTreeMap<&'static str, u64> {
    let mut merged: BTreeMap<&'static str, u64> = BTreeMap::new();
    for c in crate::registry::registry().counters.lock().unwrap().iter() {
        *merged.entry(c.name()).or_insert(0) += c.get();
    }
    merged
}

#[cfg(not(feature = "enabled"))]
fn merged_counters() -> BTreeMap<&'static str, u64> {
    BTreeMap::new()
}

/// Sums counters whose name ends with `suffix`.
#[cfg(feature = "enabled")]
fn total_with_suffix(counters: &BTreeMap<&'static str, u64>, suffix: &str) -> u64 {
    counters
        .iter()
        .filter(|(name, _)| name.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

#[cfg(feature = "enabled")]
fn rate_line(label: &str, pass: u64, fail: u64) -> Option<String> {
    let total = pass + fail;
    (total > 0).then(|| {
        format!(
            "  {label:<28} {pass}/{total} ({:.2}%)",
            100.0 * pass as f64 / total as f64
        )
    })
}

/// Renders the end-of-run console summary table.
///
/// Sections: derived rates (sync success, CRC/FCS pass, PER), counters,
/// labeled families, value histograms (count/mean/p50/p99), instant events
/// still in the trace ring, alerts, and the scope profile
/// (count/self/total/p50/p99).
/// With the `enabled` feature off, returns a single "disabled" line.
#[must_use]
pub fn summary() -> String {
    #[cfg(not(feature = "enabled"))]
    #[allow(clippy::needless_return)] // return keeps both cfg branches expression-compatible
    {
        return "wazabee-telemetry: disabled (build with the `telemetry` feature)\n".to_string();
    }
    #[cfg(feature = "enabled")]
    {
        let mut out = String::new();
        let _ = writeln!(out, "=== wazabee telemetry summary ===");

        let counters = merged_counters();

        // Derived headline rates from naming conventions.
        let mut derived = Vec::new();
        let sync_hit = total_with_suffix(&counters, ".sync.hit");
        let sync_miss = total_with_suffix(&counters, ".sync.miss");
        if let Some(l) = rate_line("sync-hit rate", sync_hit, sync_miss) {
            derived.push(l);
        }
        let crc_ok = total_with_suffix(&counters, ".crc.ok");
        let crc_fail = total_with_suffix(&counters, ".crc.fail");
        if let Some(l) = rate_line("CRC-24 pass rate", crc_ok, crc_fail) {
            derived.push(l);
        }
        let fcs_ok = total_with_suffix(&counters, ".fcs.ok");
        let fcs_fail = total_with_suffix(&counters, ".fcs.fail");
        if let Some(l) = rate_line("FCS pass rate", fcs_ok, fcs_fail) {
            derived.push(l);
        }
        let frames_tx = total_with_suffix(&counters, "frames_tx");
        let frames_ok = total_with_suffix(&counters, "frames_ok");
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
            if let Some(pos) = name.find(".rx.fail.") {
                let reason = &name[pos + ".rx.fail.".len()..];
                if !reason.is_empty() {
                    *fail_by_reason.entry(reason).or_insert(0) += value;
                }
            }
        }
        for (reason, total) in &fail_by_reason {
            derived.push(format!("  rx.fail.{reason:<20} {total}"));
        }
        if !derived.is_empty() {
            let _ = writeln!(out, "-- derived --");
            for l in derived {
                let _ = writeln!(out, "{l}");
            }
        }

        if !counters.is_empty() {
            let _ = writeln!(out, "-- counters --");
            for (name, value) in &counters {
                let _ = writeln!(out, "  {name:<40} {value}");
            }
        }

        // Labeled families, one line per cell, `name{labels}` style.
        let mut labeled_lines: Vec<String> = Vec::new();
        for f in sorted_counter_families() {
            for (labels, value) in f.snapshot() {
                labeled_lines.push(format!("  {:<40} {value}", cell_name(f.name(), &labels)));
            }
        }
        if !labeled_lines.is_empty() {
            let _ = writeln!(out, "-- labeled counters --");
            for l in labeled_lines {
                let _ = writeln!(out, "{l}");
            }
        }
        let mut gauge_lines: Vec<String> = Vec::new();
        for f in sorted_gauge_families() {
            for (labels, value) in f.snapshot() {
                gauge_lines.push(format!("  {:<40} {value:.4}", cell_name(f.name(), &labels)));
            }
        }
        if !gauge_lines.is_empty() {
            let _ = writeln!(out, "-- gauges --");
            for l in gauge_lines {
                let _ = writeln!(out, "{l}");
            }
        }
        let mut lhist_lines: Vec<String> = Vec::new();
        for f in sorted_hist_families() {
            for (labels, stats) in f.snapshot() {
                if stats.count == 0 {
                    continue;
                }
                lhist_lines.push(format!(
                    "  {:<40} n={} mean={:.3} p50={:.3} p99={:.3}",
                    cell_name(f.name(), &labels),
                    stats.count,
                    stats.mean.unwrap_or(f64::NAN),
                    stats.p50.unwrap_or(f64::NAN),
                    stats.p99.unwrap_or(f64::NAN),
                ));
            }
        }
        if !lhist_lines.is_empty() {
            let _ = writeln!(out, "-- labeled histograms --");
            for l in lhist_lines {
                let _ = writeln!(out, "{l}");
            }
        }

        let vhists = crate::registry::registry().value_hists.lock().unwrap();
        if !vhists.is_empty() {
            let _ = writeln!(out, "-- value histograms --");
            for h in vhists.iter() {
                let n = h.count();
                if n == 0 {
                    let _ = writeln!(out, "  {:<40} (empty)", h.name());
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<40} n={n} mean={:.3} p50={:.3} p99={:.3}",
                    h.name(),
                    h.mean().unwrap_or(f64::NAN),
                    h.quantile(0.5).unwrap_or(f64::NAN),
                    h.quantile(0.99).unwrap_or(f64::NAN),
                );
            }
        }
        drop(vhists);

        // Instant events still buffered in the trace ring, by name. Span
        // timing lives in the exact profile table below, not in the ring.
        let mut events: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in snapshot_trace() {
            if let TraceKind::Instant { .. } = ev.kind {
                *events.entry(ev.name).or_insert(0) += 1;
            }
        }
        if !events.is_empty() {
            let _ = writeln!(out, "-- events --");
            for (name, n) in &events {
                let _ = writeln!(out, "  {name:<40} n={n}");
            }
        }

        // Health rules: one watchdog tick, then every armed rule with its
        // verdict — firing/latched alerts stand out, healthy rules read "ok".
        let alerts = crate::health::evaluate_health();
        if !alerts.is_empty() {
            let _ = writeln!(out, "-- alerts --");
            for a in &alerts {
                let status = if a.firing {
                    "FIRING"
                } else if a.latched {
                    "latched"
                } else {
                    "ok"
                };
                let value = a
                    .value
                    .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
                let _ = writeln!(
                    out,
                    "  {:<40} {status} ({} {} {}, value {value}, fired {}x)",
                    a.name,
                    a.signal.metric(),
                    a.cmp.symbol(),
                    a.threshold,
                    a.fired_count,
                );
            }
        }

        out.push_str(&crate::profile::profile_summary());
        out
    }
}

/// Renders `name{labels}` (or just `name` for the empty label set).
#[cfg(feature = "enabled")]
fn cell_name(name: &str, labels: &crate::labeled::LabelSet) -> String {
    format!("{name}{}", labels.render())
}

/// Registered counter families, sorted by name for stable output.
#[cfg(feature = "enabled")]
fn sorted_counter_families() -> Vec<&'static crate::labeled::CounterFamily> {
    let mut v: Vec<_> = crate::registry::registry()
        .counter_families
        .lock()
        .unwrap()
        .clone();
    v.sort_by_key(|f| f.name());
    v
}

#[cfg(feature = "enabled")]
fn sorted_gauge_families() -> Vec<&'static crate::labeled::GaugeFamily> {
    let mut v: Vec<_> = crate::registry::registry()
        .gauge_families
        .lock()
        .unwrap()
        .clone();
    v.sort_by_key(|f| f.name());
    v
}

#[cfg(feature = "enabled")]
fn sorted_hist_families() -> Vec<&'static crate::labeled::HistogramFamily> {
    let mut v: Vec<_> = crate::registry::registry()
        .hist_families
        .lock()
        .unwrap()
        .clone();
    v.sort_by_key(|f| f.name());
    v
}

/// Renders a label set as a JSON object: `{"k":"v",…}`.
#[cfg(feature = "enabled")]
pub(crate) fn labels_json(pairs: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Renders the complete current telemetry state as one JSON object — the
/// body served by the snapshot server ([`crate::serve`]) and usable directly
/// for mid-run introspection.
///
/// Top-level shape (`schema` = `"wazabee.telemetry.snapshot/1"`):
/// `counters` (name → value), `labeled_counters` / `gauges` /
/// `labeled_histograms` (per-family cell arrays), `value_histograms`,
/// `alerts` (one watchdog tick over every armed [`crate::HealthRule`]),
/// `stages` (the scope profile: count, self/total, p50/p99) and
/// `wall_series`. With the `enabled` feature off, only
/// `{"schema":…,"enabled":false}`.
#[must_use]
pub fn snapshot_json() -> String {
    let mut out = String::from("{\"schema\":\"wazabee.telemetry.snapshot/1\"");
    #[cfg(not(feature = "enabled"))]
    {
        out.push_str(",\"enabled\":false}");
        out
    }
    #[cfg(feature = "enabled")]
    {
        out.push_str(",\"enabled\":true");

        out.push_str(",\"counters\":{");
        for (i, (name, value)) in merged_counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{value}", json_escape(name));
        }
        out.push('}');

        out.push_str(",\"labeled_counters\":[");
        for (i, f) in sorted_counter_families().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"cells\":[", json_escape(f.name()));
            for (j, (labels, value)) in f.snapshot().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"labels\":{},\"value\":{value}}}",
                    labels_json(labels.pairs())
                );
            }
            out.push_str("]}");
        }
        out.push(']');

        out.push_str(",\"gauges\":[");
        for (i, f) in sorted_gauge_families().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"cells\":[", json_escape(f.name()));
            for (j, (labels, value)) in f.snapshot().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"labels\":{},\"value\":{}}}",
                    labels_json(labels.pairs()),
                    json_f64(*value)
                );
            }
            out.push_str("]}");
        }
        out.push(']');

        out.push_str(",\"labeled_histograms\":[");
        for (i, f) in sorted_hist_families().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (lo, hi) = f.range();
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"lo\":{},\"hi\":{},\"cells\":[",
                json_escape(f.name()),
                json_f64(lo),
                json_f64(hi)
            );
            for (j, (labels, stats)) in f.snapshot().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"labels\":{},\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                    labels_json(labels.pairs()),
                    stats.count,
                    json_f64(stats.sum),
                    json_opt_f64(stats.mean),
                    json_opt_f64(stats.p50),
                    json_opt_f64(stats.p99)
                );
            }
            out.push_str("]}");
        }
        out.push(']');

        out.push_str(",\"value_histograms\":[");
        {
            let vhists = crate::registry::registry().value_hists.lock().unwrap();
            for (i, h) in vhists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                    json_escape(h.name()),
                    h.count(),
                    json_opt_f64(h.mean()),
                    json_opt_f64(h.quantile(0.5)),
                    json_opt_f64(h.quantile(0.99))
                );
            }
        }
        out.push(']');

        out.push_str(",\"alerts\":[");
        for (i, a) in crate::health::evaluate_health().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&crate::health::alert_json(a));
        }
        out.push(']');

        out.push_str(",\"stages\":[");
        for (i, row) in crate::profile::profile_report().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\
                 \"p50_ns\":{},\"p99_ns\":{}}}",
                json_escape(row.name),
                row.count,
                row.total_ns,
                row.self_ns,
                row.p50_ns,
                row.p99_ns
            );
        }
        out.push(']');

        out.push_str(",\"wall_series\":[");
        {
            let mut series: Vec<_> = crate::registry::registry()
                .wall_series
                .lock()
                .unwrap()
                .clone();
            series.sort_by_key(|s| s.name());
            for (i, s) in series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"series\":\"{}\",\"points\":[",
                    json_escape(s.name())
                );
                for (j, p) in s.snapshot().iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{},{}]", p.t, json_f64(p.value));
                }
                out.push_str("]}");
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for a JSON string literal (quotes not included).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as a JSON value (`null` for non-finite).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_f64)
}

#[cfg(feature = "enabled")]
fn json_u64_array(vals: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Writes every registered metric and buffered trace record as JSON Lines.
///
/// Record shapes (one JSON object per line, `type` discriminates):
/// `counter`, `value_histogram`, `labeled_counter`, `gauge`,
/// `labeled_histogram`, `stage`, `wall_series`, `trace`.
/// The trace ring is *not* drained — records stay available to [`summary`].
pub fn write_jsonl(w: &mut dyn Write) -> io::Result<()> {
    for (name, value) in &merged_counters() {
        writeln!(
            w,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json_escape(name)
        )?;
    }
    #[cfg(feature = "enabled")]
    {
        for h in crate::registry::registry()
            .value_hists
            .lock()
            .unwrap()
            .iter()
        {
            let (lo, hi) = h.range();
            let (under, interior, over) = h.snapshot();
            writeln!(
                w,
                "{{\"type\":\"value_histogram\",\"name\":\"{}\",\"lo\":{},\"hi\":{},\
                 \"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{},\
                 \"underflow\":{under},\"overflow\":{over},\"buckets\":{}}}",
                json_escape(h.name()),
                json_f64(lo),
                json_f64(hi),
                h.count(),
                json_f64(h.sum()),
                json_opt_f64(h.mean()),
                json_opt_f64(h.quantile(0.5)),
                json_opt_f64(h.quantile(0.99)),
                json_u64_array(&interior),
            )?;
        }
        for f in sorted_counter_families() {
            for (labels, value) in f.snapshot() {
                writeln!(
                    w,
                    "{{\"type\":\"labeled_counter\",\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
                    json_escape(f.name()),
                    labels_json(labels.pairs()),
                )?;
            }
        }
        for f in sorted_gauge_families() {
            for (labels, value) in f.snapshot() {
                writeln!(
                    w,
                    "{{\"type\":\"gauge\",\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                    json_escape(f.name()),
                    labels_json(labels.pairs()),
                    json_f64(value),
                )?;
            }
        }
        for f in sorted_hist_families() {
            let (lo, hi) = f.range();
            for (labels, stats) in f.snapshot() {
                writeln!(
                    w,
                    "{{\"type\":\"labeled_histogram\",\"name\":\"{}\",\"labels\":{},\
                     \"lo\":{},\"hi\":{},\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                    json_escape(f.name()),
                    labels_json(labels.pairs()),
                    json_f64(lo),
                    json_f64(hi),
                    stats.count,
                    json_f64(stats.sum),
                    json_opt_f64(stats.mean),
                    json_opt_f64(stats.p50),
                    json_opt_f64(stats.p99),
                )?;
            }
        }
        for row in crate::profile::profile_report() {
            writeln!(
                w,
                "{{\"type\":\"stage\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\
                 \"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"buckets\":{}}}",
                json_escape(row.name),
                row.count,
                row.total_ns,
                row.self_ns,
                row.p50_ns,
                row.p99_ns,
                json_u64_array(&row.buckets),
            )?;
        }
        {
            let mut series: Vec<_> = crate::registry::registry()
                .wall_series
                .lock()
                .unwrap()
                .clone();
            series.sort_by_key(|s| s.name());
            for s in series {
                for p in s.snapshot() {
                    writeln!(
                        w,
                        "{{\"type\":\"wall_series\",\"series\":\"{}\",\"t_ns\":{},\"value\":{}}}",
                        json_escape(s.name()),
                        p.t,
                        json_f64(p.value),
                    )?;
                }
            }
        }
    }
    for ev in snapshot_trace() {
        let (kind, dur, value) = match ev.kind {
            TraceKind::SpanEnter => ("enter", "null".to_string(), "null".to_string()),
            TraceKind::SpanExit { dur_ns } => ("exit", format!("{dur_ns}"), "null".to_string()),
            TraceKind::Instant { value } => ("instant", "null".to_string(), json_opt_f64(value)),
        };
        #[cfg(feature = "enabled")]
        let causal = format!(
            ",\"span_id\":{},\"parent_id\":{},\"thread\":{},\"args\":{}",
            ev.span_id,
            ev.parent_id,
            ev.thread_id,
            crate::trace_export::span_args_json(&ev.args),
        );
        #[cfg(not(feature = "enabled"))]
        let causal = String::new();
        writeln!(
            w,
            "{{\"type\":\"trace\",\"ts_ns\":{},\"name\":\"{}\",\"kind\":\"{kind}\",\
             \"dur_ns\":{dur},\"value\":{value}{causal}}}",
            ev.ts_ns,
            json_escape(ev.name),
        )?;
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

#[cfg(all(test, feature = "enabled"))]
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
        crate::counter!("sink.test.jsonl.count").add(2);
        crate::value_histogram!("sink.test.jsonl.vals", 0.0, 8.0).record(3.0);
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

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
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
