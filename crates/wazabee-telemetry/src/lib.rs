#![warn(missing_docs)]

//! # wazabee-telemetry
//!
//! Dependency-free (std-only) observability for the WazaBee modem/attack
//! stack: the paper's evaluation (Tables III–IV, Figs. 9–11) is built on
//! per-stage PHY metrics — sync success, chip-error distances, PER/BER — and
//! this crate makes those first-class instead of ad-hoc per scenario binary.
//!
//! Three metric kinds, each declared in place by a macro owning one `static`
//! per call site: [`Counter`] ([`counter!`]: sync hits, CRC/FCS verdicts,
//! frames), [`Gauge`] ([`gauge!`]: last-value `f64` readings) and
//! [`Histogram`] ([`histogram!`]: linear buckets over a declared range —
//! Hamming distances, CFO, latencies). Each keeps its empty-label cell
//! inline, so `counter!("x").inc()` is one relaxed atomic add; labeled cells
//! (`node=3`) are reached only through `.with(&labels)`, whose lock-free
//! `Copy` handle hot sites keep.
//!
//! One timing probe, [`Scope`] ([`scope!`]), feeds an exact per-site profile
//! (count, self/total time, log₂ buckets, p50/p99) and, with one
//! completed-span record per closed scope, the bounded causal trace ring
//! that [`event!`] instants share; [`health_rule!`] arms alerts and
//! [`timeseries!`] samples wall-clock series. While no trace consumer is
//! attached, opening and closing a scope writes only the calling thread's
//! memory: per-thread profile tallies and per-thread blocks of span ids.
//! An attached consumer adds one push to the shared ring per close.
//!
//! Sinks: the console [`summary`] (with derived sync-success / CRC / FCS /
//! PER rates), JSONL ([`write_jsonl`], [`dump_from_env`] for
//! `WAZABEE_TELEMETRY_OUT`), the live [`snapshot_json`] / [`health_json`] /
//! [`trace_chrome_json`] documents and [`serve`]. Every JSON byte they — and
//! the rest of the workspace — write goes through the one writer, [`json`].
//!
//! ## Always on, exported on request
//!
//! The probes are always compiled in and always count: there is one build.
//! Nothing leaves the process unless asked for — no file is written, no
//! socket bound and no trace dumped unless `WAZABEE_TELEMETRY_OUT`,
//! `WAZABEE_TELEMETRY_ADDR` or `WAZABEE_TRACE_OUT` is set. The trace is
//! recorded only for those consumers: the three variables are read once,
//! on first use, and with none set (and no [`set_trace_attached`] call)
//! scopes and events keep no trace records, while the profile, counters and
//! [`current_span_id`] stay exact. What a probe costs is measured per kind
//! by the `telemetry_overhead` bench in `wazabee-bench`.
//!
//! ## Example
//!
//! ```
//! use wazabee_telemetry as tel;
//!
//! fn demod_symbol(block: &[u8]) -> u8 {
//!     let _t = tel::scope!("example.demod_ns");
//!     tel::counter!("example.symbols").inc();
//!     let distance = block.iter().filter(|&&b| b != 0).count();
//!     tel::histogram!("example.hamming", 0.0, 32.0).record(distance as f64);
//!     0
//! }
//!
//! demod_symbol(&[0, 1, 0, 0]);
//! println!("{}", tel::summary());
//! ```

mod counter;
mod health;
mod hist;
pub mod json;
mod labeled;
mod profile;
mod registry;
mod server;
mod sink;
mod span;
mod timeseries;
mod trace_export;

pub use counter::{Counter, CounterHandle, Gauge, GaugeHandle};
pub use health::{
    evaluate_health, health_json, health_ok, start_watchdog, Alert, Cmp, HealthRule, Signal,
};
pub use hist::{HistStats, Histogram, HistogramHandle, HIST_BUCKETS};
pub use labeled::{LabelSet, MAX_LABELS};
pub use profile::{profile_report, profile_summary, Scope, ScopeGuard, StageRow};
pub use server::{serve, serve_from_env, ENV_ADDR};
pub use sink::{dump_from_env, dump_jsonl_to, snapshot_json, summary, write_jsonl, ENV_OUT};
pub use span::{
    current_span_id, drain_trace, event_with, set_trace_attached, trace_attached, ArgValue,
    SpanArgs, TraceEvent, TraceKind, MAX_SPAN_ARGS, TRACE_CAPACITY,
};
pub use timeseries::{Point, Series, SeriesSet, WallSeries, SERIES_CAPACITY};
pub use trace_export::{dump_trace_from_env, dump_trace_to, trace_chrome_json, ENV_TRACE_OUT};

/// Zeroes every registered metric — every counter, gauge and histogram
/// cell, the scope profile, wall-clock series, health-rule alert state —
/// clears the trace ring and restarts the span-id sequence.
///
/// Intended for test isolation and for scenario binaries that report several
/// independent phases (the parallel sweep driver resets between cells).
/// Statics stay registered; only their values reset. Cached handles remain
/// valid: cells are zeroed in place (gauges read as unset), never dropped.
/// Latched health alerts unlatch; armed rules stay armed. Call it while no
/// scope closes on another thread: a close racing the reset can write back
/// that thread's pre-reset profile tally.
pub fn reset() {
    registry::reset();
    drain_trace();
    span::reset_ids();
}

/// Declares (once) and returns a `&'static` [`Counter`] for this call site.
///
/// Counters sharing a name — e.g. the same metric incremented from several
/// call sites — are merged by the sinks. `.inc()`/`.add(n)` hit the
/// empty-label cell; `.with(&labels)` resolves a labeled cell's handle:
///
/// ```
/// # use wazabee_telemetry as tel;
/// tel::counter!("example.frames").inc();
/// tel::counter!("example.frames_by_channel")
///     .with(&[("channel", "15")])
///     .add(2);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __WZB_COUNTER: $crate::Counter = $crate::Counter::new($name);
        &__WZB_COUNTER
    }};
}

/// Declares (once) and returns a `&'static` [`Gauge`] (last-value-wins
/// `f64`) for this call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __WZB_GAUGE: $crate::Gauge = $crate::Gauge::new($name);
        &__WZB_GAUGE
    }};
}

/// Declares (once) and returns a `&'static` [`Histogram`] over `[$lo, $hi)`
/// for this call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $lo:expr, $hi:expr) => {{
        static __WZB_HIST: $crate::Histogram = $crate::Histogram::new($name, $lo, $hi);
        &__WZB_HIST
    }};
}

/// Declares (once) a [`Scope`] for this call site and opens it; it closes
/// when the returned [`ScopeGuard`] drops.
///
/// One probe feeds every timing view: the profile row (count, self/total
/// time, log₂ duration buckets — see [`profile_report`]) and, while a trace
/// consumer is attached ([`trace_attached`]), one completed-span record
/// pushed to the causal trace ring when the scope closes. Scopes nest per
/// thread: each one's parent is the scope open on the same thread, and its
/// total is billed to that parent's child time.
/// Up to [`MAX_SPAN_ARGS`] static key/value arguments ride along into the
/// trace:
///
/// ```
/// # use wazabee_telemetry as tel;
/// # let (seq, ch) = (7u32, 15u8);
/// fn despread(symbols: &[u8]) {
///     let _s = tel::scope!("example.despread");
///     // ... nested scopes bill their time to this one ...
/// }
/// let _s = tel::scope!("rx.decode", frame = seq, chan = ch);
/// despread(&[0]);
/// ```
#[macro_export]
macro_rules! scope {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        static __WZB_SCOPE: $crate::Scope = $crate::Scope::new($name);
        __WZB_SCOPE.enter($crate::SpanArgs::new()$(.with(stringify!($k), $v))*)
    }};
}

/// Records an instantaneous trace event, optionally with a numeric value
/// and/or up to [`MAX_SPAN_ARGS`] static key/value arguments
/// (`event!("rx.resync", offset = bit)`), while a trace consumer is
/// attached ([`trace_attached`]); otherwise it does nothing.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event_with($name, None, $crate::SpanArgs::new()$(.with(stringify!($k), $v))*)
    };
    ($name:expr, $value:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event_with(
            $name,
            Some($value as f64),
            $crate::SpanArgs::new()$(.with(stringify!($k), $v))*,
        )
    };
}

/// Declares (once) and arms a [`HealthRule`]: a named alert over a metric
/// [`Signal`], firing when the signal crosses the threshold in the given
/// direction. Arming is idempotent; the rule stays armed across
/// [`reset`] (only its alert state clears).
///
/// ```
/// # use wazabee_telemetry as tel;
/// tel::health_rule!(
///     "ids.extra_frames",
///     tel::Signal::counter("ids.stream.extra_frames"),
///     > 0.0
/// );
/// ```
#[macro_export]
macro_rules! health_rule {
    ($name:expr, $signal:expr, > $threshold:expr) => {{
        static __WZB_HEALTH: $crate::HealthRule =
            $crate::HealthRule::new($name, $signal, $crate::Cmp::Above, ($threshold) as f64);
        __WZB_HEALTH.arm();
    }};
    ($name:expr, $signal:expr, < $threshold:expr) => {{
        static __WZB_HEALTH: $crate::HealthRule =
            $crate::HealthRule::new($name, $signal, $crate::Cmp::Below, ($threshold) as f64);
        __WZB_HEALTH.arm();
    }};
}

/// Declares (once) a global wall-clock [`WallSeries`] (capacity
/// [`SERIES_CAPACITY`] unless given) and records `$value` into it.
#[macro_export]
macro_rules! timeseries {
    ($name:expr, $value:expr) => {{
        static __WZB_SERIES: $crate::WallSeries =
            $crate::WallSeries::new($name, $crate::SERIES_CAPACITY);
        __WZB_SERIES.record($value as f64)
    }};
    ($name:expr, $value:expr, $capacity:expr) => {{
        static __WZB_SERIES: $crate::WallSeries = $crate::WallSeries::new($name, $capacity);
        __WZB_SERIES.record($value as f64)
    }};
}

/// Serializes tests that touch the global registry, the trace ring or the
/// attach state: `reset()`, `drain_trace()` and `set_trace_attached()` in
/// one test would otherwise corrupt another's counts.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The public-API smoke test lives here; detailed unit tests sit next to
    // each primitive.
    #[test]
    fn macros_compose_and_report() {
        let _lock = crate::test_lock();
        reset();
        counter!("lib.test.frames").add(3);
        histogram!("lib.test.dist", 0.0, 32.0).record(4.0);
        {
            let _t = scope!("lib.test.kernel_ns");
            let _s = scope!("lib.test.span", k = 1u8);
            event!("lib.test.event", 7);
        }
        let s = summary();
        assert!(s.contains("lib.test.frames"), "summary:\n{s}");
        assert!(s.contains("lib.test.dist"), "summary:\n{s}");
        assert!(s.contains("lib.test.kernel_ns"), "summary:\n{s}");
    }
}
