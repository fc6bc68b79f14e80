//! Declarative health rules: machine-checkable alerts over the metric plane.
//!
//! A rule names a *signal* (a counter's value or rate, a ratio of two
//! counters, the minimum of a gauge's cells, a histogram quantile), a
//! comparator and a threshold:
//!
//! ```
//! # use wazabee_telemetry as tel;
//! tel::health_rule!(
//!     "ids.extra_frames",
//!     tel::Signal::counter("ids.stream.extra_frames"),
//!     > 0.0
//! );
//! ```
//!
//! Rules are static, registered on first arm (same self-registration
//! discipline as every other metric), and evaluated by a watchdog tick —
//! either the background thread started with [`start_watchdog`] or on demand
//! via [`evaluate_health`] (the snapshot server's `/healthz` route and
//! [`crate::snapshot_json`] both evaluate before reporting). A rule whose
//! signal has no data yet (counter never touched, histogram empty, rate with
//! no previous tick) simply does not fire — absence of evidence is not an
//! alert.
//!
//! Alerts **latch**: once a rule has fired it stays visible as `latched`
//! until [`crate::reset`], so a transient mid-run failure cannot dodge a
//! post-run `/healthz` probe. `firing` reflects the most recent evaluation
//! only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::Writer;

/// How a rule compares its signal to the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Fire when the signal rises above the threshold.
    Above,
    /// Fire when the signal falls below the threshold.
    Below,
}

impl Cmp {
    /// Render for human/JSON output (`">"` / `"<"`).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Above => ">",
            Cmp::Below => "<",
        }
    }
}

/// What a health rule watches. Construct via the `const fn` helpers so rules
/// can live in statics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// Current value of a counter (every cell of every counter sharing the
    /// name, inline and labeled, is summed).
    Counter(&'static str),
    /// Per-second increase of a counter between watchdog ticks (needs two
    /// ticks before it can fire).
    CounterRate(&'static str),
    /// `numerator / denominator` of two counters; not evaluated while the
    /// denominator is zero.
    Ratio(&'static str, &'static str),
    /// Minimum across every cell of the gauges sharing the name.
    GaugeMin(&'static str),
    /// A quantile (`0.0..=1.0`) of a histogram's empty-label cell.
    Quantile(&'static str, f64),
}

impl Signal {
    /// Watch a counter's absolute value.
    #[must_use]
    pub const fn counter(name: &'static str) -> Self {
        Signal::Counter(name)
    }

    /// Watch a counter's per-second rate between ticks.
    #[must_use]
    pub const fn rate_per_sec(name: &'static str) -> Self {
        Signal::CounterRate(name)
    }

    /// Watch the ratio of two counters.
    #[must_use]
    pub const fn ratio(num: &'static str, den: &'static str) -> Self {
        Signal::Ratio(num, den)
    }

    /// Watch the minimum cell of a gauge.
    #[must_use]
    pub const fn gauge_min(family: &'static str) -> Self {
        Signal::GaugeMin(family)
    }

    /// Watch a quantile of a histogram's empty-label cell.
    #[must_use]
    pub const fn quantile(hist: &'static str, q: f64) -> Self {
        Signal::Quantile(hist, q)
    }

    /// The metric name this signal reads (numerator for ratios).
    #[must_use]
    pub const fn metric(&self) -> &'static str {
        match self {
            Signal::Counter(n)
            | Signal::CounterRate(n)
            | Signal::Ratio(n, _)
            | Signal::GaugeMin(n)
            | Signal::Quantile(n, _) => n,
        }
    }
}

/// One declarative alert rule (declare via [`crate::health_rule!`]).
pub struct HealthRule {
    name: &'static str,
    signal: Signal,
    cmp: Cmp,
    threshold: f64,
    registered: AtomicBool,
    state: Mutex<RuleState>,
}

/// What a rule remembers between ticks; [`RuleState::CLEAR`] after reset.
struct RuleState {
    firing: bool,
    latched: bool,
    fired_count: u64,
    /// Last evaluated signal value.
    value: Option<f64>,
    /// Previous `(counter total, tick ns)` of a rate signal.
    baseline: Option<(u64, u64)>,
}

impl RuleState {
    const CLEAR: RuleState = RuleState {
        firing: false,
        latched: false,
        fired_count: 0,
        value: None,
        baseline: None,
    };
}

impl HealthRule {
    /// Creates a rule in a `static` (use [`crate::health_rule!`]).
    #[must_use]
    pub const fn new(name: &'static str, signal: Signal, cmp: Cmp, threshold: f64) -> Self {
        HealthRule {
            name,
            signal,
            cmp,
            threshold,
            registered: AtomicBool::new(false),
            state: Mutex::new(RuleState::CLEAR),
        }
    }

    /// Registers the rule with the watchdog (idempotent; first call wins).
    #[inline]
    pub fn arm(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            crate::registry::registry()
                .health_rules
                .lock()
                .unwrap()
                .push(self);
        }
    }

    /// The rule name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Clears fired/latched state and rate baselines; registration persists.
    pub(crate) fn reset_state(&self) {
        *self.state.lock().expect("health rule state poisoned") = RuleState::CLEAR;
    }

    /// Evaluates the rule once and returns its current alert state.
    fn tick(&self, now_ns: u64) -> Alert {
        let mut st = self.state.lock().expect("health rule state poisoned");
        let value = match self.signal {
            Signal::Counter(name) => counter_total(name),
            Signal::CounterRate(name) => counter_total(name).and_then(|total| {
                let cur = total as u64;
                let (prev, prev_ns) = st.baseline.replace((cur, now_ns))?;
                (now_ns > prev_ns)
                    .then(|| cur.saturating_sub(prev) as f64 * 1e9 / (now_ns - prev_ns) as f64)
            }),
            Signal::Ratio(num, den) => match (counter_total(num), counter_total(den)) {
                (Some(n), Some(d)) if d > 0.0 => Some(n / d),
                _ => None,
            },
            Signal::GaugeMin(family) => gauge_min(family),
            Signal::Quantile(hist, q) => hist_quantile(hist, q),
        };
        st.firing = value.is_some_and(|v| match self.cmp {
            Cmp::Above => v > self.threshold,
            Cmp::Below => v < self.threshold,
        });
        if value.is_some() {
            st.value = value;
        }
        if st.firing {
            st.fired_count += 1;
            st.latched = true;
        }
        Alert {
            name: self.name,
            signal: self.signal,
            cmp: self.cmp,
            threshold: self.threshold,
            value: st.value,
            firing: st.firing,
            latched: st.latched,
            fired_count: st.fired_count,
        }
    }
}

/// The reported state of one health rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Rule name.
    pub name: &'static str,
    /// What the rule watches.
    pub signal: Signal,
    /// Fire direction.
    pub cmp: Cmp,
    /// Fire threshold.
    pub threshold: f64,
    /// Last evaluated signal value (`None` until the signal has data).
    pub value: Option<f64>,
    /// Did the most recent evaluation fire?
    pub firing: bool,
    /// Has the rule fired at all since the last [`crate::reset`]?
    pub latched: bool,
    /// Evaluations that fired since the last [`crate::reset`].
    pub fired_count: u64,
}

/// Sums every cell — inline and labeled — of every counter named `name`;
/// `None` when nothing by that name has registered yet.
fn counter_total(name: &str) -> Option<f64> {
    let counters = crate::registry::registry()
        .counters
        .lock()
        .expect("metric registry poisoned");
    let mut named = counters.iter().filter(|c| c.name() == name).peekable();
    named.peek()?;
    let total: u64 = named
        .map(|c| c.get() + c.cells().iter().map(|(_, v)| v).sum::<u64>())
        .sum();
    Some(total as f64)
}

/// Minimum value across every cell of the gauges named `name`; `None` when
/// none holds a value.
fn gauge_min(name: &str) -> Option<f64> {
    crate::registry::listed(&crate::registry::registry().gauges)
        .iter()
        .filter(|g| g.name() == name)
        .flat_map(|g| {
            g.get()
                .into_iter()
                .chain(g.cells().into_iter().map(|(_, v)| v))
        })
        .reduce(f64::min)
}

/// The quantile of the first histogram named `name` whose empty-label cell
/// holds samples; `None` when absent or empty.
fn hist_quantile(name: &str, q: f64) -> Option<f64> {
    crate::registry::listed(&crate::registry::registry().histograms)
        .iter()
        .find(|h| h.name() == name && h.stats().count > 0)?
        .quantile(q)
}

/// Evaluates every registered rule once (one watchdog tick) and returns the
/// state of all of them, sorted by rule name.
#[must_use]
pub fn evaluate_health() -> Vec<Alert> {
    let now = crate::span::now_ns();
    let rules: Vec<_> = crate::registry::registry()
        .health_rules
        .lock()
        .unwrap()
        .clone();
    let mut alerts: Vec<Alert> = rules.iter().map(|r| r.tick(now)).collect();
    alerts.sort_by_key(|a| a.name);
    alerts
}

/// `true` while no registered rule has latched an alert (evaluates first).
#[must_use]
pub fn health_ok() -> bool {
    evaluate_health().iter().all(|a| !a.latched)
}

/// Renders one evaluation as the `/healthz` JSON body:
/// `{"status":"ok"|"alert","alerts":[…]}`.
#[must_use]
pub fn health_json() -> String {
    let alerts = evaluate_health();
    let ok = alerts.iter().all(|a| !a.latched);
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_object()
        .field("status", if ok { "ok" } else { "alert" })
        .key("alerts")
        .begin_array();
    for a in &alerts {
        write_alert(&mut w, a);
    }
    w.end_array().end_object();
    out
}

/// Writes one alert state as a JSON object (shared by `/healthz` and
/// [`crate::snapshot_json`]).
pub(crate) fn write_alert(w: &mut Writer, a: &Alert) {
    w.begin_object()
        .field("name", a.name)
        .field("metric", a.signal.metric())
        .field("cmp", a.cmp.symbol())
        .field("threshold", a.threshold)
        .field("value", a.value)
        .field("firing", a.firing)
        .field("latched", a.latched)
        .field("fired_count", a.fired_count)
        .end_object();
}

/// Starts the background watchdog: a daemon thread evaluating every rule at
/// `interval`. Idempotent — the first call wins, later calls return `false`.
pub fn start_watchdog(interval: std::time::Duration) -> bool {
    static STARTED: AtomicBool = AtomicBool::new(false);
    if STARTED.swap(true, Ordering::Relaxed) {
        return false;
    }
    let spawned = std::thread::Builder::new()
        .name("wazabee-health-watchdog".into())
        .spawn(move || loop {
            std::thread::sleep(interval);
            let _ = evaluate_health();
        })
        .is_ok();
    if !spawned {
        STARTED.store(false, Ordering::Relaxed);
    }
    spawned
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One watchdog tick; the state of the rule named `name`.
    fn tick(name: &str) -> Alert {
        *evaluate_health().iter().find(|a| a.name == name).unwrap()
    }

    #[test]
    fn counter_threshold_rule_fires_and_latches() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::health_rule!(
            "health.test.extra",
            Signal::counter("health.test.extra_frames"),
            > 0.0
        );
        // No data yet: silent.
        let a = tick("health.test.extra");
        assert!(!a.firing && !a.latched && a.value.is_none());

        crate::counter!("health.test.extra_frames").add(2);
        let a = tick("health.test.extra");
        assert!(a.firing && a.latched);
        assert_eq!(a.value, Some(2.0));
        assert!(!health_ok());

        // Counter drops back to zero after reset… but reset also clears the
        // latch, so health recovers.
        crate::reset();
        assert!(health_ok());
    }

    #[test]
    fn ratio_rule_skips_zero_denominator_then_fires_below() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::health_rule!(
            "health.test.delivery",
            Signal::ratio("health.test.delivered", "health.test.sent"),
            < 0.9
        );
        // Touch the numerator only: denominator counter exists but is 0.
        crate::counter!("health.test.delivered").add(0);
        crate::counter!("health.test.sent").add(0);
        let a = tick("health.test.delivery");
        assert!(!a.firing, "zero denominator must not fire: {a:?}");

        crate::counter!("health.test.sent").add(10);
        crate::counter!("health.test.delivered").add(4);
        let a = tick("health.test.delivery");
        assert!(a.firing);
        assert_eq!(a.value, Some(0.4));
        crate::reset();
    }

    #[test]
    fn gauge_min_watches_worst_cell() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::health_rule!(
            "health.test.worst_cell",
            Signal::gauge_min("health.test.cell_ratio"),
            < 0.95
        );
        crate::gauge!("health.test.cell_ratio")
            .with(&[("cell", "a")])
            .set(1.0);
        let a = tick("health.test.worst_cell");
        assert!(!a.firing);
        crate::gauge!("health.test.cell_ratio")
            .with(&[("cell", "b")])
            .set(0.5);
        let a = tick("health.test.worst_cell");
        assert!(a.firing);
        assert_eq!(a.value, Some(0.5));
        crate::reset();
    }

    #[test]
    fn rate_rule_needs_two_ticks() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::health_rule!(
            "health.test.fail_rate",
            Signal::rate_per_sec("health.test.failures"),
            > 0.5
        );
        crate::counter!("health.test.failures").add(1);
        let a = tick("health.test.fail_rate");
        assert!(!a.firing, "first tick only sets the baseline: {a:?}");
        std::thread::sleep(std::time::Duration::from_millis(5));
        crate::counter!("health.test.failures").add(1000);
        let a = tick("health.test.fail_rate");
        assert!(a.firing, "1000 events in ~5ms is a huge rate: {a:?}");
        crate::reset();
    }

    #[test]
    fn quantile_rule_reads_value_histogram() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::health_rule!(
            "health.test.p99_dist",
            Signal::quantile("health.test.distances", 0.99),
            > 20.0
        );
        for _ in 0..100 {
            crate::histogram!("health.test.distances", 0.0, 32.0).record(30.0);
        }
        let a = tick("health.test.p99_dist");
        assert!(a.firing, "{a:?}");
        crate::reset();
    }

    #[test]
    fn health_json_is_well_formed() {
        let _lock = crate::test_lock();
        crate::reset();
        crate::health_rule!(
            "health.test.json",
            Signal::counter("health.test.json_counter"),
            > 0.0
        );
        crate::counter!("health.test.json_counter").inc();
        let doc = health_json();
        assert!(doc.starts_with("{\"status\":\"alert\""), "{doc}");
        assert!(doc.contains("\"name\":\"health.test.json\""), "{doc}");
        assert!(doc.contains("\"cmp\":\">\""), "{doc}");
        assert!(doc.contains("\"latched\":true"), "{doc}");
        crate::reset();
        assert!(health_json().starts_with("{\"status\":\"ok\""));
    }
}
