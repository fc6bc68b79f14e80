//! Global registry of every metric static touched so far.
//!
//! Statics register themselves on first use (a one-time `swap` + mutex push),
//! so the sinks can enumerate exactly the metrics the run exercised — no
//! central declaration list to maintain.

#[cfg(feature = "enabled")]
use std::sync::{Mutex, OnceLock};

#[cfg(feature = "enabled")]
use crate::health::HealthRule;
#[cfg(feature = "enabled")]
use crate::labeled::{CounterFamily, GaugeFamily, HistogramFamily};
#[cfg(feature = "enabled")]
use crate::profile::Scope;
#[cfg(feature = "enabled")]
use crate::timeseries::WallSeries;
#[cfg(feature = "enabled")]
use crate::{Counter, ValueHistogram};

#[cfg(feature = "enabled")]
#[derive(Default)]
pub(crate) struct Registry {
    pub counters: Mutex<Vec<&'static Counter>>,
    pub value_hists: Mutex<Vec<&'static ValueHistogram>>,
    pub counter_families: Mutex<Vec<&'static CounterFamily>>,
    pub gauge_families: Mutex<Vec<&'static GaugeFamily>>,
    pub hist_families: Mutex<Vec<&'static HistogramFamily>>,
    pub scopes: Mutex<Vec<&'static Scope>>,
    pub wall_series: Mutex<Vec<&'static WallSeries>>,
    pub health_rules: Mutex<Vec<&'static HealthRule>>,
}

#[cfg(feature = "enabled")]
pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(feature = "enabled")]
pub(crate) fn register_counter(c: &'static Counter) {
    registry().counters.lock().unwrap().push(c);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_value_hist(h: &'static ValueHistogram) {
    registry().value_hists.lock().unwrap().push(h);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_counter_family(f: &'static CounterFamily) {
    registry().counter_families.lock().unwrap().push(f);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_gauge_family(f: &'static GaugeFamily) {
    registry().gauge_families.lock().unwrap().push(f);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_hist_family(f: &'static HistogramFamily) {
    registry().hist_families.lock().unwrap().push(f);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_scope(s: &'static Scope) {
    registry().scopes.lock().unwrap().push(s);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_wall_series(s: &'static WallSeries) {
    registry().wall_series.lock().unwrap().push(s);
}

#[cfg(feature = "enabled")]
pub(crate) fn register_health_rule(r: &'static HealthRule) {
    registry().health_rules.lock().unwrap().push(r);
}

/// Zeroes every registered metric — flat and labeled, scope profile and
/// wall-clock series included (they stay registered).
pub(crate) fn reset() {
    #[cfg(feature = "enabled")]
    {
        for c in registry().counters.lock().unwrap().iter() {
            c.reset();
        }
        for h in registry().value_hists.lock().unwrap().iter() {
            h.reset();
        }
        for f in registry().counter_families.lock().unwrap().iter() {
            f.reset();
        }
        for f in registry().gauge_families.lock().unwrap().iter() {
            f.reset();
        }
        for f in registry().hist_families.lock().unwrap().iter() {
            f.reset();
        }
        for s in registry().scopes.lock().unwrap().iter() {
            s.reset();
        }
        for s in registry().wall_series.lock().unwrap().iter() {
            s.reset();
        }
        for r in registry().health_rules.lock().unwrap().iter() {
            r.reset_state();
        }
    }
}
