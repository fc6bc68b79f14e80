//! Global registry of every metric static touched so far.
//!
//! Statics register themselves on first use (a one-time `swap` + mutex push),
//! so the sinks can enumerate exactly the metrics the run exercised — no
//! central declaration list to maintain.

use std::sync::{Mutex, OnceLock};

use crate::health::HealthRule;
use crate::profile::Scope;
use crate::timeseries::WallSeries;
use crate::{Counter, Gauge, Histogram};

#[derive(Default)]
pub(crate) struct Registry {
    pub counters: Mutex<Vec<&'static Counter>>,
    pub gauges: Mutex<Vec<&'static Gauge>>,
    pub histograms: Mutex<Vec<&'static Histogram>>,
    pub scopes: Mutex<Vec<&'static Scope>>,
    pub wall_series: Mutex<Vec<&'static WallSeries>>,
    pub health_rules: Mutex<Vec<&'static HealthRule>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A copy of one registry list, so callers iterate without holding its lock.
pub(crate) fn listed<T: ?Sized>(list: &Mutex<Vec<&'static T>>) -> Vec<&'static T> {
    list.lock().expect("metric registry poisoned").clone()
}

/// Zeroes every registered metric — every cell of every counter, gauge and
/// histogram, the scope profile and the wall-clock series (they all stay
/// registered) — and clears health-rule alert state.
pub(crate) fn reset() {
    let r = registry();
    listed(&r.counters).iter().for_each(|c| c.reset());
    listed(&r.gauges).iter().for_each(|g| g.reset());
    listed(&r.histograms).iter().for_each(|h| h.reset());
    crate::profile::reset();
    listed(&r.wall_series).iter().for_each(|s| s.reset());
    listed(&r.health_rules).iter().for_each(|r| r.reset_state());
}
