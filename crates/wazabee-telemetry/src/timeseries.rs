//! Bounded time-series recording: plottable `(t, value)` rings.
//!
//! Two flavours share one point format:
//!
//! * **Instance-owned** — [`SeriesSet`] is a plain data structure (no
//!   statics) that a simulation or session owns outright.
//!   `wazabee-sim` drives one with *sim-time* timestamps, which keeps the
//!   exported `timeseries.jsonl` deterministic across thread counts and IQ
//!   chunk sizes: the recording is part of the simulation state, not a
//!   global side channel that parallel sweep cells would scribble over.
//! * **Global wall-clock** — [`WallSeries`] statics declared with
//!   [`crate::timeseries!`] sample live values in the streaming and bench
//!   paths, stamped in nanoseconds since the process's telemetry epoch.
//!   These appear in the snapshot server output and the JSONL dump.
//!
//! Every series is bounded: past `capacity` points the oldest are evicted
//! and counted, so a long-running process can record forever.

use std::collections::VecDeque;

use crate::json::{Fixed, Writer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Default point capacity for series that do not pick their own.
pub const SERIES_CAPACITY: usize = 1024;

/// One recorded point: a timestamp (unit chosen by the producer — sim µs or
/// wall ns) and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Timestamp in the producer's unit.
    pub t: u64,
    /// Sampled value.
    pub value: f64,
}

/// One named, labeled, bounded series of points.
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    labels: Vec<(String, String)>,
    capacity: usize,
    points: VecDeque<Point>,
    evicted: u64,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)], capacity: usize) -> Self {
        Series {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            capacity: capacity.max(1),
            points: VecDeque::new(),
            evicted: 0,
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point, evicting the oldest past capacity.
    pub fn push(&mut self, t: u64, value: f64) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.evicted += 1;
        }
        self.points.push_back(Point { t, value });
    }

    /// The retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.points.iter().copied()
    }

    /// Retained point count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points evicted so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// One JSONL record per point:
    /// `{"type":"timeseries","series":…,"labels":{…},"t":…,"value":…}`.
    ///
    /// Values are rendered with six fractional digits, so equal recordings
    /// serialize byte-identically — the determinism contract of the sim's
    /// `timeseries.jsonl` artifact. Non-finite values render as `null`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            let mut w = Writer::new(&mut out);
            w.begin_object()
                .field("type", "timeseries")
                .field("series", &self.name)
                .key("labels")
                .begin_object();
            for (k, v) in &self.labels {
                w.field(k, v);
            }
            w.end_object()
                .field("t", p.t)
                .field("value", Fixed(p.value, 6))
                .end_object();
            out.push('\n');
        }
        out
    }
}

/// An ordered collection of [`Series`], found (or created) by
/// `(name, labels)` on record.
///
/// Deliberately *not* tied to the global registry: each owner (one
/// simulation, one session) holds its own set, so parallel sweep cells can
/// never leak samples into each other.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    series: Vec<Series>,
    capacity: usize,
}

impl SeriesSet {
    /// Creates an empty set whose series hold up to `capacity` points each.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SeriesSet {
            series: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Records a point into the series for `(name, labels)`, creating it on
    /// first use. Series keep their creation order, which makes the JSONL
    /// export deterministic for a deterministic producer.
    pub fn record(&mut self, name: &str, labels: &[(&str, &str)], t: u64, value: f64) {
        let found = self
            .series
            .iter_mut()
            .find(|s| s.name == name && labels_eq(&s.labels, labels));
        match found {
            Some(s) => s.push(t, value),
            None => {
                let mut s = Series::new(name, labels, self.capacity);
                s.push(t, value);
                self.series.push(s);
            }
        }
    }

    /// The recorded series, in creation order.
    #[must_use]
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Looks up one series by name and labels.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Series> {
        self.series
            .iter()
            .find(|s| s.name == name && labels_eq(&s.labels, labels))
    }

    /// Renders every series as JSON Lines (see [`Series::to_jsonl`]).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            out.push_str(&s.to_jsonl());
        }
        out
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want.iter())
            .all(|((hk, hv), &(wk, wv))| hk == wk && hv == wv)
}

// ---------------------------------------------------------------------------
// Global wall-clock series
// ---------------------------------------------------------------------------

/// A global, registered, wall-clock-stamped series (declare with
/// [`crate::timeseries!`]).
///
/// `record` stamps each value with nanoseconds since the process's telemetry
/// epoch (shared with the trace ring, so series points and span events line
/// up on one time axis).
#[derive(Debug)]
pub struct WallSeries {
    name: &'static str,
    capacity: usize,
    points: Mutex<VecDeque<Point>>,
    registered: AtomicBool,
}

impl WallSeries {
    /// Creates an unregistered series (use via [`crate::timeseries!`]).
    #[must_use]
    pub const fn new(name: &'static str, capacity: usize) -> Self {
        WallSeries {
            name,
            capacity,
            points: Mutex::new(VecDeque::new()),
            registered: AtomicBool::new(false),
        }
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records `value` at the current wall offset.
    #[inline]
    pub fn record(&'static self, value: f64) {
        if !self.registered.load(Ordering::Relaxed) && !self.registered.swap(true, Ordering::AcqRel)
        {
            crate::registry::registry()
                .wall_series
                .lock()
                .unwrap()
                .push(self);
        }
        let t = crate::span::now_ns();
        let mut points = self.points.lock().unwrap();
        if points.len() >= self.capacity.max(1) {
            points.pop_front();
        }
        points.push_back(Point { t, value });
    }

    /// Snapshot of the retained points, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Point> {
        self.points.lock().unwrap().iter().copied().collect()
    }

    pub(crate) fn reset(&self) {
        self.points.lock().unwrap().clear();
    }
}

/// Registered wall-clock series, sorted by name.
pub(crate) fn registered_wall_series() -> Vec<&'static WallSeries> {
    let mut v = crate::registry::listed(&crate::registry::registry().wall_series);
    v.sort_by_key(|s| s.name());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_evicts_oldest_past_capacity() {
        let mut s = Series::new("test.ring", &[], 3);
        for k in 0..5u64 {
            s.push(k, k as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.evicted(), 2);
        let ts: Vec<u64> = s.points().map(|p| p.t).collect();
        assert_eq!(ts, [2, 3, 4]);
    }

    #[test]
    fn set_routes_by_name_and_labels() {
        let mut set = SeriesSet::new(16);
        set.record("delivery", &[("node", "1")], 10, 0.5);
        set.record("delivery", &[("node", "2")], 10, 1.0);
        set.record("delivery", &[("node", "1")], 20, 0.75);
        assert_eq!(set.series().len(), 2);
        assert_eq!(set.get("delivery", &[("node", "1")]).unwrap().len(), 2);
        assert_eq!(set.get("delivery", &[("node", "2")]).unwrap().len(), 1);
        assert!(set.get("delivery", &[("node", "3")]).is_none());
    }

    #[test]
    fn jsonl_is_deterministic_and_line_shaped() {
        let mut set = SeriesSet::new(16);
        set.record("sim.delivery_ratio", &[], 50_000, 1.0);
        set.record("node.airtime_us", &[("node", "0")], 50_000, 432.0);
        let a = set.to_jsonl();
        let b = set.clone().to_jsonl();
        assert_eq!(a, b);
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"type\":\"timeseries\""), "{line}");
        }
        assert!(a.contains("\"t\":50000"), "{a}");
        assert!(a.contains("\"value\":432.000000"), "{a}");
        assert!(a.contains("\"labels\":{\"node\":\"0\"}"), "{a}");
    }

    #[test]
    fn wall_series_records_and_bounds() {
        let _lock = crate::test_lock();
        static S: WallSeries = WallSeries::new("timeseries.test.wall", 4);
        for k in 0..6 {
            S.record(f64::from(k));
        }
        let points = S.snapshot();
        assert_eq!(points.len(), 4);
        assert!((points[0].value - 2.0).abs() < 1e-12);
        // Timestamps are monotone non-decreasing.
        for w in points.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }
}
