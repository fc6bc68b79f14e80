//! The live observability plane end to end: snapshot JSON schema, the
//! mid-run snapshot server, sim-time timeline determinism, and the
//! `reset()` guarantees the parallel sweep driver depends on.
//!
//! Telemetry metrics are process-global, so every test that mutates or
//! reads global registries takes the file-local lock (the timeline tests
//! don't need it — the sim's series are instance-owned by design).

use std::io::{Read, Write};
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use wazabee_bench::sweep::par_map_with;
use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_integration::{parse_json, Json};
use wazabee_radio::Instant;
use wazabee_sim::{SimConfig, SpectrumSim};
use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode, XbeePayload};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

const PAN: u16 = 0x1234;
const COORD: u16 = 0x0042;

// ---------------------------------------------------------------------------
// Snapshot JSON schema
// ---------------------------------------------------------------------------

/// Touches one metric of every kind so the snapshot has something to show.
fn populate_metrics() {
    wazabee_telemetry::counter!("obs.test.counter").add(3);
    wazabee_telemetry::counter!("obs.test.labeled")
        .with(&[("channel", "15"), ("node", "xbee-3")])
        .add(7);
    wazabee_telemetry::gauge!("obs.test.gauge")
        .with(&[("stage", "fir")])
        .set(0.25);
    wazabee_telemetry::histogram!("obs.test.lhist", 0.0, 64.0)
        .with(&[("stage", "fir")])
        .record(17.0);
    wazabee_telemetry::histogram!("obs.test.vhist", 0.0, 64.0).record(5.0);
    {
        let _s = wazabee_telemetry::scope!("obs.test.stage");
        std::hint::black_box(0u64);
    }
    wazabee_telemetry::timeseries!("obs.test.series", 42.0);
}

/// Finds the family entry named `name` in a snapshot section.
fn family<'a>(snapshot: &'a Json, section: &str, name: &str) -> Option<&'a Json> {
    snapshot
        .get(section)?
        .as_array()?
        .iter()
        .find(|f| f.get("name").and_then(Json::as_str) == Some(name))
}

#[test]
fn snapshot_json_round_trips_through_a_parser() {
    let _l = lock();
    wazabee_telemetry::reset();
    populate_metrics();

    let raw = wazabee_telemetry::snapshot_json();
    let snap = parse_json(&raw).expect("snapshot JSON parses");

    assert_eq!(
        snap.get("schema").and_then(Json::as_str),
        Some("wazabee.telemetry.snapshot/1")
    );
    assert_eq!(snap.get("enabled").and_then(Json::as_bool), Some(true));

    // Flat counter.
    let counters = snap.get("counters").expect("counters object");
    assert_eq!(
        counters.get("obs.test.counter").and_then(Json::as_f64),
        Some(3.0)
    );

    // Labeled counter: the cell carries its labels and value.
    let fam = family(&snap, "labeled_counters", "obs.test.labeled").expect("labeled family");
    let cell = fam
        .get("cells")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .find(|c| {
            c.get("labels")
                .and_then(|l| l.get("channel"))
                .and_then(Json::as_str)
                == Some("15")
        });
    let cell = cell.expect("channel=15 cell present");
    assert_eq!(
        cell.get("labels")
            .and_then(|l| l.get("node"))
            .and_then(Json::as_str),
        Some("xbee-3")
    );
    assert_eq!(cell.get("value").and_then(Json::as_f64), Some(7.0));

    // Gauge and labeled histogram families exist with our cells.
    assert!(family(&snap, "gauges", "obs.test.gauge").is_some());
    let lhist = family(&snap, "labeled_histograms", "obs.test.lhist").expect("lhist family");
    let hcell = &lhist.get("cells").unwrap().as_array().unwrap()[0];
    assert_eq!(hcell.get("count").and_then(Json::as_f64), Some(1.0));
    assert_eq!(hcell.get("mean").and_then(Json::as_f64), Some(17.0));

    // Stage profile: our span completed once with self <= total.
    let stages = snap.get("stages").unwrap().as_array().unwrap();
    let stage = stages
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("obs.test.stage"))
        .expect("stage row present");
    assert_eq!(stage.get("count").and_then(Json::as_f64), Some(1.0));
    let self_ns = stage.get("self_ns").and_then(Json::as_f64).unwrap();
    let total_ns = stage.get("total_ns").and_then(Json::as_f64).unwrap();
    assert!(self_ns <= total_ns);
    let p50 = stage.get("p50_ns").and_then(Json::as_f64).unwrap();
    let p99 = stage.get("p99_ns").and_then(Json::as_f64).unwrap();
    assert!(p50 <= p99 && p99 <= total_ns, "{p50} {p99} {total_ns}");

    // Wall-clock series: one [t, value] point pair.
    let series = snap.get("wall_series").unwrap().as_array().unwrap();
    let ours = series
        .iter()
        .find(|s| s.get("series").and_then(Json::as_str) == Some("obs.test.series"))
        .expect("wall series present");
    let points = ours.get("points").unwrap().as_array().unwrap();
    assert_eq!(points.len(), 1);
    let pair = points[0].as_array().unwrap();
    assert_eq!(pair[1].as_f64(), Some(42.0));

    wazabee_telemetry::reset();
}

/// Call sites sharing a name sum once in `counters`; one counter with both
/// an empty-label cell and labeled cells appears once in each section.
#[test]
fn one_metric_name_appears_once_per_section() {
    let _l = lock();
    wazabee_telemetry::reset();
    wazabee_telemetry::counter!("obs.same.x").add(2);
    wazabee_telemetry::counter!("obs.same.x").add(3);
    let both = wazabee_telemetry::counter!("obs.same.both");
    both.inc();
    both.with(&[("node", "1")]).add(4);

    let snap = parse_json(&wazabee_telemetry::snapshot_json()).unwrap();
    let flat: Vec<(&str, f64)> = (snap.get("counters").unwrap().members().unwrap().iter())
        .filter(|(k, _)| k.starts_with("obs.same."))
        .map(|(k, v)| (k.as_str(), v.as_f64().unwrap()))
        .collect();
    assert_eq!(flat, [("obs.same.both", 1.0), ("obs.same.x", 5.0)]);
    let labeled: Vec<&Json> = (snap.get("labeled_counters").unwrap().as_array().unwrap())
        .iter()
        .filter(|f| {
            f.get("name")
                .and_then(Json::as_str)
                .unwrap()
                .starts_with("obs.same.")
        })
        .collect();
    assert_eq!(labeled.len(), 1);
    let cells = labeled[0].get("cells").unwrap().as_array().unwrap();
    let node = cells[0].get("labels").and_then(|l| l.get("node"));
    assert_eq!(
        (labeled[0].get("name").and_then(Json::as_str), cells.len()),
        (Some("obs.same.both"), 1)
    );
    assert_eq!(node.and_then(Json::as_str), Some("1"));
    assert_eq!(cells[0].get("value").and_then(Json::as_f64), Some(4.0));
    wazabee_telemetry::reset();
}

// ---------------------------------------------------------------------------
// Snapshot server end to end
// ---------------------------------------------------------------------------

#[test]
fn snapshot_server_answers_live_requests_over_tcp() {
    let _l = lock();
    wazabee_telemetry::reset();
    populate_metrics();

    let addr = wazabee_telemetry::serve("127.0.0.1:0").expect("bind snapshot server");
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");
    conn.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();

    assert!(
        response.starts_with("HTTP/1.0 200 OK"),
        "unexpected status line: {}",
        response.lines().next().unwrap_or_default()
    );
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1;
    let snap = parse_json(body).expect("served body is valid JSON");
    assert_eq!(
        snap.get("schema").and_then(Json::as_str),
        Some("wazabee.telemetry.snapshot/1")
    );
    // The live snapshot reflects current metric state, labels included.
    let fam = family(&snap, "labeled_counters", "obs.test.labeled").expect("labeled family");
    assert!(!fam.get("cells").unwrap().as_array().unwrap().is_empty());
    assert!(!snap.get("stages").unwrap().as_array().unwrap().is_empty());

    wazabee_telemetry::reset();
}

/// Reads one `Content-Length`-framed HTTP response off a kept-alive
/// connection, returning `(status_line, body)`.
fn read_keepalive_response(conn: &mut std::net::TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        assert_eq!(conn.read(&mut byte).unwrap(), 1, "connection closed early");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let status = head.lines().next().unwrap().to_string();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(str::to_string)
        })
        .expect("Content-Length header")
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn snapshot_server_keeps_http11_connections_alive() {
    let _l = lock();
    wazabee_telemetry::reset();
    populate_metrics();

    let addr = wazabee_telemetry::serve("127.0.0.1:0").expect("bind snapshot server");
    let mut conn = std::net::TcpStream::connect(&addr).expect("connect");

    // Several sequential requests over ONE connection — the polling loop of
    // a live dashboard watching a long-running serve process. The counter is
    // bumped between polls, so each response must be a fresh snapshot, not a
    // replay.
    for poll in 1..=3u64 {
        wazabee_telemetry::counter!("obs.keepalive.polls").inc();
        conn.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, body) = read_keepalive_response(&mut conn);
        assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
        let snap = parse_json(&body).expect("snapshot parses");
        let polls = snap
            .get("counters")
            .unwrap()
            .get("obs.keepalive.polls")
            .and_then(Json::as_f64)
            .expect("poll counter present");
        assert_eq!(polls as u64, poll, "snapshot must be live, not cached");
    }
    // Other routes share the kept-alive connection.
    conn.write_all(b"GET /trace HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (status, body) = read_keepalive_response(&mut conn);
    assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
    assert!(body.contains("traceEvents"));

    // `Connection: close` is honoured: one last answer, then EOF.
    conn.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _) = read_keepalive_response(&mut conn);
    assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server must close after Connection: close");

    // HTTP/1.0 keeps the original one-shot close-after-answer contract.
    let mut oneshot = std::net::TcpStream::connect(&addr).expect("connect");
    oneshot.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    oneshot.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");

    wazabee_telemetry::reset();
}

// ---------------------------------------------------------------------------
// Sim-time timeline
// ---------------------------------------------------------------------------

fn node(addr: u16, role: NodeRole) -> XbeeNode {
    XbeeNode::new(
        NodeConfig {
            pan: PAN,
            short_addr: addr,
            channel: Dot154Channel::new(14).unwrap(),
        },
        role,
    )
}

/// A small attacked cell with the timeline on: coordinator, two sensors,
/// and a WazaBee injector whose first keyup lands mid-run (50 ms) so the
/// onset is visible in the sampled series. Returns the timeline JSONL.
fn run_timeline_cell(seed: u64, iq_chunk: usize) -> (String, usize) {
    let ch = Dot154Channel::new(14).unwrap();
    let mut cfg = SimConfig::ideal();
    cfg.seed = seed;
    cfg.iq_chunk = iq_chunk.max(1);
    let mut sim = SpectrumSim::new(cfg);
    sim.add_zigbee(node(COORD, NodeRole::Coordinator));
    sim.add_zigbee(node(0x0063, NodeRole::Sensor { interval_ms: 40 }));
    sim.add_zigbee(node(0x0064, NodeRole::Sensor { interval_ms: 40 }));
    let attacker = sim.add_wazabee_injector(ch, 1.0);
    let mut t = Instant(0).plus_ms(50);
    for seq in 0..5u8 {
        let forged = MacFrame::data(
            PAN,
            0x0063,
            COORD,
            seq,
            XbeePayload::reading(7777).to_bytes(),
        );
        sim.inject_at(attacker, t, forged);
        t = t.plus_ms(7);
    }
    sim.enable_timeline(10_000);
    sim.run_until(Instant(0).plus_ms(130));
    (sim.timeline_jsonl(), attacker)
}

#[test]
fn timeline_jsonl_parses_and_shows_attacker_onset() {
    let (jsonl, attacker) = run_timeline_cell(0xA11CE, 4096);
    assert!(!jsonl.is_empty());

    let mut attacker_tx: Vec<(f64, f64)> = Vec::new();
    let mut names = std::collections::BTreeSet::new();
    for line in jsonl.lines() {
        let rec = parse_json(line).expect("timeline line parses");
        assert_eq!(rec.get("type").and_then(Json::as_str), Some("timeseries"));
        let series = rec.get("series").and_then(Json::as_str).expect("series");
        let t = rec.get("t").and_then(Json::as_f64).expect("t");
        let value = rec.get("value").and_then(Json::as_f64).expect("value");
        names.insert(series.to_string());
        let node_label = rec
            .get("labels")
            .and_then(|l| l.get("node"))
            .and_then(Json::as_str);
        if series == "node.tx_total" && node_label == Some(&attacker.to_string()) {
            attacker_tx.push((t, value));
        }
    }

    for expected in [
        "node.airtime_occupancy",
        "node.tx_total",
        "sim.readings_sent",
        "sim.readings_delivered",
        "sim.delivery_ratio",
        "sim.collisions",
    ] {
        assert!(names.contains(expected), "missing series {expected}");
    }

    // Attack onset: the injector's cumulative tx count is zero before its
    // first keyup at t = 50 ms and steps off zero after.
    assert!(attacker_tx.len() >= 10, "ticks every 10 ms over 130 ms");
    assert!(attacker_tx.iter().all(|&(t, v)| t < 50_000.0 || v >= 0.0));
    assert!(
        attacker_tx
            .iter()
            .filter(|&&(t, _)| t < 50_000.0)
            .all(|&(_, v)| v == 0.0),
        "injector transmitted before onset"
    );
    assert!(
        attacker_tx
            .iter()
            .filter(|&&(t, _)| t > 80_000.0)
            .any(|&(_, v)| v > 0.0),
        "injector onset never visible: {attacker_tx:?}"
    );
}

#[test]
fn timeline_artifact_is_identical_across_worker_counts() {
    let cells: Vec<(u64, usize)> = (0..4u64).map(|k| (0xBEE + 31 * k, 4096)).collect();
    let serial = par_map_with(Some(1), cells.clone(), |(s, c)| run_timeline_cell(s, c).0);
    let four = par_map_with(Some(4), cells, |(s, c)| run_timeline_cell(s, c).0);
    assert!(serial.iter().all(|jsonl| !jsonl.is_empty()));
    assert_eq!(serial, four, "timeline artifacts diverged across workers");
}

/// A time series may hold non-finite points; its JSONL must still parse,
/// with those values as `null`.
#[test]
fn non_finite_series_points_render_as_null() {
    let mut set = wazabee_telemetry::SeriesSet::new(8);
    for (t, v) in [(10, f64::NAN), (20, f64::INFINITY), (30, 0.5)] {
        set.record("obs.series", &[("node", "1")], t, v);
    }
    let values: Vec<Json> = (set.to_jsonl().lines())
        .map(|line| parse_json(line).unwrap().get("value").cloned().unwrap())
        .collect();
    assert_eq!(values, [Json::Null, Json::Null, Json::Num(0.5)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed, any IQ chunk size — including degenerate one-sample chunks
    /// that drive the planar SIMD engine through its incremental diff-cache
    /// path on every push: the timeline artifact is byte-identical on one
    /// worker and four — the same determinism contract as the committed
    /// event log.
    #[test]
    fn timeline_is_invariant_to_chunking_and_threads(
        seed in 0u64..1_000,
        chunk in 1usize..20_000,
    ) {
        let cells = vec![(seed, chunk), (seed, 4096), (seed, 1)];
        let serial = par_map_with(Some(1), cells.clone(), |(s, c)| run_timeline_cell(s, c).0);
        let four = par_map_with(Some(4), cells, |(s, c)| run_timeline_cell(s, c).0);
        prop_assert_eq!(&serial[0], &serial[1], "chunk size changed the timeline");
        prop_assert_eq!(&serial[0], &serial[2], "one-sample chunks changed the timeline");
        prop_assert_eq!(serial, four, "worker count changed the timeline");
    }
}

/// Scopes closed on `par_map_with` workers count exactly in the next
/// report, though a scoped worker's thread-locals may still be tearing down
/// (folding its profile tallies) when the map returns.
#[test]
fn profile_counts_par_map_workers_exactly() {
    let _l = lock();
    wazabee_telemetry::reset();
    for round in 1..=20u64 {
        par_map_with(Some(4), (0..64u32).collect(), |k| {
            let _s = wazabee_telemetry::scope!("obs.par.item");
            k
        });
        let row = wazabee_telemetry::profile_report()
            .into_iter()
            .find(|r| r.name == "obs.par.item")
            .expect("par_map scopes profiled");
        assert_eq!(row.count, round * 64);
        assert_eq!(row.buckets.iter().sum::<u64>(), round * 64);
    }
    wazabee_telemetry::reset();
}

// ---------------------------------------------------------------------------
// reset() and sweep-cell isolation
// ---------------------------------------------------------------------------

#[test]
fn reset_clears_every_observability_surface() {
    let _l = lock();
    wazabee_telemetry::set_trace_attached(true);
    wazabee_telemetry::reset();
    populate_metrics();
    wazabee_telemetry::event!("obs.test.trace", 1.0);

    wazabee_telemetry::reset();

    // Flat + labeled counters read zero through cached statics.
    assert_eq!(wazabee_telemetry::counter!("obs.test.counter").get(), 0);
    assert_eq!(
        wazabee_telemetry::counter!("obs.test.labeled")
            .with(&[("channel", "15"), ("node", "xbee-3")])
            .get(),
        0
    );

    let snap = parse_json(&wazabee_telemetry::snapshot_json()).unwrap();
    // Stage rows with zero completions are filtered from the report.
    assert!(
        !snap
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("obs.test.stage")),
        "stage profile survived reset"
    );
    // Wall series keep their registration but hold no points.
    for series in snap.get("wall_series").unwrap().as_array().unwrap() {
        assert_eq!(
            series.get("points").unwrap().as_array().unwrap().len(),
            0,
            "wall series survived reset"
        );
    }
    // The trace ring is empty again.
    let (events, dropped) = wazabee_telemetry::drain_trace();
    assert!(events.is_empty(), "trace ring survived reset");
    assert_eq!(dropped, 0);

    // No alerts survive either (populate_metrics never trips a rule here,
    // but a stale latch from another test must not leak through reset).
    assert!(
        snap.get("alerts").unwrap().as_array().is_some(),
        "snapshot lost its alerts section"
    );
    assert!(wazabee_telemetry::health_ok(), "alert latch survived reset");
}

/// `reset()` must clear health-rule latches and restart the span-id
/// sequence — the sweep driver's per-cell reset otherwise leaks one cell's
/// alerts and causal ids into the next (PR 6's cross-cell leakage class).
#[test]
fn reset_clears_health_latches_and_span_id_sequence() {
    let _l = lock();
    wazabee_telemetry::reset();

    wazabee_telemetry::health_rule!(
        "obs.cell.alert",
        wazabee_telemetry::Signal::counter("obs.cell.tripwire"),
        > 0
    );
    wazabee_telemetry::counter!("obs.cell.tripwire").inc();
    let alerts = wazabee_telemetry::evaluate_health();
    let fired = alerts.iter().find(|a| a.name == "obs.cell.alert").unwrap();
    assert!(fired.firing && fired.latched, "rule should trip: {fired:?}");
    assert!(!wazabee_telemetry::health_ok());

    let span_id_before = {
        let span = wazabee_telemetry::scope!("obs.cell.span");
        span.id()
    };
    assert!(span_id_before > 0);

    wazabee_telemetry::reset();

    // The latch is released and the rule sees no data (counter is zero →
    // the counter signal still reads Some(0), which does not fire).
    let alerts = wazabee_telemetry::evaluate_health();
    let calm = alerts.iter().find(|a| a.name == "obs.cell.alert").unwrap();
    assert!(
        !calm.firing && !calm.latched,
        "health latch leaked across reset: {calm:?}"
    );
    assert!(wazabee_telemetry::health_ok());

    // Span ids restart from 1: a second sweep cell's trace is
    // byte-comparable to the first's.
    let span_id_after = {
        let span = wazabee_telemetry::scope!("obs.cell.span");
        span.id()
    };
    assert_eq!(span_id_after, 1, "span-id sequence survived reset");

    wazabee_telemetry::reset();
}

/// The sweep driver's per-cell pattern: reset, run, read. A second identical
/// cell must observe identical global metrics — nothing accumulated from the
/// first cell may leak in (the regression `reset()` now guards against for
/// labeled families, stage stats and series state).
#[test]
fn par_map_sweep_cells_do_not_leak_global_state() {
    let _l = lock();

    // One call site for write and read: the macro statics are per call
    // site, and the closure re-executes the same site for every cell.
    let run_cell = || {
        wazabee_telemetry::reset();
        let labeled = wazabee_telemetry::counter!("obs.cell.labeled").with(&[("channel", "15")]);
        labeled.add(7);
        let counter = wazabee_telemetry::counter!("obs.cell.counter");
        counter.add(3);
        {
            let _s = wazabee_telemetry::scope!("obs.cell.stage");
            std::hint::black_box(0u64);
        }
        let stage_count = wazabee_telemetry::profile_report()
            .iter()
            .find(|row| row.name == "obs.cell.stage")
            .map_or(0, |row| row.count);
        (labeled.get(), counter.get(), stage_count)
    };

    let first = run_cell();
    let second = run_cell();
    assert_eq!(first, second, "global metric state leaked between cells");
    assert_eq!(first, (7, 3, 1));

    // Instance-owned sim timelines are immune even without reset: two cells
    // running concurrently under the sweep driver record disjoint series.
    let pair = par_map_with(Some(2), vec![(1u64, 4096usize), (2, 4096)], |(s, c)| {
        run_timeline_cell(s, c).0
    });
    let alone_a = run_timeline_cell(1, 4096).0;
    let alone_b = run_timeline_cell(2, 4096).0;
    assert_eq!(pair[0], alone_a, "concurrent cell A polluted");
    assert_eq!(pair[1], alone_b, "concurrent cell B polluted");

    wazabee_telemetry::reset();
}
