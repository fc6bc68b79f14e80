//! Network-scale simulation sweep: how does the PHY-in-the-loop spectrum
//! simulator behave — and how fast does it run — as the network grows?
//!
//! Two topology families:
//!
//! * **Single-channel stars** (the original sweep): one coordinator and
//!   `n − 1` fast-reporting sensors contending on channel 14 — the
//!   worst-case contention cell.
//! * **Multi-channel PANs** (128–1024 nodes): the network splits across
//!   4–16 IEEE 802.15.4 channels, one PAN per channel with its own
//!   coordinator, a router relaying half the sensors' readings (two-hop
//!   paths), and paper-faithful sensor periods (§VI-A reports every 2 s).
//!   These cells exercise the channel-sharded simulator: each channel is an
//!   independent shard advanced in conservative lookahead windows.
//!
//! Every frame is genuinely modulated, superposed and demodulated, so the
//! reported delivery ratios and collision counts come out of the waveform
//! math, not a packet-loss model.
//!
//! Small cells run in parallel through the deterministic sweep driver
//! (`WAZABEE_THREADS` workers, one thread per cell); the large multi-channel
//! cells run one at a time with the thread budget spent *inside* the
//! simulator, across channel shards. Per-cell results are seed-reproducible
//! and independent of either choice.
//!
//! Writes `BENCH_netsim.json` to the current directory or the path given
//! with `--out`.
//!
//! Run with:
//! `cargo run --release -p wazabee-bench --bin netsim_scale [--smoke] [--out PATH]
//!  [--timeseries PATH] [--linger-ms N] [--shard-check PREFIX]`
//!
//! Live observability: with `WAZABEE_TELEMETRY_ADDR` set, a snapshot server
//! answers mid-run metric/profile requests (`--linger-ms` keeps it up after
//! the sweep so a poller can attach). `--timeseries PATH` runs one extra
//! attacked multi-channel cell with the sim-time timeline enabled and writes
//! its deterministic per-node `timeseries.jsonl` artifact — attacker onset
//! shows as the injector's `node.tx_total` series stepping off zero.
//!
//! `--shard-check PREFIX` runs a single 256-node / 8-channel attacked cell
//! and writes `PREFIX.log` (the committed event log) and `PREFIX.jsonl`
//! (the sim-time timeline): ci.sh runs it under `WAZABEE_THREADS=1` and
//! `=4` and byte-compares both files — the shard-equivalence gate.

use std::time::Instant as WallInstant;

use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_radio::Instant;
use wazabee_sim::{SimConfig, SpectrumSim};
use wazabee_telemetry::json::{Fixed, Writer};
use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode, XbeePayload};

const PAN: u16 = 0x1234;
const COORD: u16 = 0x0042;
/// Per-channel router short address in multi-channel cells.
const ROUTER: u16 = 0x0080;
/// Forged source address the injector claims.
const ATTACKER_SRC: u16 = 0xBEEF;
/// First channel of a multi-channel cell (channels run 11, 12, …).
const FIRST_CHANNEL: u8 = 11;

/// One sweep cell: a network size, channel spread, and whether the attacker
/// is on the air.
#[derive(Debug, Clone, Copy)]
struct Cell {
    nodes: usize,
    /// Populated 802.15.4 channels; 1 = the original single-channel star.
    channels: usize,
    attacker: bool,
    traffic_ms: u64,
}

/// What one cell measured.
struct CellResult {
    cell: Cell,
    readings_sent: u64,
    readings_delivered: u64,
    delivery_ratio: f64,
    collisions: u64,
    collision_rate: f64,
    cca_busy: u64,
    retries: u64,
    frames_abandoned: u64,
    total_tx: u64,
    wall_secs: f64,
    sim_wall_ratio: f64,
}

/// Drain window after the traffic deadline, so readings handed to the MAC
/// late in the window can still finish their data/ACK handshake (two hops
/// of it, for routed readings).
const DRAIN_MS: u64 = 50;

fn cell_seed(cell: Cell) -> u64 {
    // Every cell gets its own seed so no two cells share backoff draws.
    0x5EED_BEE5
        ^ (cell.nodes as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (cell.channels as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (cell.attacker as u64).wrapping_mul(0xD134_2543_DE82_EF95)
}

/// The original single-channel star: one coordinator, `n − 1` sensors with
/// fast (60–180 ms) periods — maximal contention on channel 14.
fn build_star(sim: &mut SpectrumSim, cell: Cell) {
    let ch = Dot154Channel::new(14).expect("channel 14 is valid");
    sim.add_zigbee(XbeeNode::new(
        NodeConfig {
            pan: PAN,
            short_addr: COORD,
            channel: ch,
        },
        NodeRole::Coordinator,
    ));
    for i in 0..cell.nodes - 1 {
        // Distinct periods (13 is invertible mod 120) so the timer phases
        // spread out instead of firing in lockstep.
        let interval_ms = 60 + (i as u64 * 13) % 120;
        sim.add_zigbee(XbeeNode::new(
            NodeConfig {
                pan: PAN,
                short_addr: 0x0100 + i as u16,
                channel: ch,
            },
            NodeRole::Sensor { interval_ms },
        ));
    }
}

/// A multi-channel deployment: nodes split evenly across `cell.channels`
/// adjacent channels, one PAN per channel with its own coordinator and a
/// router; odd-indexed sensors report through the router (two radio hops),
/// even-indexed ones straight to the coordinator. Sensor periods are
/// paper-faithful (§VI-A: readings every 2 s) — 1.0–2.0 s spread so phases
/// decorrelate.
fn build_multichannel(sim: &mut SpectrumSim, cell: Cell) {
    let per = cell.nodes / cell.channels;
    let rem = cell.nodes % cell.channels;
    let mut next_sensor_addr = 0x0100u16;
    for ci in 0..cell.channels {
        let ch = Dot154Channel::new(FIRST_CHANNEL + ci as u8).expect("channel in 11..=26");
        let pan = 0x1200 + ci as u16;
        let n_here = per + usize::from(ci < rem);
        sim.add_zigbee(XbeeNode::new(
            NodeConfig {
                pan,
                short_addr: COORD,
                channel: ch,
            },
            NodeRole::Coordinator,
        ));
        let has_router = n_here >= 3;
        if has_router {
            sim.add_zigbee(XbeeNode::new(
                NodeConfig {
                    pan,
                    short_addr: ROUTER,
                    channel: ch,
                },
                NodeRole::Router { forward_to: COORD },
            ));
        }
        let sensors = n_here.saturating_sub(1 + usize::from(has_router));
        for s in 0..sensors {
            let addr = next_sensor_addr;
            next_sensor_addr += 1;
            // 37 is invertible mod 1000: periods spread over 1.0–2.0 s.
            let interval_ms = 1_000 + (addr as u64 * 37) % 1_000;
            let node = XbeeNode::new(
                NodeConfig {
                    pan,
                    short_addr: addr,
                    channel: ch,
                },
                NodeRole::Sensor { interval_ms },
            );
            let node = if has_router && s % 2 == 1 {
                node.with_report_to(ROUTER)
            } else {
                node
            };
            sim.add_zigbee(node);
        }
    }
}

fn run_cell(cell: Cell) -> CellResult {
    run_cell_with(cell, None, None).0
}

/// Runs one cell; with `timeline_interval_us` set, records the sim-time
/// timeline at that interval and returns its JSONL rendering. `threads`
/// overrides [`SimConfig::threads`] (None inherits `WAZABEE_THREADS`).
fn run_cell_with(
    cell: Cell,
    timeline_interval_us: Option<u64>,
    threads: Option<usize>,
) -> (CellResult, Option<String>, Vec<String>) {
    let mut cfg = SimConfig::ideal();
    cfg.seed = cell_seed(cell);
    cfg.threads = threads;
    let mut sim = SpectrumSim::new(cfg);
    if let Some(interval) = timeline_interval_us {
        sim.enable_timeline(interval);
    }

    if cell.channels <= 1 {
        build_star(&mut sim, cell);
    } else {
        build_multichannel(&mut sim, cell);
    }

    let traffic_end = Instant(0).plus_ms(cell.traffic_ms);
    if cell.attacker {
        // A WazaBee injector keying forged readings every 7 ms with no
        // carrier sense: collisions with legitimate traffic are guaranteed.
        // In multi-channel cells it camps on the first channel.
        let (atk_ch, atk_pan) = if cell.channels <= 1 {
            (Dot154Channel::new(14).expect("valid"), PAN)
        } else {
            (Dot154Channel::new(FIRST_CHANNEL).expect("valid"), 0x1200)
        };
        let attacker = sim.add_wazabee_injector(atk_ch, 1.0);
        let mut t = Instant(0).plus_ms(5);
        let mut seq = 0u8;
        while t < traffic_end {
            let forged = MacFrame::data(
                atk_pan,
                ATTACKER_SRC,
                COORD,
                seq,
                XbeePayload::reading(0x7A7A).to_bytes(),
            );
            sim.inject_at(attacker, t, forged);
            t = t.plus_ms(7);
            seq = seq.wrapping_add(1);
        }
    }

    sim.set_traffic_deadline(traffic_end);
    let wall = WallInstant::now();
    sim.run_until(traffic_end.plus_ms(DRAIN_MS));
    let wall_secs = wall.elapsed().as_secs_f64().max(1e-9);

    let report = sim.report();
    let total_tx: u64 = sim.nodes().map(|n| n.tx_count()).sum();
    let sim_secs = (cell.traffic_ms + DRAIN_MS) as f64 / 1e3;
    let result = CellResult {
        cell,
        readings_sent: report.readings_sent,
        readings_delivered: report.readings_delivered,
        delivery_ratio: report.delivery_ratio,
        collisions: report.stats.collisions,
        collision_rate: report.stats.collisions as f64 / total_tx.max(1) as f64,
        cca_busy: report.stats.cca_busy,
        retries: report.stats.retries,
        frames_abandoned: report.stats.frames_abandoned,
        total_tx,
        wall_secs,
        sim_wall_ratio: sim_secs / wall_secs,
    };
    let timeline = timeline_interval_us.map(|_| sim.timeline_jsonl());
    let log = sim.event_log().to_vec();
    {
        // Per-cell delivery gauge: the watchdog's gauge_min rule watches the
        // worst cell across the whole (possibly parallel) sweep.
        let nodes = cell.nodes.to_string();
        let attacker = if cell.attacker { "true" } else { "false" };
        wazabee_telemetry::gauge!("netsim.delivery_ratio")
            .with(&[("nodes", &nodes), ("attacker", attacker)])
            .set(result.delivery_ratio);
    }
    (result, timeline, log)
}

/// The `--shard-check` mode: one 256-node / 8-channel attacked cell with
/// the timeline on, committed artifacts written to `PREFIX.log` and
/// `PREFIX.jsonl`. Running this under different `WAZABEE_THREADS` values
/// must produce byte-identical files.
fn shard_check(prefix: &str) {
    let cell = Cell {
        nodes: 256,
        channels: 8,
        attacker: true,
        traffic_ms: 2_000,
    };
    let (result, timeline, log) = run_cell_with(cell, Some(10_000), None);
    let mut log_text = log.join("\n");
    log_text.push('\n');
    std::fs::write(format!("{prefix}.log"), log_text).expect("write event log");
    std::fs::write(
        format!("{prefix}.jsonl"),
        timeline.expect("timeline enabled"),
    )
    .expect("write timeline");
    eprintln!(
        "shard-check: n={} ch={} sent={} delivered={} collisions={} -> {prefix}.log/.jsonl",
        cell.nodes,
        cell.channels,
        result.readings_sent,
        result.readings_delivered,
        result.collisions,
    );
}

fn main() {
    let mut smoke = false;
    let mut attacker = true;
    let mut out_path = "BENCH_netsim.json".to_string();
    let mut timeseries_path: Option<String> = None;
    let mut shard_check_prefix: Option<String> = None;
    let mut linger_ms = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--no-attacker" => attacker = false,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "--timeseries" => match args.next() {
                Some(p) => timeseries_path = Some(p),
                None => {
                    eprintln!("--timeseries requires a path");
                    std::process::exit(2);
                }
            },
            "--shard-check" => match args.next() {
                Some(p) => shard_check_prefix = Some(p),
                None => {
                    eprintln!("--shard-check requires a path prefix");
                    std::process::exit(2);
                }
            },
            "--linger-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => linger_ms = ms,
                None => {
                    eprintln!("--linger-ms requires a millisecond count");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "usage: netsim_scale [--smoke] [--no-attacker] [--out PATH] \
                     [--timeseries PATH] [--linger-ms N] [--shard-check PREFIX]   (got {other:?})"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(prefix) = shard_check_prefix {
        shard_check(&prefix);
        return;
    }

    // Declarative health: the watchdog evaluates these over the live metric
    // registry; latched alerts surface in the console summary, in
    // `snapshot_json()["alerts"]`, and as a 503 from the `/healthz` route.
    // Carrier-sense-free injections discriminate attacked from clean runs
    // (legitimate CSMA collisions are routine at 1024 nodes, so raw
    // collision counts no longer do); the delivery floor catches degraded
    // large cells; extra frames mean an IDS watcher saw traffic the MAC log
    // cannot explain.
    wazabee_telemetry::health_rule!(
        "netsim.injection",
        wazabee_telemetry::Signal::counter("sim.injected"),
        > 0
    );
    wazabee_telemetry::health_rule!(
        "netsim.delivery.degraded",
        wazabee_telemetry::Signal::gauge_min("netsim.delivery_ratio"),
        < 0.95
    );
    wazabee_telemetry::health_rule!(
        "netsim.ids.extra_frames",
        wazabee_telemetry::Signal::counter("ids.stream.extra_frames"),
        > 0
    );
    wazabee_telemetry::start_watchdog(std::time::Duration::from_millis(100));

    match wazabee_telemetry::serve_from_env() {
        Ok(Some(addr)) => eprintln!("telemetry snapshot server on {addr}"),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry snapshot server failed to start: {e}"),
    }

    // Single-channel stars (fast-reporting, maximal contention) plus
    // multi-channel deployments (paper-faithful 1–2 s periods, routed
    // two-hop paths) up to 1024 nodes over 16 channels.
    let (star_counts, star_traffic_ms): (&[usize], u64) = if smoke {
        (&[4, 8], 120)
    } else {
        (&[4, 8, 16, 32, 64], 400)
    };
    // Multi-channel traffic windows must cover the 1–2 s sensor periods.
    let multi: &[(usize, usize, u64)] = if smoke {
        &[(32, 4, 2_000), (1024, 16, 2_000)]
    } else {
        &[
            (128, 4, 2_000),
            (256, 8, 2_000),
            (512, 16, 2_000),
            (1024, 16, 2_000),
        ]
    };
    let threads = wazabee_bench::sweep::default_threads();

    let arms: &[bool] = if attacker { &[false, true] } else { &[false] };
    let mut cells: Vec<Cell> = star_counts
        .iter()
        .flat_map(|&nodes| {
            arms.iter().map(move |&attacker| Cell {
                nodes,
                channels: 1,
                attacker,
                traffic_ms: star_traffic_ms,
            })
        })
        .collect();
    cells.extend(multi.iter().flat_map(|&(nodes, channels, traffic_ms)| {
        arms.iter().map(move |&attacker| Cell {
            nodes,
            channels,
            attacker,
            traffic_ms,
        })
    }));
    eprintln!("sweeping {} cells on {threads} thread(s) ...", cells.len());

    // Small cells fan out across the sweep driver (one thread per cell, the
    // simulator kept single-threaded); large multi-channel cells run one at
    // a time with the thread budget spent across channel shards instead.
    // Committed results are identical either way — this only shapes wall
    // time.
    let split: Vec<(usize, Cell, bool)> = cells
        .iter()
        .copied()
        .enumerate()
        .map(|(k, c)| (k, c, c.nodes >= 128))
        .collect();
    let small: Vec<(usize, Cell)> = split
        .iter()
        .filter(|&&(_, _, big)| !big)
        .map(|&(k, c, _)| (k, c))
        .collect();
    let large: Vec<(usize, Cell)> = split
        .iter()
        .filter(|&&(_, _, big)| big)
        .map(|&(k, c, _)| (k, c))
        .collect();
    let mut slots: Vec<Option<CellResult>> = (0..cells.len()).map(|_| None).collect();
    for (k, r) in
        wazabee_bench::sweep::par_map(small, |(k, c)| (k, run_cell_with(c, None, Some(1)).0))
    {
        slots[k] = Some(r);
    }
    for (k, c) in large {
        slots[k] = Some(run_cell(c));
    }
    let results: Vec<CellResult> = slots.into_iter().map(|s| s.expect("cell ran")).collect();

    let mut json = String::new();
    let mut w = Writer::new(&mut json);
    w.begin_object()
        .field("bench", "netsim_scale")
        .field("smoke", smoke)
        .field("threads", threads)
        .field("drain_ms", DRAIN_MS)
        .key("cells")
        .begin_array();
    for r in &results {
        println!(
            "n={:4} ch={:2} attacker={:5} sent={:4} delivered={:4} ratio={:.3} collisions={:3} \
             retries={:3} abandoned={:2} sim/wall={:7.1}x",
            r.cell.nodes,
            r.cell.channels,
            r.cell.attacker,
            r.readings_sent,
            r.readings_delivered,
            r.delivery_ratio,
            r.collisions,
            r.retries,
            r.frames_abandoned,
            r.sim_wall_ratio,
        );
        w.begin_object()
            .field("nodes", r.cell.nodes)
            .field("channels", r.cell.channels)
            .field("attacker", r.cell.attacker)
            .field("traffic_ms", r.cell.traffic_ms)
            .field("readings_sent", r.readings_sent)
            .field("readings_delivered", r.readings_delivered)
            .field("delivery_ratio", Fixed(r.delivery_ratio, 6))
            .field("collisions", r.collisions)
            .field("collision_rate", Fixed(r.collision_rate, 6))
            .field("cca_busy", r.cca_busy)
            .field("retries", r.retries)
            .field("frames_abandoned", r.frames_abandoned)
            .field("total_tx", r.total_tx)
            .field("wall_secs", Fixed(r.wall_secs, 6))
            .field("sim_wall_ratio", Fixed(r.sim_wall_ratio, 3))
            .end_object();
    }
    w.end_array().end_object();
    json.push('\n');
    std::fs::write(&out_path, json).expect("write benchmark artifact");
    eprintln!("wrote {out_path}");

    if let Some(ts_path) = timeseries_path {
        // One dedicated attacked multi-channel cell with the sim-time
        // timeline on: the artifact is deterministic (sim-time sampling of
        // sim state only), byte-identical at any WAZABEE_THREADS or IQ
        // chunk size.
        let cell = Cell {
            nodes: 32,
            channels: 4,
            attacker: true,
            traffic_ms: 2_000,
        };
        let (_, timeline, _) = run_cell_with(cell, Some(10_000), None);
        let jsonl = timeline.expect("timeline was enabled");
        std::fs::write(&ts_path, jsonl).expect("write timeseries artifact");
        eprintln!("wrote {ts_path}");
    }

    print!("{}", wazabee_telemetry::profile_summary());

    for a in wazabee_telemetry::evaluate_health() {
        if a.latched {
            eprintln!(
                "health alert: {} ({} {} {}, value {:?})",
                a.name,
                a.signal.metric(),
                a.cmp.symbol(),
                a.threshold,
                a.value,
            );
        }
    }
    match wazabee_telemetry::dump_trace_from_env() {
        Ok(true) => {
            if let Ok(p) = std::env::var(wazabee_telemetry::ENV_TRACE_OUT) {
                eprintln!("wrote Chrome trace to {p}");
            }
        }
        Ok(false) => {}
        Err(e) => eprintln!("trace dump failed: {e}"),
    }

    if linger_ms > 0 {
        // Keep the process (and the snapshot server) alive so a poller can
        // attach after the sweep finishes — used by ci.sh.
        eprintln!("lingering {linger_ms} ms for snapshot pollers ...");
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
}
