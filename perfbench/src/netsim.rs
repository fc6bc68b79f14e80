//! `netsim-1024`: the largest attacked cell of the network-scale sweep —
//! 1024 nodes over 16 channels, one PAN per channel (coordinator, router,
//! sensors reporting every 1–2 s, odd sensors through the router) and a
//! WazaBee injector on channel 11 keying a forged reading every 7 ms. The
//! run steps `run_until` one lookahead quantum at a time. Most work is in
//! `wazabee-sim`, `wazabee-zigbee` and `wazabee-dot154`; decode runs as
//! many short per-listener cluster decodes; serve is idle.

use std::time::Instant as WallInstant;

use wazabee_dot154::csma::{CCA_US, TURNAROUND_US};
use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_radio::Instant;
use wazabee_sim::{SimConfig, SimReport, SpectrumSim};
use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode, XbeePayload};

use crate::stats;
use crate::trace::Tracer;
use crate::{self_shares, stage_total_s, stream_layer, Outcome, RunCfg};

const NODES: usize = 1024;
const CHANNELS: usize = 16;
const FIRST_CHANNEL: u8 = 11;
const COORD: u16 = 0x0042;
const ROUTER: u16 = 0x0080;
const ATTACKER_SRC: u16 = 0xBEEF;

/// The simulator's conservative lookahead window, in simulated µs.
const QUANTUM_US: u64 = 64 * (CCA_US + TURNAROUND_US);
/// Quanta per simulated run.
const QUANTA: u64 = 200;
/// Sensors and the injector stop generating traffic here; the remaining
/// 96 ms of the run drain the last two-hop handshakes. Sensors first
/// report one period (1–2 s) in, so the first second carries only the
/// injector: a 4 s run keeps most steps in the loaded regime.
const TRAFFIC_MS: u64 = 4_000;
/// Builds timed before each simulated run, the last of which it runs, so
/// the builds are spread over the whole run. Each is dropped before the
/// next, as a user rebuilding a simulation would.
const BUILDS_PER_REP: usize = 4;
/// Builds per window of the `setup_s` window median (two runs, about five
/// seconds).
const SETUP_WINDOW: usize = 2 * BUILDS_PER_REP;
/// Steps per latency window: the smallest count that supports a p99.
const MIN_STEPS: usize = 1_000;

/// Self-time shares of the simulator stages, as (metric, profiler stage).
const SIM_STAGES: [(&str, &str); 5] = [
    ("sim.modulate.self_share", "sim.modulate"),
    ("sim.superpose.self_share", "sim.superpose"),
    ("sim.demod.self_share", "sim.demod"),
    ("sim.shard.advance.self_share", "sim.shard.advance"),
    ("sim.shard.merge.self_share", "sim.shard.merge"),
];

/// Builds the topology and the injection schedule: everything a user pays
/// before the first event runs.
fn build(seed: u64, threads: usize) -> SpectrumSim {
    let mut cfg = SimConfig::ideal();
    cfg.seed = seed;
    cfg.threads = Some(threads);
    let mut sim = SpectrumSim::new(cfg);
    let per = NODES / CHANNELS;
    let mut next_sensor_addr = 0x0100u16;
    for ci in 0..CHANNELS {
        let ch = Dot154Channel::new(FIRST_CHANNEL + ci as u8).expect("channel in 11..=26");
        let pan = 0x1200 + ci as u16;
        let node = |short_addr, role| {
            XbeeNode::new(
                NodeConfig {
                    pan,
                    short_addr,
                    channel: ch,
                },
                role,
            )
        };
        sim.add_zigbee(node(COORD, NodeRole::Coordinator));
        sim.add_zigbee(node(ROUTER, NodeRole::Router { forward_to: COORD }));
        for s in 0..per - 2 {
            let addr = next_sensor_addr;
            next_sensor_addr += 1;
            // 37 is invertible mod 1000: periods spread over 1.0–2.0 s.
            let interval_ms = 1_000 + (u64::from(addr) * 37) % 1_000;
            let sensor = node(addr, NodeRole::Sensor { interval_ms });
            sim.add_zigbee(if s % 2 == 1 {
                sensor.with_report_to(ROUTER)
            } else {
                sensor
            });
        }
    }
    let traffic_end = Instant(0).plus_ms(TRAFFIC_MS);
    let ch11 = Dot154Channel::new(FIRST_CHANNEL).expect("channel 11");
    let attacker = sim.add_wazabee_injector(ch11, 1.0);
    let mut t = Instant(0).plus_ms(5);
    let mut seq = 0u8;
    while t < traffic_end {
        let forged = MacFrame::data(
            0x1200,
            ATTACKER_SRC,
            COORD,
            seq,
            XbeePayload::reading(0x7A7A).to_bytes(),
        );
        sim.inject_at(attacker, t, forged);
        t = t.plus_ms(7);
        seq = seq.wrapping_add(1);
    }
    sim.set_traffic_deadline(traffic_end);
    sim
}

fn end_of_run() -> Instant {
    Instant(QUANTA * QUANTUM_US)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let seed = cfg.seed ^ 0x5EED_BEE5;
    let threads = cfg.nproc;

    let mut setup_times = Vec::new();
    // Reference: the whole run in one `run_until`. It also warms caches
    // before the stepped runs are timed.
    let reference: SimReport = {
        let mut sim = build(seed, threads);
        sim.run_until(end_of_run());
        sim.report()
    };
    wazabee_telemetry::reset();

    let mut tracer = Tracer::new(cfg.epoch, 0, false);
    let mut rt_plain = Vec::new();
    let mut rt_traced = Vec::new();
    let mut step_ms = Vec::new();
    let mut events = 0usize;
    let mut reps = 0u64;
    let sim_s = end_of_run().0 as f64 * 1e-6;
    let start = WallInstant::now();
    while start.elapsed() < cfg.seconds || step_ms.len() < MIN_STEPS {
        let traced = cfg.trace && reps.is_multiple_of(2);
        tracer.set_on(traced);
        let rep = tracer.open();
        // The first build after a run refills the memory that run handed
        // back (some 20 ms, against 0.3 ms for the builds after it), so it
        // is not timed.
        drop(build(seed, threads));
        let mut timed_build = || {
            let setup = tracer.open();
            let sim = build(seed, threads);
            setup_times.push(setup.start.elapsed().as_secs_f64());
            tracer.close(setup, "sim.build", reps, rep.uid);
            sim
        };
        for _ in 1..BUILDS_PER_REP {
            drop(timed_build());
        }
        let mut sim = timed_build();
        let stepping = WallInstant::now();
        for q in 1..=QUANTA {
            let step = tracer.open();
            sim.run_until(Instant(q * QUANTUM_US));
            let end = WallInstant::now();
            step_ms.push(end.duration_since(step.start).as_secs_f64() * 1e3);
            tracer.close_at(step, end, "sim.step", q, rep.uid);
        }
        let unit = (sim_s, stepping.elapsed().as_secs_f64());
        tracer.close(rep, "sim.rep", reps, 0);
        if traced {
            rt_traced.push(unit);
        } else {
            rt_plain.push(unit);
        }
        let report = sim.report();
        if report != reference {
            out.fail(format!(
                "rep {reps}: stepping by {QUANTUM_US} µs quanta gave {:?}, one run_until gave {:?}",
                summary(&report),
                summary(&reference)
            ));
        }
        events = sim.event_log().len();
        // A reading lost to the simulated attack is a correct outcome; a
        // reading whose fate differs from the one-call reference is not.
        out.attempted += report.readings_sent;
        out.failed += report.readings_sent.abs_diff(reference.readings_sent)
            + report
                .readings_delivered
                .abs_diff(reference.readings_delivered);
        reps += 1;
    }
    out.notes.push(format!(
        "{reps} runs of {QUANTA} × {QUANTUM_US} µs quanta; per run: {}",
        summary(&reference)
    ));
    out.notes.push(stats::tail_note("step ms", &step_ms));

    if cfg.trace {
        let step = |p| stats::windowed_percentile(&step_ms, MIN_STEPS, p).unwrap_or(f64::NAN);
        out.set("sim.step_ms_p50", step(0.50));
        out.set("sim.step_ms_p99", step(0.99));
        out.set("sim.events", events as f64);
        let rep_wall_s = sim_s / stats::rate(&rt_plain);
        out.set(
            "sim.host_us_per_event",
            rep_wall_s * 1e6 / events.max(1) as f64,
        );
        let st = &reference.stats;
        out.set("sim.readings_sent", reference.readings_sent as f64);
        out.set(
            "sim.readings_delivered",
            reference.readings_delivered as f64,
        );
        out.set("sim.frames_decoded", st.frames_decoded as f64);
        out.set("sim.decode_failures", st.decode_failures as f64);
        out.set("sim.collisions", st.collisions as f64);
        out.set("sim.retries", st.retries as f64);
        stream_layer(&mut out, stage_total_s("sim.demod"));
        self_shares(&mut out, &SIM_STAGES);
        let plain = stats::rate(&rt_plain);
        let traced = stats::rate(&rt_traced);
        out.set("trace_overhead_pct", (plain / traced - 1.0) * 100.0);
        out.spans = tracer.spans().to_vec();
    } else {
        out.set("rt_x", stats::rate(&rt_plain));
        match (
            stats::windowed_percentile(&step_ms, MIN_STEPS, 0.50),
            stats::windowed_percentile(&step_ms, MIN_STEPS, 0.99),
        ) {
            (Some(p50), Some(p99)) => {
                out.set("latency_p50_ms", p50);
                out.set("latency_p99_ms", p99);
            }
            _ => out.fail(format!("{} steps cannot support a p99", step_ms.len())),
        }
        out.set("setup_s", crate::setup_s(&setup_times, SETUP_WINDOW));
    }
    out
}

/// The exact counts a run reports, for check messages.
fn summary(r: &SimReport) -> String {
    format!(
        "sent={} delivered={} decoded={} decode_failures={} collisions={} retries={}",
        r.readings_sent,
        r.readings_delivered,
        r.stats.frames_decoded,
        r.stats.decode_failures,
        r.stats.collisions,
        r.stats.retries
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_is_the_simulator_lookahead() {
        assert_eq!(QUANTUM_US, 20_480);
        // The run ends after the traffic deadline, leaving a drain window.
        assert!(end_of_run() > Instant(0).plus_ms(TRAFFIC_MS));
    }
}
