//! Determinism of the spectrum simulator under the parallel sweep driver:
//! the committed event log *and* the exported `timeseries.jsonl` of a
//! simulation run must be byte-identical whether its sweep cell executes on
//! one worker or four (`WAZABEE_THREADS`-style scheduling), and whatever IQ
//! chunk size the receivers feed the streaming decoder — now that the
//! receive chain runs the planar `f32` SIMD kernels, these witnesses also
//! pin that the blocked kernels have no data-dependent evaluation order.

use proptest::prelude::*;
use wazabee_bench::sweep::par_map_with;
use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_radio::Instant;
use wazabee_sim::{JammerConfig, SimConfig, SpectrumSim};
use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode, XbeePayload};

const PAN: u16 = 0x1234;
const COORD: u16 = 0x0042;

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

/// One sweep cell: a contended office-grade run (noise, CFO, timing offset,
/// a reactive jammer and a WazaBee injector) whose committed event log and
/// exported timeline JSONL are the determinism witnesses.
fn run_cell(seed: u64, iq_chunk: usize) -> (String, String) {
    let ch = Dot154Channel::new(14).unwrap();
    let mut cfg = SimConfig::office();
    cfg.seed = seed;
    cfg.iq_chunk = iq_chunk.max(1);
    let mut sim = SpectrumSim::new(cfg);
    sim.enable_timeline(5_000);
    sim.add_zigbee(node(COORD, NodeRole::Coordinator));
    sim.add_zigbee(node(0x0063, NodeRole::Sensor { interval_ms: 40 }));
    sim.add_zigbee(node(0x0064, NodeRole::Sensor { interval_ms: 40 }));
    sim.add_reactive_jammer(
        ch,
        JammerConfig {
            trigger_probability: 0.4,
            ..JammerConfig::default()
        },
    );
    let attacker = sim.add_wazabee_injector(ch, 1.0);
    let forged = MacFrame::data(
        PAN,
        0x0063,
        COORD,
        99,
        XbeePayload::reading(7777).to_bytes(),
    );
    sim.inject_at(attacker, Instant(41_000), forged);
    sim.run_until(Instant(0).plus_ms(130));
    let log: Vec<String> = sim.event_log().iter().map(|r| r.to_string()).collect();
    (log.join("\n"), sim.timeline_jsonl())
}

#[test]
fn committed_event_log_is_identical_across_worker_counts() {
    let cells: Vec<(u64, usize)> = (0..6u64).map(|k| (0xA11CE + 77 * k, 4096)).collect();
    let serial = par_map_with(Some(1), cells.clone(), |(s, c)| run_cell(s, c));
    let four = par_map_with(Some(4), cells, |(s, c)| run_cell(s, c));
    assert!(serial
        .iter()
        .all(|(log, jsonl)| !log.is_empty() && !jsonl.is_empty()));
    assert_eq!(serial, four, "artifacts diverged across worker counts");
}

#[test]
fn extreme_chunk_sizes_commit_identical_artifacts() {
    // One-sample chunks force the planar engine through its diff-cache
    // continuity path on every push; huge chunks take the single-pass path.
    // Both must commit the byte-identical event log and timeline JSONL.
    let reference = run_cell(0xBEE5, 4096);
    assert!(!reference.0.is_empty() && !reference.1.is_empty());
    for chunk in [1usize, 2, 7, 63, 1_000_000] {
        assert_eq!(run_cell(0xBEE5, chunk), reference, "chunk {chunk} diverged");
    }
}

/// One multi-channel cell through the channel-sharded engine: four PANs on
/// four RF channels, each with a coordinator, a relay router and sensors
/// (odd sensors report via the router), plus a WazaBee injector on the
/// first channel. `threads` drives the shard workers directly.
fn run_sharded_cell(seed: u64, threads: usize) -> (String, String) {
    let mut cfg = SimConfig::office();
    cfg.seed = seed;
    cfg.threads = Some(threads);
    let mut sim = SpectrumSim::new(cfg);
    sim.enable_timeline(5_000);
    let mut next_addr = 0x0100u16;
    for ci in 0..4u8 {
        let ch = Dot154Channel::new(11 + ci).unwrap();
        let pan = 0x1200 + u16::from(ci);
        let on = |addr: u16, role: NodeRole| {
            XbeeNode::new(
                NodeConfig {
                    pan,
                    short_addr: addr,
                    channel: ch,
                },
                role,
            )
        };
        sim.add_zigbee(on(COORD, NodeRole::Coordinator));
        sim.add_zigbee(on(0x0080, NodeRole::Router { forward_to: COORD }));
        for s in 0..3u16 {
            let addr = next_addr;
            next_addr += 1;
            let interval = 37 + u64::from(addr) % 17;
            let node = on(
                addr,
                NodeRole::Sensor {
                    interval_ms: interval,
                },
            );
            sim.add_zigbee(if s % 2 == 1 {
                node.with_report_to(0x0080)
            } else {
                node
            });
        }
    }
    let ch0 = Dot154Channel::new(11).unwrap();
    let attacker = sim.add_wazabee_injector(ch0, 1.0);
    let forged = MacFrame::data(
        0x1200,
        0x0100,
        COORD,
        99,
        XbeePayload::reading(7777).to_bytes(),
    );
    sim.inject_at(attacker, Instant(41_000), forged);
    sim.run_until(Instant(0).plus_ms(130));
    let log: Vec<String> = sim.event_log().iter().map(|r| r.to_string()).collect();
    (log.join("\n"), sim.timeline_jsonl())
}

#[test]
fn sharded_multichannel_cell_is_identical_across_thread_counts() {
    for seed in [0xBEE5u64, 0x51AB] {
        let one = run_sharded_cell(seed, 1);
        assert!(!one.0.is_empty() && !one.1.is_empty());
        for threads in [2usize, 4] {
            let many = run_sharded_cell(seed, threads);
            assert_eq!(
                one, many,
                "sharded artifacts diverged between 1 and {threads} shard workers"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed, any chunk size: one worker and four workers commit the
    /// same event log and the same timeline JSONL, and the chunk size never
    /// leaks into either artifact.
    #[test]
    fn event_log_is_invariant_to_chunking_and_threads(
        seed in 0u64..1_000,
        chunk in 1usize..20_000,
    ) {
        let cells = vec![(seed, chunk), (seed, 4096)];
        let serial = par_map_with(Some(1), cells.clone(), |(s, c)| run_cell(s, c));
        let four = par_map_with(Some(4), cells, |(s, c)| run_cell(s, c));
        prop_assert_eq!(&serial[0], &serial[1], "chunk size changed the outcome");
        prop_assert_eq!(serial, four, "worker count changed the outcome");
    }
}
