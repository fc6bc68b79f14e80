//! End-to-end acceptance tests for the shared-spectrum simulator: the
//! ISSUE-5 criteria — demodulation-level collisions, capture effect,
//! CSMA/CA recovery, attacker nodes, and IDS flagging — all through the
//! real IQ path.

use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_ids::{Alert, MonitorConfig};
use wazabee_radio::Instant;
use wazabee_sim::{FlooderConfig, JammerConfig, SimConfig, SpectrumSim};
use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode, XbeePayload};

const PAN: u16 = 0x1234;
const COORD: u16 = 0x0042;

fn channel() -> Dot154Channel {
    Dot154Channel::new(14).unwrap()
}

fn coordinator() -> XbeeNode {
    XbeeNode::new(
        NodeConfig {
            pan: PAN,
            short_addr: COORD,
            channel: channel(),
        },
        NodeRole::Coordinator,
    )
}

fn sensor(addr: u16, interval_ms: u64) -> XbeeNode {
    XbeeNode::new(
        NodeConfig {
            pan: PAN,
            short_addr: addr,
            channel: channel(),
        },
        NodeRole::Sensor { interval_ms },
    )
}

#[test]
fn ideal_single_sensor_delivers_everything() {
    let mut sim = SpectrumSim::new(SimConfig::ideal());
    let coord = sim.add_zigbee(coordinator());
    sim.add_zigbee(sensor(0x0063, 40));
    sim.run_until(Instant(0).plus_ms(210));

    let report = sim.report();
    assert_eq!(report.readings_sent, 5);
    assert_eq!(report.readings_delivered, 5);
    assert_eq!(report.delivery_ratio, 1.0);
    assert_eq!(report.stats.collisions, 0);
    assert_eq!(report.stats.frames_abandoned, 0);
    // The data/ACK handshake ran over the air: both sides keyed up.
    assert!(sim.node(coord).airtime_us() > 0, "coordinator never ACKed");
}

#[test]
fn overlapping_injections_collide_at_demodulation() {
    // Two carrier-sense-free injectors keying up at the same instant at
    // equal gain: the superposed waveform must destroy at least one frame.
    let mut sim = SpectrumSim::new(SimConfig::ideal());
    let coord = sim.add_zigbee(coordinator());
    let a = sim.add_wazabee_injector(channel(), 1.0);
    let b = sim.add_wazabee_injector(channel(), 1.0);
    let frame_a = MacFrame::data(PAN, 0x0070, COORD, 1, XbeePayload::reading(1111).to_bytes());
    let frame_b = MacFrame::data(PAN, 0x0071, COORD, 1, XbeePayload::reading(2222).to_bytes());
    sim.inject_at(a, Instant(1_000), frame_a);
    sim.inject_at(b, Instant(1_000), frame_b);
    sim.run_until(Instant(0).plus_ms(20));

    assert_eq!(
        sim.stats().collisions,
        1,
        "overlap must be seen as a collision"
    );
    let readings = sim.zigbee(coord).unwrap().readings();
    assert!(
        readings.len() <= 1,
        "equal-power overlap delivered both frames: {readings:?}"
    );
}

#[test]
fn capture_effect_recovers_the_stronger_frame() {
    // Same overlap, but one emitter 12 dB up: the strong frame should
    // survive the weak one's interference — the capture effect, emerging
    // from the discriminator math rather than a model parameter.
    let mut sim = SpectrumSim::new(SimConfig::ideal());
    let coord = sim.add_zigbee(coordinator());
    let strong = sim.add_wazabee_injector(channel(), 1.0);
    let weak = sim.add_wazabee_injector(channel(), 0.25);
    let frame_s = MacFrame::data(PAN, 0x0070, COORD, 1, XbeePayload::reading(1111).to_bytes());
    let frame_w = MacFrame::data(PAN, 0x0071, COORD, 1, XbeePayload::reading(2222).to_bytes());
    sim.inject_at(strong, Instant(1_000), frame_s);
    sim.inject_at(weak, Instant(1_000), frame_w);
    sim.run_until(Instant(0).plus_ms(20));

    assert_eq!(sim.stats().collisions, 1);
    let readings = sim.zigbee(coord).unwrap().readings();
    assert_eq!(readings.len(), 1, "capture margin should save one frame");
    assert_eq!(readings[0].value, 1111);
    assert_eq!(readings[0].reported_by, 0x0070);
}

#[test]
fn csma_resolves_contention_on_retry() {
    // Two sensors with the same period fire their timers at the same
    // instant, every round. CSMA/CA (randomized backoff, CCA against the
    // live spectrum, ACK-triggered retries) must still deliver everything.
    let mut sim = SpectrumSim::new(SimConfig::ideal());
    sim.add_zigbee(coordinator());
    sim.add_zigbee(sensor(0x0063, 50));
    sim.add_zigbee(sensor(0x0064, 50));
    sim.run_until(Instant(0).plus_ms(420));

    let report = sim.report();
    assert_eq!(report.readings_sent, 16);
    assert_eq!(
        report.delivery_ratio,
        1.0,
        "contention must resolve: {:?}\nlog tail: {:#?}",
        report.stats,
        sim.event_log()
            .iter()
            .rev()
            .take(12)
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
    );
    let s = &report.stats;
    assert!(
        s.cca_busy + s.retries + s.collisions > 0,
        "same-instant timers should have contended at least once: {s:?}"
    );
}

#[test]
fn four_node_network_meets_the_delivery_floor() {
    // Acceptance: a 4-node network that delivers 100% under the ideal
    // configuration stays ≥ 95% with office-grade noise, CFO and timing
    // offset on every receiver.
    let run = |cfg: SimConfig| {
        let mut sim = SpectrumSim::new(cfg);
        sim.add_zigbee(coordinator());
        sim.add_zigbee(sensor(0x0063, 47));
        sim.add_zigbee(sensor(0x0064, 53));
        sim.add_zigbee(sensor(0x0065, 59));
        sim.run_until(Instant(0).plus_ms(300));
        sim.report()
    };

    let ideal = run(SimConfig::ideal());
    assert!(ideal.readings_sent >= 15);
    assert_eq!(
        ideal.delivery_ratio, 1.0,
        "ideal run lost traffic: {ideal:?}"
    );

    let office = run(SimConfig::office());
    assert!(
        office.delivery_ratio >= 0.95,
        "office-grade PHY fell below the floor: {office:?}"
    );
}

#[test]
fn wazabee_injection_is_accepted_and_flagged() {
    // Acceptance: the attacker's GFSK-modulated frame crosses the full IQ
    // path into the victim's application layer, and the IDS monitor node
    // flags the same emission.
    let mut sim = SpectrumSim::new(SimConfig::ideal());
    let coord = sim.add_zigbee(coordinator());
    sim.add_zigbee(sensor(0x0063, 40));
    let attacker = sim.add_wazabee_injector(channel(), 1.0);
    let ids = sim.add_ids_monitor(channel(), MonitorConfig::default());
    let forged = MacFrame::data(
        PAN,
        0x0063,
        COORD,
        200,
        XbeePayload::reading(9999).to_bytes(),
    );
    let forged_psdu = forged.to_psdu();
    sim.inject_at(attacker, Instant(21_000), forged);
    sim.run_until(Instant(0).plus_ms(120));

    let victim = sim.zigbee(coord).unwrap();
    assert!(
        victim.readings().iter().any(|r| r.value == 9999),
        "victim never accepted the forged reading: {:?}",
        victim.readings()
    );
    let alerts = sim.alerts(ids);
    assert!(
        alerts.iter().any(|(_, a)| matches!(
            a,
            Alert::UnexpectedDot154 { psdu, .. } if *psdu == forged_psdu
        )),
        "IDS never flagged the injected PSDU: {alerts:?}"
    );
}

#[test]
fn ack_spoofer_masks_delivery_failure() {
    // A sensor reports to a coordinator address that does not exist. Alone,
    // every frame exhausts its retries. With an ACK spoofer on the air, the
    // forged acknowledgements arrive before the ACK timeout and the sender
    // believes every frame was delivered.
    let honest = {
        let mut sim = SpectrumSim::new(SimConfig::ideal());
        sim.add_zigbee(sensor(0x0063, 50));
        sim.run_until(Instant(0).plus_ms(300));
        sim.report()
    };
    assert!(honest.stats.frames_abandoned > 0);
    assert!(honest.stats.retries > 0);
    assert_eq!(honest.readings_delivered, 0);

    let spoofed = {
        let mut sim = SpectrumSim::new(SimConfig::ideal());
        sim.add_zigbee(sensor(0x0063, 50));
        sim.add_ack_spoofer(channel(), 1.0);
        sim.run_until(Instant(0).plus_ms(300));
        sim.report()
    };
    assert!(spoofed.stats.acks_spoofed > 0, "{:?}", spoofed.stats);
    assert_eq!(
        spoofed.stats.frames_abandoned, 0,
        "forged ACKs should suppress every retry exhaustion: {:?}",
        spoofed.stats
    );
    assert_eq!(spoofed.stats.retries, 0, "{:?}", spoofed.stats);
    // The attack's point: the MAC looks healthy, yet nothing was delivered.
    assert_eq!(spoofed.readings_delivered, 0);
}

#[test]
fn reactive_jammer_forces_retries() {
    let quiet = {
        let mut sim = SpectrumSim::new(SimConfig::ideal());
        sim.add_zigbee(coordinator());
        sim.add_zigbee(sensor(0x0063, 50));
        sim.run_until(Instant(0).plus_ms(280));
        sim.report()
    };
    assert_eq!(quiet.stats.retries, 0);
    assert_eq!(quiet.delivery_ratio, 1.0);

    let jammed = {
        let mut sim = SpectrumSim::new(SimConfig::ideal());
        sim.add_zigbee(coordinator());
        sim.add_zigbee(sensor(0x0063, 50));
        sim.add_reactive_jammer(channel(), JammerConfig::default());
        sim.run_until(Instant(0).plus_ms(280));
        sim.report()
    };
    assert!(jammed.stats.jam_bursts > 0);
    assert!(
        jammed.stats.retries + jammed.stats.frames_abandoned > 0,
        "jamming every frame must cost the MAC something: {:?}",
        jammed.stats
    );
    assert!(
        jammed.delivery_ratio < 1.0,
        "a 100%-trigger jammer should not allow clean delivery: {jammed:?}"
    );
}

#[test]
fn flooder_depletes_the_victims_airtime() {
    let baseline = {
        let mut sim = SpectrumSim::new(SimConfig::ideal());
        let coord = sim.add_zigbee(coordinator());
        sim.run_until(Instant(0).plus_ms(200));
        sim.node(coord).airtime_us()
    };
    assert_eq!(baseline, 0, "an idle coordinator transmits nothing");

    let mut sim = SpectrumSim::new(SimConfig::ideal());
    let coord = sim.add_zigbee(coordinator());
    let flooder = sim.add_flooder(
        channel(),
        FlooderConfig {
            pan: PAN,
            src: 0x0099,
            victim: COORD,
            interval_us: 5_000,
        },
    );
    sim.run_until(Instant(0).plus_ms(200));

    let floods = sim.node(flooder).tx_count();
    assert!(floods >= 30, "flooder underperformed: {floods}");
    // Every flood frame extracts a 352 µs ACK from the victim.
    let victim_airtime = sim.node(coord).airtime_us();
    assert!(
        victim_airtime >= floods * 300,
        "victim airtime {victim_airtime} µs for {floods} floods"
    );
    // No readings were faked into the coordinator's display.
    assert!(sim.zigbee(coord).unwrap().readings().is_empty());
}

#[test]
fn committed_event_log_is_deterministic() {
    let run = |iq_chunk: usize| {
        let mut cfg = SimConfig::office();
        cfg.iq_chunk = iq_chunk;
        let mut sim = SpectrumSim::new(cfg);
        sim.add_zigbee(coordinator());
        sim.add_zigbee(sensor(0x0063, 40));
        sim.add_zigbee(sensor(0x0064, 40));
        let attacker = sim.add_wazabee_injector(channel(), 1.0);
        let forged = MacFrame::data(
            PAN,
            0x0063,
            COORD,
            200,
            XbeePayload::reading(9999).to_bytes(),
        );
        sim.inject_at(attacker, Instant(41_500), forged);
        sim.run_until(Instant(0).plus_ms(150));
        sim.event_log()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = run(4096);
    let b = run(4096);
    assert_eq!(a, b, "same seed, same log");
    // Chunk-size invariance is inherited from StreamingRx: any chunking of
    // the receiver windows commits the identical event sequence.
    for chunk in [257, 1000, 1 << 20] {
        assert_eq!(a, run(chunk), "iq_chunk={chunk} diverged");
    }
    assert!(!a.is_empty());
}

#[test]
fn timeline_survives_nodes_added_after_enable() {
    // Regression: the per-node airtime baseline was sized when the timeline
    // was armed, so a node added afterwards indexed past its end on the
    // next tick. The sampler now resizes the baseline defensively.
    let mut sim = SpectrumSim::new(SimConfig::ideal());
    let coord = sim.add_zigbee(coordinator());
    sim.enable_timeline(5_000);
    sim.add_zigbee(sensor(0x0063, 40));
    sim.add_zigbee(sensor(0x0064, 55));
    sim.run_until(Instant(0).plus_ms(210));

    let report = sim.report();
    assert!(report.readings_sent > 0);
    assert_eq!(report.delivery_ratio, 1.0);
    assert!(sim.node(coord).airtime_us() > 0, "coordinator never ACKed");

    // The exported timeline carries every node, including the ones that
    // joined after the first tick was armed.
    let jsonl = sim.timeline_jsonl();
    assert!(!jsonl.is_empty());
    for gid in 0..3 {
        let label = format!("\"node\":\"{gid}\"");
        assert!(
            jsonl.contains(&label),
            "timeline is missing series for node {gid}"
        );
    }
    // Occupancy deltas stay in [0, 1]: a bogus baseline would surface as a
    // wild first sample for the late joiners.
    for line in jsonl
        .lines()
        .filter(|l| l.contains("node.airtime_occupancy"))
    {
        let v = line
            .split("\"value\":")
            .nth(1)
            .and_then(|s| s.trim_end_matches('}').parse::<f64>().ok())
            .unwrap_or(f64::NAN);
        assert!((0.0..=1.0).contains(&v), "occupancy out of range: {line}");
    }
}
