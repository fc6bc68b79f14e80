//! A deterministic event-driven Zigbee network simulator.
//!
//! Nodes exchange PSDUs logically per channel; every transmission is also
//! appended to an air log so an external attacker (driven through the IQ-level
//! modems of the other crates) can sniff and inject. This mirrors the paper's
//! testbed (§VI-A): a sensor reporting a counter every two seconds to a
//! coordinator that acknowledges and displays it.
//!
//! Delivery is byte-level: every PSDU reaches every listening node verbatim.
//! Waveform-level delivery (modulation, superposition, per-listener
//! demodulation) is `wazabee-sim`'s job.

use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_radio::{EventQueue, Instant};

use crate::node::{NodeConfig, NodeRole, XbeeNode};

/// One frame observed on the simulated air.
#[derive(Debug, Clone, PartialEq)]
pub struct AirRecord {
    /// When the frame was transmitted.
    pub time: Instant,
    /// The channel it was transmitted on.
    pub channel: Dot154Channel,
    /// The PSDU (MAC frame + FCS).
    pub psdu: Vec<u8>,
    /// Index of the transmitting node, or `None` for external injections.
    pub source: Option<usize>,
    /// Set when the PSDU failed `MacFrame::from_psdu` at delivery time and
    /// every radio dropped it — distinguishes "sent but malformed" from
    /// "never sent" in attack experiments.
    pub dropped_bad_psdu: bool,
}

#[derive(Debug, Clone)]
enum Event {
    Timer {
        node: usize,
    },
    Deliver {
        channel: Dot154Channel,
        psdu: Vec<u8>,
        skip: Option<usize>,
        /// Index of this frame's entry in the air log, for drop marking.
        log_index: usize,
    },
}

/// Propagation plus processing delay applied to deliveries, in microseconds.
const DELIVERY_DELAY_US: u64 = 192; // one 802.15.4 turnaround time

/// The network simulator.
///
/// # Examples
///
/// ```
/// use wazabee_radio::Instant;
/// use wazabee_zigbee::ZigbeeNetwork;
///
/// let mut net = ZigbeeNetwork::paper_testbed();
/// net.run_until(Instant(0).plus_ms(10_500));
/// // Five sensor readings in the first ten seconds, all delivered.
/// assert_eq!(net.coordinator().readings().len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ZigbeeNetwork {
    nodes: Vec<XbeeNode>,
    queue: EventQueue<Event>,
    now: Instant,
    log: Vec<AirRecord>,
    bad_psdu_drops: u64,
}

impl ZigbeeNetwork {
    /// Creates an empty network at time zero.
    pub fn new() -> Self {
        ZigbeeNetwork {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            now: Instant(0),
            log: Vec::new(),
            bad_psdu_drops: 0,
        }
    }

    /// Frames dropped at delivery because the PSDU failed MAC parsing.
    pub fn bad_psdu_drops(&self) -> u64 {
        self.bad_psdu_drops
    }

    /// The paper's testbed: PAN 0x1234 on channel 14, coordinator 0x0042,
    /// sensor 0x0063 reporting every 2 seconds.
    pub fn paper_testbed() -> Self {
        let mut net = ZigbeeNetwork::new();
        let ch14 = Dot154Channel::new(14).expect("channel 14");
        net.add_node(XbeeNode::new(
            NodeConfig {
                pan: 0x1234,
                short_addr: 0x0042,
                channel: ch14,
            },
            NodeRole::Coordinator,
        ));
        net.add_node(XbeeNode::new(
            NodeConfig {
                pan: 0x1234,
                short_addr: 0x0063,
                channel: ch14,
            },
            NodeRole::Sensor { interval_ms: 2000 },
        ));
        net
    }

    /// Adds a node, scheduling its first timer if it has one; returns its
    /// index.
    pub fn add_node(&mut self, node: XbeeNode) -> usize {
        let idx = self.nodes.len();
        if let Some(ms) = node.timer_interval_ms() {
            self.queue
                .schedule(self.now.plus_ms(ms), Event::Timer { node: idx });
        }
        self.nodes.push(node);
        idx
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Read access to a node.
    pub fn node(&self, idx: usize) -> &XbeeNode {
        &self.nodes[idx]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The coordinator node (first node with that role).
    ///
    /// # Panics
    ///
    /// Panics if the network has no coordinator.
    pub fn coordinator(&self) -> &XbeeNode {
        self.nodes
            .iter()
            .find(|n| n.role() == NodeRole::Coordinator)
            .expect("network has no coordinator")
    }

    /// The complete air log.
    pub fn log(&self) -> &[AirRecord] {
        &self.log
    }

    /// Air-log entries from a previous cursor position (for sniffers).
    pub fn log_since(&self, cursor: usize) -> &[AirRecord] {
        &self.log[cursor.min(self.log.len())..]
    }

    /// Injects a PSDU from outside the simulation (the attacker's path).
    /// The frame is logged and delivered to all nodes listening on
    /// `channel`.
    pub fn inject(&mut self, channel: Dot154Channel, psdu: Vec<u8>) {
        let log_index = self.log.len();
        self.log.push(AirRecord {
            time: self.now,
            channel,
            psdu: psdu.clone(),
            source: None,
            dropped_bad_psdu: false,
        });
        self.queue.schedule(
            self.now.plus_us(DELIVERY_DELAY_US),
            Event::Deliver {
                channel,
                psdu,
                skip: None,
                log_index,
            },
        );
    }

    fn transmit_from(&mut self, node_idx: usize, frame: &MacFrame) {
        let channel = self.nodes[node_idx].config.channel;
        let psdu = frame.to_psdu();
        let log_index = self.log.len();
        self.log.push(AirRecord {
            time: self.now,
            channel,
            psdu: psdu.clone(),
            source: Some(node_idx),
            dropped_bad_psdu: false,
        });
        self.queue.schedule(
            self.now.plus_us(DELIVERY_DELAY_US),
            Event::Deliver {
                channel,
                psdu,
                skip: Some(node_idx),
                log_index,
            },
        );
    }

    /// Runs the simulation until `deadline` (inclusive of events at it).
    /// A deadline in the past is a no-op: simulated time never rewinds.
    pub fn run_until(&mut self, deadline: Instant) {
        if deadline <= self.now {
            return;
        }
        while let Some(when) = self.queue.peek_time() {
            if when > deadline {
                break;
            }
            let (when, event) = self.queue.pop().expect("peeked event");
            self.now = when;
            match event {
                Event::Timer { node } => {
                    let frames = self.nodes[node].on_timer(self.now);
                    for f in frames {
                        self.transmit_from(node, &f);
                    }
                    if let Some(ms) = self.nodes[node].timer_interval_ms() {
                        self.queue
                            .schedule(self.now.plus_ms(ms), Event::Timer { node });
                    }
                }
                Event::Deliver {
                    channel,
                    psdu,
                    skip,
                    log_index,
                } => {
                    let Some(frame) = MacFrame::from_psdu(&psdu) else {
                        // Bad FCS: dropped by every radio — but the attempt
                        // stays visible to forensics.
                        wazabee_telemetry::counter!("zigbee.net.drop.bad_psdu").inc();
                        self.bad_psdu_drops += 1;
                        self.log[log_index].dropped_bad_psdu = true;
                        continue;
                    };
                    for idx in 0..self.nodes.len() {
                        if Some(idx) == skip || self.nodes[idx].config.channel != channel {
                            continue;
                        }
                        let replies = self.nodes[idx].on_receive(&frame, self.now);
                        for r in replies {
                            self.transmit_from(idx, &r);
                        }
                    }
                }
            }
        }
        self.now = deadline;
    }
}

impl Default for ZigbeeNetwork {
    fn default() -> Self {
        ZigbeeNetwork::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xbee::XbeePayload;
    use wazabee_dot154::mac::FrameType;

    #[test]
    fn testbed_sensor_reports_every_two_seconds() {
        let mut net = ZigbeeNetwork::paper_testbed();
        net.run_until(Instant(0).plus_ms(21_000));
        let readings = net.coordinator().readings();
        assert_eq!(readings.len(), 10);
        // Counter increments monotonically.
        for (k, r) in readings.iter().enumerate() {
            assert_eq!(r.value, (k + 1) as u16);
            assert_eq!(r.reported_by, 0x0063);
        }
    }

    #[test]
    fn every_data_frame_is_acknowledged() {
        let mut net = ZigbeeNetwork::paper_testbed();
        // 10.5 s: five sensor periods plus the delivery delay of the last ack.
        net.run_until(Instant(0).plus_ms(10_500));
        let data = net
            .log()
            .iter()
            .filter(|r| MacFrame::from_psdu(&r.psdu).map(|f| f.frame_type) == Some(FrameType::Data))
            .count();
        let acks = net
            .log()
            .iter()
            .filter(|r| MacFrame::from_psdu(&r.psdu).map(|f| f.frame_type) == Some(FrameType::Ack))
            .count();
        assert_eq!(data, 5);
        assert_eq!(acks, 5);
    }

    #[test]
    fn injected_beacon_request_draws_a_beacon() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let ch14 = Dot154Channel::new(14).unwrap();
        net.inject(ch14, MacFrame::beacon_request(1).to_psdu());
        net.run_until(Instant(0).plus_ms(100));
        let beacon = net.log().iter().find(|r| {
            MacFrame::from_psdu(&r.psdu).map(|f| f.frame_type) == Some(FrameType::Beacon)
        });
        let beacon = beacon.expect("coordinator must respond with a beacon");
        let f = MacFrame::from_psdu(&beacon.psdu).unwrap();
        assert_eq!(f.src_pan, Some(0x1234));
    }

    #[test]
    fn injection_on_other_channel_is_unheard() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let ch20 = Dot154Channel::new(20).unwrap();
        net.inject(ch20, MacFrame::beacon_request(1).to_psdu());
        net.run_until(Instant(0).plus_ms(100));
        let beacons = net
            .log()
            .iter()
            .filter(|r| {
                MacFrame::from_psdu(&r.psdu).map(|f| f.frame_type) == Some(FrameType::Beacon)
            })
            .count();
        assert_eq!(beacons, 0);
    }

    #[test]
    fn corrupted_injection_dropped() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let ch14 = Dot154Channel::new(14).unwrap();
        let mut psdu = MacFrame::beacon_request(1).to_psdu();
        psdu[0] ^= 0xFF; // break the FCS
        net.inject(ch14, psdu);
        net.run_until(Instant(0).plus_ms(100));
        // Only the injection itself is on the log; no reply.
        assert_eq!(net.log().len(), 1);
        // The drop is counted and recorded on the air-log entry, so attack
        // experiments can tell "sent but malformed" from "never sent".
        assert_eq!(net.bad_psdu_drops(), 1);
        assert!(net.log()[0].dropped_bad_psdu);
    }

    #[test]
    fn clean_frames_are_not_marked_dropped() {
        let mut net = ZigbeeNetwork::paper_testbed();
        net.run_until(Instant(0).plus_ms(4_500));
        assert_eq!(net.bad_psdu_drops(), 0);
        assert!(net.log().iter().all(|r| !r.dropped_bad_psdu));
    }

    #[test]
    fn injected_spoofed_reading_lands_on_display() {
        // The essence of Scenario B's final step.
        let mut net = ZigbeeNetwork::paper_testbed();
        let ch14 = Dot154Channel::new(14).unwrap();
        let fake = MacFrame::data(
            0x1234,
            0x0063,
            0x0042,
            77,
            XbeePayload::reading(9999).to_bytes(),
        );
        net.inject(ch14, fake.to_psdu());
        net.run_until(Instant(0).plus_ms(100));
        let readings = net.coordinator().readings();
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].value, 9999);
    }

    #[test]
    fn log_since_cursor() {
        let mut net = ZigbeeNetwork::paper_testbed();
        net.run_until(Instant(0).plus_ms(4_100));
        let cursor = net.log().len();
        assert!(cursor > 0);
        net.run_until(Instant(0).plus_ms(6_100));
        assert!(!net.log_since(cursor).is_empty());
        assert!(net.log_since(9999).is_empty());
    }

    #[test]
    fn time_advances_to_deadline() {
        let mut net = ZigbeeNetwork::new();
        net.run_until(Instant(12345));
        assert_eq!(net.now(), Instant(12345));
    }
}

#[cfg(test)]
mod association_network_tests {
    use super::*;
    use crate::node::JoinState;

    #[test]
    fn sensor_joins_over_the_simulated_network() {
        let mut net = ZigbeeNetwork::new();
        let ch14 = Dot154Channel::new(14).unwrap();
        net.add_node(XbeeNode::new(
            NodeConfig {
                pan: 0x1234,
                short_addr: 0x0042,
                channel: ch14,
            },
            NodeRole::Coordinator,
        ));
        let sensor = net.add_node(XbeeNode::new_unjoined_sensor(ch14, 2000));
        assert_eq!(net.node(sensor).join_state(), JoinState::Scanning);
        // First timer fires at 2 s: probe → beacon → request → response.
        net.run_until(Instant(0).plus_ms(2_500));
        assert!(
            net.node(sensor).is_joined(),
            "{:?}",
            net.node(sensor).join_state()
        );
        assert_eq!(net.node(sensor).config.pan, 0x1234);
        // After joining, readings flow: two more periods.
        net.run_until(Instant(0).plus_ms(6_500));
        assert!(
            !net.coordinator().readings().is_empty(),
            "no readings after association"
        );
        assert_eq!(
            net.coordinator().readings()[0].reported_by,
            net.node(sensor).config.short_addr
        );
    }

    #[test]
    fn join_waits_until_a_coordinator_appears() {
        let mut net = ZigbeeNetwork::new();
        let ch14 = Dot154Channel::new(14).unwrap();
        let sensor = net.add_node(XbeeNode::new_unjoined_sensor(ch14, 1000));
        net.run_until(Instant(0).plus_ms(3_500));
        assert!(!net.node(sensor).is_joined());
        // The coordinator shows up late; the next probe finds it.
        net.add_node(XbeeNode::new(
            NodeConfig {
                pan: 0xBEEF,
                short_addr: 0x0001,
                channel: ch14,
            },
            NodeRole::Coordinator,
        ));
        net.run_until(Instant(0).plus_ms(6_500));
        assert!(net.node(sensor).is_joined());
        assert_eq!(net.node(sensor).config.pan, 0xBEEF);
    }
}
