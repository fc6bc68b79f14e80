//! The node bestiary: legitimate Zigbee devices, the four attacker types of
//! the threat model, and the IDS monitor.

use std::collections::VecDeque;

use rand_chacha::ChaCha8Rng;
use wazabee_dot154::csma::CsmaBackoff;
use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_ids::{Alert, ChannelMonitor};
use wazabee_radio::Instant;
use wazabee_telemetry::CounterHandle;
use wazabee_zigbee::XbeeNode;

/// Configuration of a reactive jammer: it listens for the start of a frame
/// and keys up a noise burst shortly after, trampling the tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammerConfig {
    /// Detection-to-keyup latency, in µs.
    pub reaction_us: u64,
    /// Burst duration, in µs.
    pub burst_us: u64,
    /// Burst power (linear; legitimate nodes transmit at 1.0).
    pub power: f64,
    /// Probability the jammer reacts to any given frame start.
    pub trigger_probability: f64,
}

impl Default for JammerConfig {
    fn default() -> Self {
        JammerConfig {
            reaction_us: 64,
            burst_us: 1_200,
            power: 4.0,
            trigger_probability: 1.0,
        }
    }
}

/// Configuration of an energy-depletion flooder: it hammers a victim with
/// acknowledged unicast frames so the victim burns airtime (and battery)
/// transmitting ACKs — the Ghost-in-the-Wireless depletion pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlooderConfig {
    /// PAN the flood frames claim.
    pub pan: u16,
    /// Forged source short address.
    pub src: u16,
    /// Victim short address.
    pub victim: u16,
    /// Inter-frame period, in µs.
    pub interval_us: u64,
}

/// MAC/application state of a legitimate Zigbee node.
#[derive(Debug)]
pub(crate) struct ZigbeeState {
    /// The XBee behaviour model (timers, join state, readings).
    pub app: XbeeNode,
    /// Frames awaiting channel access, head first.
    pub pending: VecDeque<MacFrame>,
    /// Immediate frames (ACKs) that bypass CSMA, sent after turnaround.
    pub immediate: VecDeque<MacFrame>,
    /// The in-flight CSMA attempt for the head of `pending`.
    pub csma: Option<CsmaBackoff>,
    /// Sequence number whose acknowledgement the node is waiting for.
    pub awaiting_ack: Option<u8>,
    /// Retransmissions consumed by the head frame.
    pub retries: u8,
    /// Whether the node's radio is currently keyed up.
    pub transmitting: bool,
}

impl ZigbeeState {
    pub(crate) fn new(app: XbeeNode) -> Self {
        ZigbeeState {
            app,
            pending: VecDeque::new(),
            immediate: VecDeque::new(),
            csma: None,
            awaiting_ack: None,
            retries: 0,
            transmitting: false,
        }
    }
}

/// What a node *is* — the behaviour the event loop drives.
#[derive(Debug)]
pub(crate) enum NodeKind {
    /// A legitimate 802.15.4 device running the XBee stack over CSMA/CA.
    Zigbee(Box<ZigbeeState>),
    /// A WazaBee injector: a diverted BLE chip keying 802.15.4 frames at
    /// scheduled instants, ignoring carrier sense entirely.
    WazaBee,
    /// A reactive jammer.
    Jammer {
        /// Jammer parameters.
        config: JammerConfig,
        /// Whether a burst is pending or on the air (suppresses re-trigger).
        jamming: bool,
    },
    /// An ACK spoofer: decodes acknowledged unicast frames off the air and
    /// forges the ACK before the honest receiver's turnaround elapses.
    Spoofer {
        /// Forged ACKs awaiting their keyup instant.
        immediate: VecDeque<MacFrame>,
    },
    /// An energy-depletion flooder.
    Flooder {
        /// Flood parameters.
        config: FlooderConfig,
        /// Next forged sequence number.
        seq: u8,
    },
    /// A passive IDS monitor wrapping `wazabee-ids`.
    Ids {
        /// The channel monitor observing every cluster.
        monitor: Box<ChannelMonitor>,
        /// Alerts raised so far, stamped with cluster close time.
        alerts: Vec<(Instant, Alert)>,
    },
}

/// A node's behaviour class, without its state: one byte in every keyup
/// log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeClass {
    /// A legitimate Zigbee device.
    Zigbee,
    /// A WazaBee injector.
    WazaBee,
    /// A reactive jammer.
    Jammer,
    /// An ACK spoofer.
    Spoofer,
    /// An energy-depletion flooder.
    Flooder,
    /// A passive IDS monitor.
    Ids,
}

impl NodeClass {
    /// The class name used in log lines and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            NodeClass::Zigbee => "zigbee",
            NodeClass::WazaBee => "wazabee",
            NodeClass::Jammer => "jammer",
            NodeClass::Spoofer => "spoofer",
            NodeClass::Flooder => "flooder",
            NodeClass::Ids => "ids",
        }
    }
}

impl NodeKind {
    pub(crate) fn class(&self) -> NodeClass {
        match self {
            NodeKind::Zigbee(_) => NodeClass::Zigbee,
            NodeKind::WazaBee => NodeClass::WazaBee,
            NodeKind::Jammer { .. } => NodeClass::Jammer,
            NodeKind::Spoofer { .. } => NodeClass::Spoofer,
            NodeKind::Flooder { .. } => NodeClass::Flooder,
            NodeKind::Ids { .. } => NodeClass::Ids,
        }
    }
}

/// One simulated radio node.
#[derive(Debug)]
pub struct SimNode {
    /// Global handle, as returned by the `add_*` call that created the node.
    /// Nodes live inside their channel's shard under a shard-local index;
    /// every log line, metric label and noise seed uses this global id, so
    /// artifacts are independent of how nodes map onto shards.
    pub(crate) id: usize,
    pub(crate) kind: NodeKind,
    pub(crate) channel: Dot154Channel,
    pub(crate) gain: f64,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) airtime_us: u64,
    pub(crate) tx_count: u64,
    /// The node's `sim.tx` and `sim.rx.frames` counter cells, resolved on
    /// its first keyup and first delivery: hot paths then add without
    /// formatting labels or taking the metric's lock, and a node that never
    /// transmits or receives still gets no cell.
    pub(crate) tx_cell: Option<CounterHandle>,
    pub(crate) rx_frames_cell: Option<CounterHandle>,
}

impl SimNode {
    /// The node's global handle (the index its `add_*` call returned).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's behaviour class: `"zigbee"`, `"wazabee"`, `"jammer"`,
    /// `"spoofer"`, `"flooder"` or `"ids"`.
    pub fn kind_name(&self) -> &'static str {
        self.kind.class().name()
    }

    /// The channel the node operates on.
    pub fn channel(&self) -> Dot154Channel {
        self.channel
    }

    /// Path gain of this node's transmissions as heard by every receiver.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Total time this node has spent keyed up, in µs — the energy figure
    /// the depletion attack inflates on its victim.
    pub fn airtime_us(&self) -> u64 {
        self.airtime_us
    }

    /// Number of transmissions this node has keyed.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }
}
