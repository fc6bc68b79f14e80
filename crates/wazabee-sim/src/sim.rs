//! The discrete-event spectrum simulator: a channel-sharded facade.
//!
//! Every transmission is modulated to IQ by the real modems and placed on a
//! per-channel sample timeline; when a busy period closes, each listening
//! receiver demodulates the *superposed* waveform with the real streaming
//! receiver. Collisions, capture, CFO tolerance and the WazaBee
//! cross-modulation therefore emerge from the PHY arithmetic — the event
//! loop only decides *when* radios key up.
//!
//! Zigbee nodes contend with unslotted CSMA/CA (`wazabee-dot154::csma`):
//! backoff, a CCA energy measurement over the live spectrum buffer, ACK
//! wait, and `macMaxFrameRetries` retransmissions. Attackers ignore carrier
//! sense, exactly as a diverted BLE chip would.
//!
//! # Sharded execution
//!
//! The 16 IEEE 802.15.4 channels are physically independent spectra: a
//! transmission deposits energy only on its own channel, CCA integrates only
//! its own channel's cluster, and jammers trigger only on same-channel
//! keyups. [`SpectrumSim`] therefore partitions the event timeline by
//! channel — each populated channel becomes a [`crate::shard::Shard`], a
//! self-contained event engine with its own sub-queue, busy-period state and
//! nodes — and advances the shards concurrently in *conservative lookahead
//! windows* of `64 × (CCA_US + TURNAROUND_US)` simulated microseconds. No
//! event ever crosses shards, so the windows are pacing (bounded skew
//! between shards, regular log-merge points), not a correctness mechanism.
//!
//! Determinism is a hard contract, not best-effort: the committed event
//! log, [`SimReport`] and timeline JSONL are byte-identical across
//! `WAZABEE_THREADS` / [`SimConfig::threads`] values. Each shard commits
//! `(sim-time, line)` log entries; the facade concatenates shard logs in
//! shard-creation order and stable-sorts by time, so cross-channel ties
//! resolve identically at any worker count. Single-channel runs execute the
//! exact event sequence of the unsharded engine (same queue tie-breaking,
//! same RNG draws, same noise seeds keyed on global node ids).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use wazabee_dot154::csma::{CCA_US, TURNAROUND_US};
use wazabee_dot154::mac::MacFrame;
use wazabee_dot154::Dot154Channel;
use wazabee_dsp::par::{default_threads, par_map_with};
use wazabee_ids::{Alert, ChannelMonitor, MonitorConfig};
use wazabee_radio::Instant;
use wazabee_telemetry::SeriesSet;
use wazabee_zigbee::XbeeNode;

use crate::config::SimConfig;
use crate::node::{FlooderConfig, JammerConfig, NodeKind, SimNode, ZigbeeState};
use crate::shard::{splitmix64, Shard, SimEvent};

/// Sim-time-driven time-series recorder (see
/// [`SpectrumSim::enable_timeline`]).
///
/// Owned by the simulation instance — *not* the global telemetry registry —
/// so parallel sweep cells each record their own series and the exported
/// `timeseries.jsonl` stays byte-identical across `WAZABEE_THREADS` and IQ
/// chunk sizes. Timestamps are simulated microseconds; sampling reads only
/// simulation state, never the wall clock.
#[derive(Debug)]
struct Timeline {
    interval_us: u64,
    /// Sim instant of the next sample boundary.
    next_tick: Instant,
    series: SeriesSet,
    /// Cumulative per-node airtime at the previous tick, for occupancy
    /// deltas. Resized defensively every tick so nodes added *after*
    /// `enable_timeline` are picked up instead of panicking the sampler.
    prev_airtime_us: Vec<u64>,
}

/// Aggregate MAC/PHY counters over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Busy periods in which two or more frame transmissions overlapped.
    pub collisions: u64,
    /// Busy CCA measurements.
    pub cca_busy: u64,
    /// Frame retransmissions (missed ACK or channel-access failure).
    pub retries: u64,
    /// CSMA attempts that died with `CHANNEL_ACCESS_FAILURE`.
    pub csma_failures: u64,
    /// Frames abandoned after exhausting `macMaxFrameRetries`.
    pub frames_abandoned: u64,
    /// Forged acknowledgements keyed by ACK-spoofer nodes.
    pub acks_spoofed: u64,
    /// Jamming bursts keyed by reactive jammers.
    pub jam_bursts: u64,
    /// MAC frames recovered by receivers from superposed spectrum.
    pub frames_decoded: u64,
    /// Committed decode attempts that failed (sync hit but no frame).
    pub decode_failures: u64,
}

impl SimStats {
    /// Adds another shard's counters into this total.
    pub(crate) fn accumulate(&mut self, o: &SimStats) {
        self.collisions += o.collisions;
        self.cca_busy += o.cca_busy;
        self.retries += o.retries;
        self.csma_failures += o.csma_failures;
        self.frames_abandoned += o.frames_abandoned;
        self.acks_spoofed += o.acks_spoofed;
        self.jam_bursts += o.jam_bursts;
        self.frames_decoded += o.frames_decoded;
        self.decode_failures += o.decode_failures;
    }
}

/// Summary of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Sensor readings handed to the MAC for transmission.
    pub readings_sent: u64,
    /// Of those, readings that reached a coordinator's display.
    pub readings_delivered: u64,
    /// `readings_delivered / readings_sent` (1.0 when nothing was sent).
    pub delivery_ratio: f64,
    /// MAC/PHY counters.
    pub stats: SimStats,
    /// Per-node keyed-up time, in µs (index-aligned with node handles).
    pub node_airtime_us: Vec<u64>,
    /// Simulated time elapsed, in µs.
    pub sim_time_us: u64,
}

/// The PHY-in-the-loop shared-spectrum simulator.
///
/// # Examples
///
/// ```
/// use wazabee_dot154::Dot154Channel;
/// use wazabee_radio::Instant;
/// use wazabee_sim::{SimConfig, SpectrumSim};
/// use wazabee_zigbee::{NodeConfig, NodeRole, XbeeNode};
///
/// let ch = Dot154Channel::new(14).unwrap();
/// let mut sim = SpectrumSim::new(SimConfig::ideal());
/// sim.add_zigbee(XbeeNode::new(
///     NodeConfig { pan: 0x1234, short_addr: 0x0042, channel: ch },
///     NodeRole::Coordinator,
/// ));
/// sim.add_zigbee(XbeeNode::new(
///     NodeConfig { pan: 0x1234, short_addr: 0x0063, channel: ch },
///     NodeRole::Sensor { interval_ms: 50 },
/// ));
/// sim.run_until(Instant(0).plus_ms(120));
/// assert_eq!(sim.report().readings_delivered, 2);
/// ```
#[derive(Debug)]
pub struct SpectrumSim {
    cfg: SimConfig,
    now: Instant,
    /// Conservative lookahead window, in simulated µs: shards advance at
    /// most this far before resynchronising with the facade.
    horizon_us: u64,
    /// One engine per populated channel, in creation order (the log-merge
    /// tie-break order).
    shards: Vec<Shard>,
    /// Channel index (channel − 11) → shard index.
    by_channel: [Option<usize>; 16],
    /// Global node handle → `(shard index, shard-local index)`.
    node_map: Vec<(usize, usize)>,
    /// The merged committed event log.
    log: Vec<String>,
    /// After this instant application timers stop generating traffic.
    traffic_deadline: Option<Instant>,
    /// Instance-owned sim-time series recorder, when enabled.
    timeline: Option<Timeline>,
}

impl SpectrumSim {
    /// Creates an empty simulation.
    pub fn new(cfg: SimConfig) -> Self {
        SpectrumSim {
            cfg,
            now: Instant(0),
            horizon_us: 64 * (CCA_US + TURNAROUND_US),
            shards: Vec::new(),
            by_channel: [None; 16],
            node_map: Vec::new(),
            log: Vec::new(),
            traffic_deadline: None,
            timeline: None,
        }
    }

    fn node_rng(&self, idx: usize) -> ChaCha8Rng {
        let mixed =
            splitmix64(self.cfg.seed ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ChaCha8Rng::seed_from_u64(mixed)
    }

    /// The shard owning `channel`, created on first use.
    fn shard_for(&mut self, channel: Dot154Channel) -> usize {
        let ci = (channel.number() - 11) as usize;
        if let Some(s) = self.by_channel[ci] {
            return s;
        }
        let mut shard = Shard::new(self.cfg, channel.number());
        shard.now = self.now;
        shard.traffic_deadline = self.traffic_deadline;
        self.shards.push(shard);
        let s = self.shards.len() - 1;
        self.by_channel[ci] = Some(s);
        s
    }

    /// Registers a node, returning its global handle. The node lives in its
    /// channel's shard; logs, labels and seeds all use the global id, so
    /// artifacts are independent of the channel→shard mapping.
    fn push_node(&mut self, kind: NodeKind, channel: Dot154Channel, gain: f64) -> usize {
        let gid = self.node_map.len();
        let rng = self.node_rng(gid);
        let s = self.shard_for(channel);
        let local = self.shards[s].push_node(SimNode {
            id: gid,
            kind,
            channel,
            gain,
            rng,
            airtime_us: 0,
            tx_count: 0,
            tx_cell: None,
            rx_frames_cell: None,
        });
        self.node_map.push((s, local));
        gid
    }

    /// Adds a legitimate Zigbee node at unit path gain.
    pub fn add_zigbee(&mut self, app: XbeeNode) -> usize {
        self.add_zigbee_with_gain(app, 1.0)
    }

    /// Adds a legitimate Zigbee node whose transmissions reach every
    /// receiver scaled by `gain` — the knob that creates capture margins.
    pub fn add_zigbee_with_gain(&mut self, app: XbeeNode, gain: f64) -> usize {
        let channel = app.config.channel;
        let interval = app.timer_interval_ms();
        let gid = self.push_node(
            NodeKind::Zigbee(Box::new(ZigbeeState::new(app))),
            channel,
            gain,
        );
        if let Some(ms) = interval {
            let (s, local) = self.node_map[gid];
            let when = self.now.plus_ms(ms);
            self.shards[s]
                .queue
                .schedule(when, SimEvent::AppTimer { node: local });
        }
        gid
    }

    /// Adds a WazaBee injector: a diverted BLE chip that keys scheduled
    /// 802.15.4 frames with no carrier sense. Schedule frames with
    /// [`SpectrumSim::inject_at`].
    pub fn add_wazabee_injector(&mut self, channel: Dot154Channel, gain: f64) -> usize {
        self.push_node(NodeKind::WazaBee, channel, gain)
    }

    /// Schedules a frame injection from a WazaBee node.
    pub fn inject_at(&mut self, node: usize, when: Instant, frame: MacFrame) {
        let (s, local) = self.node_map[node];
        self.shards[s]
            .queue
            .schedule(when, SimEvent::Inject { node: local, frame });
    }

    /// Adds a reactive jammer.
    pub fn add_reactive_jammer(&mut self, channel: Dot154Channel, config: JammerConfig) -> usize {
        self.push_node(
            NodeKind::Jammer {
                config,
                jamming: false,
            },
            channel,
            1.0,
        )
    }

    /// Adds an ACK spoofer.
    pub fn add_ack_spoofer(&mut self, channel: Dot154Channel, gain: f64) -> usize {
        self.push_node(
            NodeKind::Spoofer {
                immediate: Default::default(),
            },
            channel,
            gain,
        )
    }

    /// Adds an energy-depletion flooder.
    pub fn add_flooder(&mut self, channel: Dot154Channel, config: FlooderConfig) -> usize {
        let gid = self.push_node(NodeKind::Flooder { config, seq: 0 }, channel, 1.0);
        let (s, local) = self.node_map[gid];
        let when = self.now.plus_us(config.interval_us);
        self.shards[s]
            .queue
            .schedule(when, SimEvent::AppTimer { node: local });
        gid
    }

    /// Adds a passive IDS monitor on a channel.
    pub fn add_ids_monitor(&mut self, channel: Dot154Channel, config: MonitorConfig) -> usize {
        let monitor = ChannelMonitor::new(channel.center_mhz(), self.cfg.samples_per_chip, config);
        self.push_node(
            NodeKind::Ids {
                monitor: Box::new(monitor),
                alerts: Vec::new(),
            },
            channel,
            1.0,
        )
    }

    /// Stops application-layer traffic generation (sensor readings, flood
    /// frames) after `when`: timers that fire later neither produce frames
    /// nor reschedule. Running past the deadline then *drains* in-flight
    /// handshakes, so a measured delivery ratio is not skewed by readings
    /// handed to the MAC in the run's final microseconds.
    pub fn set_traffic_deadline(&mut self, when: Instant) {
        self.traffic_deadline = Some(when);
        for s in &mut self.shards {
            s.traffic_deadline = Some(when);
        }
    }

    /// Enables the sim-time timeline: every `interval_us` of *simulated*
    /// time the run samples per-node airtime occupancy and transmission
    /// totals plus global delivery/contention counters into an
    /// instance-owned time series (timestamps in sim µs).
    ///
    /// Samples are taken at the tick boundary after every event at or
    /// before the tick instant has been applied — a shard-order-free
    /// definition, so the recorded series and the
    /// [`SpectrumSim::timeline_jsonl`] artifact are byte-identical across
    /// `WAZABEE_THREADS` worker counts and IQ chunk sizes, the same
    /// contract as the committed event log. Attack onset is directly
    /// visible: an injector or flooder node's `node.tx_total` series steps
    /// from zero at its first keyup.
    ///
    /// Call before `run_until`; the first sample lands one interval in.
    /// Nodes may be added after enabling — the sampler resizes its per-node
    /// state on every tick.
    pub fn enable_timeline(&mut self, interval_us: u64) {
        let interval_us = interval_us.max(1);
        self.timeline = Some(Timeline {
            interval_us,
            next_tick: self.now.plus_us(interval_us),
            // Capacity scales with wherever run_until lands; generous bound
            // so long runs keep every sample rather than silently evicting.
            series: SeriesSet::new(1 << 20),
            prev_airtime_us: Vec::new(),
        });
    }

    /// The recorded timeline series (empty set view when never enabled).
    pub fn timeline(&self) -> Option<&SeriesSet> {
        self.timeline.as_ref().map(|t| &t.series)
    }

    /// Renders the recorded timeline as JSON Lines, one
    /// `{"type":"timeseries",…}` record per sample (empty string when the
    /// timeline was never enabled).
    pub fn timeline_jsonl(&self) -> String {
        self.timeline
            .as_ref()
            .map(|t| t.series.to_jsonl())
            .unwrap_or_default()
    }

    /// Writes [`SpectrumSim::timeline_jsonl`] to `path`, truncating it.
    pub fn write_timeline_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.timeline_jsonl())
    }

    /// Runs the event loop until `deadline` (inclusive).
    ///
    /// Shards advance concurrently when [`SimConfig::threads`] (or the
    /// `WAZABEE_THREADS` default) exceeds 1 and more than one channel is
    /// populated; committed artifacts are identical either way.
    pub fn run_until(&mut self, deadline: Instant) {
        loop {
            let tick = self
                .timeline
                .as_ref()
                .map(|t| t.next_tick)
                .filter(|&t| t > self.now && t <= deadline);
            let target = tick.unwrap_or(deadline);
            self.advance_shards(target);
            self.merge_logs();
            self.now = self.now.max(target);
            match tick {
                Some(t) => self.sample_timeline(t),
                None => break,
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Advances every shard to `target`, in conservative `horizon_us`
    /// windows when running parallel. Decode-level parallelism (fanning a
    /// cluster's receivers over workers) is granted only to a lone shard;
    /// with several shards the thread budget is spent across shards
    /// instead, never nested.
    fn advance_shards(&mut self, target: Instant) {
        if target <= self.now || self.shards.is_empty() {
            return;
        }
        let threads = self.cfg.threads.unwrap_or_else(default_threads).max(1);
        let decode_threads = if self.shards.len() == 1 { threads } else { 1 };
        for s in &mut self.shards {
            s.decode_threads = decode_threads;
        }
        if threads <= 1 || self.shards.len() <= 1 {
            let _s = wazabee_telemetry::scope!("sim.shard.advance");
            for s in &mut self.shards {
                s.advance_until(target);
            }
            return;
        }
        let mut t = self.now;
        while t < target {
            t = Instant(t.0.saturating_add(self.horizon_us)).min(target);
            let _s = wazabee_telemetry::scope!("sim.shard.advance");
            let shards = std::mem::take(&mut self.shards);
            self.shards = par_map_with(Some(threads), shards, |mut s| {
                s.advance_until(t);
                s
            });
        }
    }

    /// Drains every shard's committed log entries into the merged log:
    /// concatenate in shard-creation order, stable-sort by sim time. Ties
    /// therefore resolve by (time, shard, commit order) — a total order
    /// independent of worker count.
    fn merge_logs(&mut self) {
        match self.shards.len() {
            0 => {}
            1 => self
                .log
                .extend(self.shards[0].take_log().into_iter().map(|(_, l)| l)),
            _ => {
                let _s = wazabee_telemetry::scope!("sim.shard.merge");
                let mut merged: Vec<(u64, String)> = Vec::new();
                for s in &mut self.shards {
                    merged.extend(s.take_log());
                }
                merged.sort_by_key(|e| e.0);
                self.log.extend(merged.into_iter().map(|(_, l)| l));
            }
        }
    }

    /// Samples every timeline series at tick instant `at` and arms the next
    /// tick. Reads simulation state only — no RNG draws, no event log
    /// writes — so enabling the timeline cannot perturb the run.
    fn sample_timeline(&mut self, at: Instant) {
        let Some(mut tl) = self.timeline.take() else {
            return;
        };
        let _s = wazabee_telemetry::scope!("sim.shard.sample");
        let t = at.0;
        tl.prev_airtime_us.resize(self.node_map.len(), 0);
        for (gid, &(s, l)) in self.node_map.iter().enumerate() {
            let node = &self.shards[s].nodes[l];
            let label = gid.to_string();
            let labels = [("node", label.as_str())];
            let delta = node.airtime_us.saturating_sub(tl.prev_airtime_us[gid]);
            tl.prev_airtime_us[gid] = node.airtime_us;
            tl.series.record(
                "node.airtime_occupancy",
                &labels,
                t,
                delta as f64 / tl.interval_us as f64,
            );
            tl.series
                .record("node.tx_total", &labels, t, node.tx_count as f64);
        }
        let (sent, delivered) = self.delivery_totals();
        tl.series.record("sim.readings_sent", &[], t, sent as f64);
        tl.series
            .record("sim.readings_delivered", &[], t, delivered as f64);
        tl.series.record(
            "sim.delivery_ratio",
            &[],
            t,
            if sent == 0 {
                1.0
            } else {
                delivered as f64 / sent as f64
            },
        );
        let stats = self.stats();
        tl.series
            .record("sim.collisions", &[], t, stats.collisions as f64);
        tl.series
            .record("sim.cca_busy", &[], t, stats.cca_busy as f64);
        tl.series
            .record("sim.retries", &[], t, stats.retries as f64);
        tl.series
            .record("sim.jam_bursts", &[], t, stats.jam_bursts as f64);
        tl.next_tick = at.plus_us(tl.interval_us);
        self.timeline = Some(tl);
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The run's aggregate counters so far, summed across shards.
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for s in &self.shards {
            total.accumulate(&s.stats);
        }
        total
    }

    /// The committed event log: one deterministic line per MAC/PHY event,
    /// byte-identical across thread counts and IQ chunk sizes.
    pub fn event_log(&self) -> &[String] {
        &self.log
    }

    /// All nodes in global-handle order (index-aligned with the handles
    /// `add_*` returned).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &SimNode> + '_ {
        self.node_map
            .iter()
            .map(move |&(s, l)| &self.shards[s].nodes[l])
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.node_map.len()
    }

    /// A node by handle.
    pub fn node(&self, idx: usize) -> &SimNode {
        let (s, l) = self.node_map[idx];
        &self.shards[s].nodes[l]
    }

    /// The XBee model behind a Zigbee node handle.
    pub fn zigbee(&self, idx: usize) -> Option<&XbeeNode> {
        match &self.node(idx).kind {
            NodeKind::Zigbee(st) => Some(&st.app),
            _ => None,
        }
    }

    /// Alerts an IDS monitor node has raised, stamped with cluster close
    /// time. Empty for non-IDS nodes.
    pub fn alerts(&self, idx: usize) -> &[(Instant, Alert)] {
        match &self.node(idx).kind {
            NodeKind::Ids { alerts, .. } => alerts,
            _ => &[],
        }
    }

    /// `(sent, delivered)` reading totals summed across shards. Frames
    /// cannot cross channels, so per-shard delivery accounting is exact.
    fn delivery_totals(&self) -> (u64, u64) {
        let mut sent = 0;
        let mut delivered = 0;
        for s in &self.shards {
            let (se, de) = s.delivery();
            sent += se;
            delivered += de;
        }
        (sent, delivered)
    }

    /// Summarises the run.
    pub fn report(&self) -> SimReport {
        let (sent, delivered) = self.delivery_totals();
        SimReport {
            readings_sent: sent,
            readings_delivered: delivered,
            delivery_ratio: if sent == 0 {
                1.0
            } else {
                delivered as f64 / sent as f64
            },
            stats: self.stats(),
            node_airtime_us: self
                .node_map
                .iter()
                .map(|&(s, l)| self.shards[s].nodes[l].airtime_us)
                .collect(),
            sim_time_us: self.now.0,
        }
    }
}
