//! One channel shard: a self-contained discrete-event engine for a single
//! 802.15.4 RF channel.
//!
//! Channels are physically independent spectra — a transmission on channel 14
//! deposits no energy on channel 15, CCA integrates only its own channel's
//! cluster, and jammers trigger only on same-channel keyups — so the
//! simulator partitions its event timeline by channel. Each [`Shard`] owns
//! its nodes (under shard-local indices), its event sub-queue, its busy-period
//! cluster state and its own modem/receiver instances, and advances with *no*
//! shared mutable state; [`crate::SpectrumSim`] is the facade that fans the
//! shards out over worker threads and merges their committed artifacts back
//! deterministically.
//!
//! Everything observable — log lines, metric labels, RNG streams, per-
//! receiver noise seeds — is keyed on each node's *global* id
//! ([`SimNode::id`]), never on its shard-local index, so the artifacts are
//! independent of how nodes happen to map onto shards.

use rand::Rng;
use wazabee::{WazaBeeRx, WazaBeeTx};
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::csma::{CsmaBackoff, CsmaStep, CCA_US, TURNAROUND_US};
use wazabee_dot154::mac::{Address, FrameType, MacFrame, BROADCAST_SHORT};
use wazabee_dot154::{Dot154Modem, Ppdu};
use wazabee_dsp::iq::Iq;
use wazabee_dsp::par::par_map_with;
use wazabee_dsp::resample::fractional_delay_planar_in_place;
use wazabee_dsp::{AwgnSource, IqBuf, Nco};
use wazabee_ids::Alert;
use wazabee_radio::{EventQueue, Instant};
use wazabee_zigbee::{NodeRole, XbeePayload};

use crate::config::SimConfig;
use crate::node::{NodeKind, SimNode};
use crate::sim::SimStats;
use crate::spectrum::{
    cca_power_planar, superpose_planar, ChannelAir, Transmission, TxKind, TxOrigin,
};

/// Events a shard schedules for itself. `node` fields are shard-local
/// indices.
#[derive(Debug)]
pub(crate) enum SimEvent {
    /// A node's periodic application timer (sensor reading, flood frame).
    AppTimer { node: usize },
    /// A Zigbee node's backoff expired: perform the CCA now.
    CsmaCca { node: usize },
    /// Key up the head of a node's immediate (CSMA-bypassing) queue.
    SendImmediate { node: usize },
    /// A WazaBee injector's scheduled frame.
    Inject { node: usize, frame: MacFrame },
    /// A reactive jammer's burst keyup.
    JamBurst { node: usize },
    /// A transmission ends on the shard's channel.
    TxEnd,
    /// The ACK wait for `seq` expires.
    AckTimeout { node: usize, seq: u8 },
}

/// What one receiver got out of a closed cluster.
enum Heard {
    /// Decoded MAC frames plus the count of failed decode attempts.
    Frames(Vec<MacFrame>, u64),
    /// The raw superposed window (IDS monitors).
    Raw(Vec<Iq>),
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn alert_kind(alert: &Alert) -> &'static str {
    match alert {
        Alert::CrossProtocolFrame { .. } => "cross-protocol",
        Alert::UnexpectedDot154 { .. } => "unexpected-dot154",
        Alert::TrafficAnomaly { .. } => "traffic-anomaly",
    }
}

/// The per-channel discrete-event engine. See the module docs.
#[derive(Debug)]
pub(crate) struct Shard {
    cfg: SimConfig,
    /// 802.15.4 channel number (11–26) this shard simulates.
    channel_number: u8,
    pub(crate) now: Instant,
    pub(crate) queue: EventQueue<SimEvent>,
    pub(crate) nodes: Vec<SimNode>,
    /// Busy-period state of the shard's single channel.
    air: ChannelAir,
    /// The legitimate nodes' O-QPSK modulator.
    modem: Dot154Modem,
    /// The attackers' diverted-BLE transmitter.
    btx: WazaBeeTx<BleModem>,
    /// The shared streaming demodulation primitive (stateless per capture).
    rx: WazaBeeRx<BleModem>,
    /// Shard-local cluster counter. Single-channel runs therefore see the
    /// same cluster-id sequence (and per-receiver noise seeds) as the old
    /// unsharded engine.
    cluster_counter: u64,
    pub(crate) stats: SimStats,
    /// Committed log entries since the facade last drained them, with their
    /// timestamps for the cross-shard merge.
    log: Vec<(u64, String)>,
    /// `(source short address, value)` of every reading handed to the MAC by
    /// this shard's sensors.
    pub(crate) readings_sent: Vec<(u16, u16)>,
    /// After this instant application timers stop generating traffic.
    pub(crate) traffic_deadline: Option<Instant>,
    /// Reused CCA accumulation window (no allocation per measurement).
    cca_scratch: IqBuf,
    /// Reused per-member gain staging for CCA measurements.
    gain_scratch: Vec<f64>,
    /// Worker threads for fanning out per-receiver cluster decodes. The
    /// facade sets this to its full budget when only one shard exists and to
    /// 1 otherwise (the budget is then spent across shards).
    pub(crate) decode_threads: usize,
}

impl Shard {
    pub(crate) fn new(cfg: SimConfig, channel_number: u8) -> Self {
        let sps = cfg.samples_per_chip;
        Shard {
            cfg,
            channel_number,
            now: Instant(0),
            queue: EventQueue::new(),
            nodes: Vec::new(),
            air: ChannelAir::default(),
            modem: Dot154Modem::new(sps),
            btx: WazaBeeTx::new(BleModem::new(BlePhy::Le2M, sps))
                .expect("LE 2M runs at the required 2 Msym/s"),
            rx: WazaBeeRx::new(BleModem::new(BlePhy::Le2M, sps))
                .expect("LE 2M runs at the required 2 Msym/s"),
            cluster_counter: 0,
            stats: SimStats::default(),
            log: Vec::new(),
            readings_sent: Vec::new(),
            traffic_deadline: None,
            cca_scratch: IqBuf::new(),
            gain_scratch: Vec::new(),
            decode_threads: 1,
        }
    }

    fn spu(&self) -> u64 {
        self.cfg.samples_per_us()
    }

    /// Registers a node (already carrying its global id), returning its
    /// shard-local index.
    pub(crate) fn push_node(&mut self, node: SimNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Drains the log entries committed since the last drain.
    pub(crate) fn take_log(&mut self) -> Vec<(u64, String)> {
        std::mem::take(&mut self.log)
    }

    /// `(readings sent, readings delivered)` for this shard: a reading
    /// counts as delivered when some coordinator on the channel recorded a
    /// matching `(source, value)` pair. One linear pass over coordinator
    /// displays plus one set probe per sent reading — not the quadratic
    /// scan the unsharded engine ran.
    pub(crate) fn delivery(&self) -> (u64, u64) {
        let sent = self.readings_sent.len() as u64;
        if sent == 0 {
            return (0, 0);
        }
        let mut displayed = std::collections::HashSet::new();
        for n in &self.nodes {
            if let NodeKind::Zigbee(st) = &n.kind {
                if st.app.role() == NodeRole::Coordinator {
                    for r in st.app.readings() {
                        displayed.insert((r.reported_by, r.value));
                    }
                }
            }
        }
        let delivered = self
            .readings_sent
            .iter()
            .filter(|pair| displayed.contains(*pair))
            .count() as u64;
        (sent, delivered)
    }

    fn log_push(&mut self, line: String) {
        self.log.push((self.now.0, line));
    }

    /// Runs this shard's event loop until `deadline` (inclusive). Safe to
    /// call from a worker thread: nothing here touches state outside the
    /// shard (telemetry counters/stages are thread-safe process-globals).
    pub(crate) fn advance_until(&mut self, deadline: Instant) {
        while let Some(when) = self.queue.peek_time() {
            if when > deadline {
                break;
            }
            let (when, event) = self.queue.pop().expect("peeked event exists");
            self.now = when;
            self.dispatch(event);
        }
        self.now = self.now.max(deadline);
    }

    fn dispatch(&mut self, event: SimEvent) {
        match event {
            SimEvent::AppTimer { node } => self.on_app_timer(node),
            SimEvent::CsmaCca { node } => self.on_csma_cca(node),
            SimEvent::SendImmediate { node } => self.on_send_immediate(node),
            SimEvent::Inject { node, frame } => {
                self.log_push(format!(
                    "t={} inject node={} seq={}",
                    self.now.0, self.nodes[node].id, frame.sequence
                ));
                self.transmit_wazabee(node, &frame);
            }
            SimEvent::JamBurst { node } => self.on_jam_burst(node),
            SimEvent::TxEnd => self.on_tx_end(),
            SimEvent::AckTimeout { node, seq } => self.on_ack_timeout(node, seq),
        }
    }

    // ------------------------------------------------------------------
    // Application layer
    // ------------------------------------------------------------------

    fn on_app_timer(&mut self, idx: usize) {
        let now = self.now;
        if self.traffic_deadline.is_some_and(|d| now > d) {
            return;
        }
        let (frames, interval) = match &mut self.nodes[idx].kind {
            NodeKind::Zigbee(st) => (st.app.on_timer(now), st.app.timer_interval_ms()),
            NodeKind::Flooder { .. } => {
                self.flood(idx);
                return;
            }
            _ => return,
        };
        for frame in frames {
            if frame.frame_type == FrameType::Data {
                if let Address::Short(src) = frame.src {
                    if let Some(v) =
                        XbeePayload::from_bytes(&frame.payload).and_then(|p| p.as_reading())
                    {
                        self.readings_sent.push((src, v));
                    }
                }
            }
            if let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind {
                st.pending.push_back(frame);
            }
        }
        if let Some(ms) = interval {
            self.queue
                .schedule(now.plus_ms(ms), SimEvent::AppTimer { node: idx });
        }
        self.kick(idx);
    }

    fn flood(&mut self, idx: usize) {
        let (config, seq) = match &mut self.nodes[idx].kind {
            NodeKind::Flooder { config, seq } => {
                *seq = seq.wrapping_add(1);
                (*config, *seq)
            }
            _ => return,
        };
        // An opaque (non-XBee) payload: the victim ACKs the frame but records
        // nothing, so the flood burns its airtime without faking readings.
        let frame = MacFrame::data(config.pan, config.src, config.victim, seq, vec![0xF1, 0x00]);
        self.log_push(format!(
            "t={} flood node={} seq={}",
            self.now.0, self.nodes[idx].id, seq
        ));
        self.transmit_wazabee(idx, &frame);
        self.queue.schedule(
            self.now.plus_us(config.interval_us),
            SimEvent::AppTimer { node: idx },
        );
    }

    // ------------------------------------------------------------------
    // CSMA/CA MAC for Zigbee nodes
    // ------------------------------------------------------------------

    /// Starts a CSMA attempt for the head of a Zigbee node's queue when the
    /// node is idle; no-op otherwise.
    fn kick(&mut self, idx: usize) {
        let csma_cfg = self.cfg.csma;
        let now = self.now;
        let node = &mut self.nodes[idx];
        let NodeKind::Zigbee(st) = &mut node.kind else {
            return;
        };
        if st.transmitting
            || st.csma.is_some()
            || st.awaiting_ack.is_some()
            || st.pending.is_empty()
        {
            return;
        }
        let csma = CsmaBackoff::new(csma_cfg);
        let delay = csma.backoff(node.rng.gen());
        st.csma = Some(csma);
        self.queue
            .schedule(now.plus_us(delay), SimEvent::CsmaCca { node: idx });
    }

    /// Measures CCA energy over the live cluster through the same planar
    /// `f32` superposition kernel the demodulators decode — and with zero
    /// allocation: the accumulation window and the per-member gain staging
    /// are shard-owned scratch.
    fn cca_busy(&mut self) -> bool {
        if self.air.active == 0 {
            return false;
        }
        let spu = self.cfg.samples_per_us();
        self.gain_scratch.clear();
        self.gain_scratch
            .extend(self.air.cluster.iter().map(|t| self.nodes[t.source].gain));
        cca_power_planar(
            &self.air.cluster,
            &self.gain_scratch,
            self.now,
            CCA_US,
            spu,
            &mut self.cca_scratch,
        ) >= self.cfg.cca_threshold
    }

    fn on_csma_cca(&mut self, idx: usize) {
        let (armed, transmitting) = match &self.nodes[idx].kind {
            NodeKind::Zigbee(st) => (st.csma.is_some(), st.transmitting),
            _ => return,
        };
        if !armed {
            return;
        }
        if !transmitting && !self.cca_busy() {
            self.start_zigbee_frame(idx);
            return;
        }
        self.stats.cca_busy += 1;
        wazabee_telemetry::counter!("sim.cca_busy").inc();
        self.log_push(format!(
            "t={} cca-busy node={}",
            self.now.0, self.nodes[idx].id
        ));
        let step = {
            let node = &mut self.nodes[idx];
            let NodeKind::Zigbee(st) = &mut node.kind else {
                return;
            };
            let draw = node.rng.gen();
            st.csma.as_mut().map(|c| c.channel_busy(draw))
        };
        match step {
            Some(CsmaStep::Backoff(delay)) => {
                self.queue
                    .schedule(self.now.plus_us(delay), SimEvent::CsmaCca { node: idx });
            }
            Some(CsmaStep::Failure) => {
                self.stats.csma_failures += 1;
                self.log_push(format!(
                    "t={} csma-failure node={}",
                    self.now.0, self.nodes[idx].id
                ));
                self.attempt_failed(idx, "channel-access");
            }
            None => {}
        }
    }

    fn start_zigbee_frame(&mut self, idx: usize) {
        let prepared = {
            let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind else {
                return;
            };
            let Some(head) = st.pending.front() else {
                st.csma = None;
                return;
            };
            match Ppdu::new(head.to_psdu()) {
                Ok(ppdu) => {
                    st.transmitting = true;
                    Some((ppdu, head.sequence, head.ack_request))
                }
                Err(_) => None,
            }
        };
        match prepared {
            Some((ppdu, seq, ack_request)) => {
                let samples = {
                    let _s = wazabee_telemetry::scope!("sim.modulate");
                    self.modem.transmit(&ppdu)
                };
                self.begin_transmission(
                    idx,
                    samples,
                    TxKind::Frame,
                    TxOrigin::Head,
                    Some(seq),
                    ack_request,
                );
            }
            None => {
                // An unencodable (oversize) head frame: drop it rather than
                // wedge the queue behind it forever.
                if let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind {
                    st.pending.pop_front();
                    st.csma = None;
                }
                self.log_push(format!(
                    "t={} drop-unencodable node={}",
                    self.now.0, self.nodes[idx].id
                ));
                self.kick(idx);
            }
        }
    }

    /// Head-of-queue success: frame acknowledged, or a no-ACK frame sent.
    fn complete_head(&mut self, idx: usize, why: &str) {
        let seq = {
            let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind else {
                return;
            };
            st.csma = None;
            st.awaiting_ack = None;
            st.retries = 0;
            st.pending.pop_front().map(|f| f.sequence)
        };
        if let Some(seq) = seq {
            self.log_push(format!(
                "t={} complete node={} seq={} why={}",
                self.now.0, self.nodes[idx].id, seq, why
            ));
        }
        self.kick(idx);
    }

    /// One transmission attempt failed (missed ACK or channel access):
    /// retry with a fresh CSMA attempt, or abandon past the retry budget.
    fn attempt_failed(&mut self, idx: usize, why: &str) {
        let max_retries = self.cfg.csma.max_frame_retries;
        let (abandoned, seq) = {
            let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind else {
                return;
            };
            st.csma = None;
            st.awaiting_ack = None;
            st.retries += 1;
            if st.retries > max_retries {
                st.retries = 0;
                (true, st.pending.pop_front().map(|f| f.sequence))
            } else {
                (false, st.pending.front().map(|f| f.sequence))
            }
        };
        if abandoned {
            self.stats.frames_abandoned += 1;
            self.log_push(format!(
                "t={} abandon node={} seq={:?} why={}",
                self.now.0, self.nodes[idx].id, seq, why
            ));
        } else {
            self.stats.retries += 1;
            wazabee_telemetry::counter!("sim.retries").inc();
            self.log_push(format!(
                "t={} retry node={} seq={:?} why={}",
                self.now.0, self.nodes[idx].id, seq, why
            ));
        }
        self.kick(idx);
    }

    fn on_ack_timeout(&mut self, idx: usize, seq: u8) {
        let pending = matches!(
            &self.nodes[idx].kind,
            NodeKind::Zigbee(st) if st.awaiting_ack == Some(seq)
        );
        if pending {
            self.log_push(format!(
                "t={} ack-timeout node={} seq={}",
                self.now.0, self.nodes[idx].id, seq
            ));
            self.attempt_failed(idx, "no-ack");
        }
    }

    fn on_send_immediate(&mut self, idx: usize) {
        enum Radio {
            Oqpsk,
            Diverted,
        }
        let prepared = match &mut self.nodes[idx].kind {
            NodeKind::Zigbee(st) => match st.immediate.pop_front() {
                Some(frame) if !st.transmitting => {
                    st.transmitting = true;
                    Some((frame, Radio::Oqpsk))
                }
                Some(_) => {
                    // Half-duplex: the radio is keyed, the ACK is lost.
                    self.log_push(format!(
                        "t={} ack-suppressed node={}",
                        self.now.0, self.nodes[idx].id
                    ));
                    None
                }
                None => None,
            },
            NodeKind::Spoofer { immediate } => immediate.pop_front().map(|f| (f, Radio::Diverted)),
            _ => None,
        };
        let Some((frame, radio)) = prepared else {
            return;
        };
        match radio {
            Radio::Oqpsk => {
                let Ok(ppdu) = Ppdu::new(frame.to_psdu()) else {
                    return;
                };
                let samples = {
                    let _s = wazabee_telemetry::scope!("sim.modulate");
                    self.modem.transmit(&ppdu)
                };
                self.begin_transmission(
                    idx,
                    samples,
                    TxKind::Frame,
                    TxOrigin::Immediate,
                    Some(frame.sequence),
                    false,
                );
            }
            Radio::Diverted => {
                self.stats.acks_spoofed += 1;
                wazabee_telemetry::counter!("sim.acks_spoofed").inc();
                self.log_push(format!(
                    "t={} spoofed-ack node={} seq={}",
                    self.now.0, self.nodes[idx].id, frame.sequence
                ));
                self.transmit_wazabee(idx, &frame);
            }
        }
    }

    // ------------------------------------------------------------------
    // The air
    // ------------------------------------------------------------------

    fn transmit_wazabee(&mut self, idx: usize, frame: &MacFrame) {
        let Ok(ppdu) = Ppdu::new(frame.to_psdu()) else {
            return;
        };
        // Simulation ground truth for the health plane: a diverted-BLE
        // injector keyed up on the ether. Collisions alone stopped being an
        // attack signal once 1024-node cells made legitimate CSMA collisions
        // routine.
        wazabee_telemetry::counter!("sim.injected").inc();
        let samples = {
            let _s = wazabee_telemetry::scope!("sim.modulate");
            self.btx.transmit(&ppdu)
        };
        self.begin_transmission(
            idx,
            samples,
            TxKind::Frame,
            TxOrigin::Attacker,
            Some(frame.sequence),
            frame.ack_request,
        );
    }

    fn begin_transmission(
        &mut self,
        source: usize,
        samples: Vec<Iq>,
        kind: TxKind,
        origin: TxOrigin,
        seq: Option<u8>,
        ack_request: bool,
    ) {
        let spu = self.spu();
        let duration_us = (samples.len() as u64).div_ceil(spu).max(1);
        let start = self.now;
        let end = start.plus_us(duration_us);
        let source_id = self.nodes[source].id;
        let _span = wazabee_telemetry::scope!(
            "sim.tx",
            node = source_id,
            chan = self.channel_number,
            dur_us = duration_us
        );
        let channel = self.channel_number;
        let node = &mut self.nodes[source];
        node.airtime_us += duration_us;
        node.tx_count += 1;
        node.tx_cell
            .get_or_insert_with(|| {
                wazabee_telemetry::counter!("sim.tx").with(&[
                    ("node", &node.id.to_string()),
                    ("channel", &channel.to_string()),
                    ("kind", node.kind.name()),
                ])
            })
            .inc();
        self.log_push(format!(
            "t={} keyup node={} kind={} seq={:?} dur={}",
            start.0,
            source_id,
            self.nodes[source].kind_name(),
            seq,
            duration_us
        ));
        if self.air.cluster.is_empty() {
            self.air.cluster_start = start;
        }
        self.air.cluster.push(Transmission {
            source,
            start,
            end,
            samples,
            kind,
            origin,
            seq,
            ack_request,
            finalized: false,
        });
        self.air.active += 1;
        self.queue.schedule(end, SimEvent::TxEnd);
        if kind == TxKind::Frame {
            self.trigger_jammers(source);
        }
    }

    fn trigger_jammers(&mut self, source: usize) {
        let now = self.now;
        for j in 0..self.nodes.len() {
            if j == source {
                continue;
            }
            let node = &mut self.nodes[j];
            let NodeKind::Jammer { config, jamming } = &mut node.kind else {
                continue;
            };
            if *jamming {
                continue;
            }
            let draw: u64 = node.rng.gen();
            if ((draw % 1_000) as f64) / 1_000.0 >= config.trigger_probability {
                continue;
            }
            *jamming = true;
            let when = now.plus_us(config.reaction_us);
            self.queue.schedule(when, SimEvent::JamBurst { node: j });
        }
    }

    fn on_jam_burst(&mut self, idx: usize) {
        let (burst_us, power) = match &self.nodes[idx].kind {
            NodeKind::Jammer { config, .. } => (config.burst_us, config.power),
            _ => return,
        };
        let len = (burst_us * self.spu()) as usize;
        let mut samples = vec![Iq::ZERO; len];
        let seed: u64 = self.nodes[idx].rng.gen();
        AwgnSource::new(seed, (power / 2.0).sqrt()).add_to(&mut samples);
        self.stats.jam_bursts += 1;
        self.begin_transmission(idx, samples, TxKind::Jam, TxOrigin::Attacker, None, false);
    }

    fn on_tx_end(&mut self) {
        let now = self.now;
        let mut finished: Vec<(usize, TxOrigin, Option<u8>, bool)> = Vec::new();
        for t in self.air.cluster.iter_mut() {
            if !t.finalized && t.end <= now {
                t.finalized = true;
                self.air.active -= 1;
                finished.push((t.source, t.origin, t.seq, t.ack_request));
            }
        }
        for (src, origin, seq, ack_request) in finished {
            let mut complete = false;
            let mut await_seq = None;
            match &mut self.nodes[src].kind {
                NodeKind::Zigbee(st) => {
                    st.transmitting = false;
                    if origin == TxOrigin::Head {
                        if ack_request {
                            let s = seq.unwrap_or(0);
                            st.awaiting_ack = Some(s);
                            await_seq = Some(s);
                        } else {
                            complete = true;
                        }
                    }
                }
                NodeKind::Jammer { jamming, .. } => *jamming = false,
                _ => {}
            }
            if let Some(s) = await_seq {
                self.queue.schedule(
                    now.plus_us(self.cfg.ack_wait_us),
                    SimEvent::AckTimeout { node: src, seq: s },
                );
            }
            if complete {
                self.complete_head(src, "sent");
            }
        }
        if self.air.active == 0 && !self.air.cluster.is_empty() {
            self.close_cluster();
        }
    }

    // ------------------------------------------------------------------
    // Cluster close: superpose, demodulate, deliver
    // ------------------------------------------------------------------

    /// Feeds a receiver window through the streaming receiver in
    /// `iq_chunk`-sized pushes, returning recovered frames and the count of
    /// committed failed attempts.
    fn decode_buffer(&self, buf: &IqBuf) -> (Vec<MacFrame>, u64) {
        let _s = wazabee_telemetry::scope!("sim.demod");
        let mut stream = self.rx.stream();
        let mut results = Vec::new();
        let chunk = self.cfg.iq_chunk.max(1);
        let mut from = 0;
        while from < buf.len() {
            let to = (from + chunk).min(buf.len());
            results.extend(stream.push_planar(buf.slice(from, to)));
            from = to;
        }
        results.extend(stream.finish());
        let mut frames = Vec::new();
        let mut failures = 0u64;
        for r in results {
            match r {
                Ok(p) if p.fcs_ok() => match MacFrame::from_psdu(&p.psdu) {
                    Some(f) => frames.push(f),
                    None => failures += 1,
                },
                _ => failures += 1,
            }
        }
        (frames, failures)
    }

    /// Superposes a closed cluster into what receiver `idx` (shard-local)
    /// heard, applies the per-receiver impairments, and decodes (or, for IDS
    /// monitors, widens the raw window). Immutable — safe to fan out over
    /// worker threads, one receiver each.
    fn receiver_hears(
        &self,
        idx: usize,
        cluster: &[Transmission],
        gains: &[f64],
        start: Instant,
        end: Instant,
        cluster_id: u64,
    ) -> Heard {
        let node = &self.nodes[idx];
        let is_ids = matches!(node.kind, NodeKind::Ids { .. });
        // Parent scope for this receiver's whole listen window: the
        // per-attempt `rx.decode` scopes opened inside the streaming
        // receiver nest under it (through `sim.demod`), and the stream
        // stages under those, so one cluster's causal tree reads
        // sim.rx → rx.decode → stream stages in the Perfetto view.
        let _span = wazabee_telemetry::scope!(
            "sim.rx",
            node = node.id,
            chan = self.channel_number,
            cluster = cluster_id
        );
        let mut buf = {
            let _s = wazabee_telemetry::scope!("sim.superpose");
            superpose_planar(cluster, gains, start, end, self.spu())
        };
        if self.cfg.cfo_hz != 0.0 {
            Nco::new(self.cfg.cfo_hz, self.cfg.sample_rate()).mix_planar_in_place(&mut buf);
        }
        if self.cfg.timing_offset != 0.0 {
            fractional_delay_planar_in_place(&mut buf, self.cfg.timing_offset);
        }
        if let Some(snr) = self.cfg.snr_db {
            let sig = gains.iter().fold(0.0f64, |m, &g| m.max(g * g)).max(1e-12);
            let seed = splitmix64(
                self.cfg.seed
                    ^ cluster_id.wrapping_mul(0xA24B_AED4_963E_E407)
                    ^ (node.id as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
            );
            AwgnSource::from_snr_db(seed, snr, sig).add_to_planar(&mut buf);
        }
        if is_ids {
            // The IDS monitors run interleaved spectral analysis; widen
            // only for them — decoding receivers stay planar end to end.
            Heard::Raw(buf.to_interleaved())
        } else {
            let (frames, failures) = self.decode_buffer(&buf);
            Heard::Frames(frames, failures)
        }
    }

    fn close_cluster(&mut self) {
        let air = std::mem::take(&mut self.air);
        let cluster = air.cluster;
        if cluster.is_empty() {
            return;
        }
        let cluster_id = self.cluster_counter;
        self.cluster_counter += 1;
        let start = air.cluster_start;
        let end = self.now;
        let gains: Vec<f64> = cluster.iter().map(|t| self.nodes[t.source].gain).collect();

        // A demodulation-level collision: two or more *frames* overlapped.
        let frames_in_cluster: Vec<&Transmission> =
            cluster.iter().filter(|t| t.kind == TxKind::Frame).collect();
        let collided = frames_in_cluster.iter().enumerate().any(|(i, a)| {
            frames_in_cluster[i + 1..]
                .iter()
                .any(|b| a.start < b.end && b.start < a.end)
        });
        if collided {
            self.stats.collisions += 1;
            wazabee_telemetry::counter!("sim.collisions").inc();
            self.log_push(format!(
                "t={} collision ch={} cluster={} frames={}",
                end.0,
                self.channel_number,
                cluster_id,
                frames_in_cluster.len()
            ));
        }

        // Phase 1 (immutable): superpose and demodulate per receiver, in
        // ascending local index order (== ascending global id order).
        let receivers: Vec<usize> = (0..self.nodes.len())
            .filter(|&idx| {
                if cluster.iter().any(|t| t.source == idx) {
                    return false;
                }
                matches!(
                    self.nodes[idx].kind,
                    NodeKind::Zigbee(_) | NodeKind::Spoofer { .. } | NodeKind::Ids { .. }
                )
            })
            .collect();
        let coherent = self.cfg.snr_db.is_none();
        let deliveries: Vec<(usize, Heard)> = if coherent {
            // With no per-receiver noise every listener hears bit-identical
            // samples, so one decode is shared — an exact, not approximate,
            // fast path (and inherently sequential).
            let mut shared: Option<(Vec<MacFrame>, u64)> = None;
            let mut out = Vec::with_capacity(receivers.len());
            for idx in receivers {
                let decodes = matches!(
                    self.nodes[idx].kind,
                    NodeKind::Zigbee(_) | NodeKind::Spoofer { .. }
                );
                if decodes {
                    if let Some((frames, fails)) = &shared {
                        out.push((idx, Heard::Frames(frames.clone(), *fails)));
                        continue;
                    }
                }
                let heard = self.receiver_hears(idx, &cluster, &gains, start, end, cluster_id);
                if decodes {
                    if let Heard::Frames(frames, fails) = &heard {
                        shared = Some((frames.clone(), *fails));
                    }
                }
                out.push((idx, heard));
            }
            out
        } else {
            // Noisy path: every receiver's superpose+impair+decode is
            // independent (noise is seeded per (cluster, receiver)), so fan
            // the expensive StreamingRx demodulations out over par_map and
            // merge back in receiver order — byte-identical at any width.
            par_map_with(Some(self.decode_threads.max(1)), receivers, |idx| {
                (
                    idx,
                    self.receiver_hears(idx, &cluster, &gains, start, end, cluster_id),
                )
            })
        };

        // Phase 2 (mutable): hand each receiver what it heard.
        for (idx, heard) in deliveries {
            match heard {
                Heard::Frames(frames, failures) => {
                    self.stats.frames_decoded += frames.len() as u64;
                    self.stats.decode_failures += failures;
                    let node = &mut self.nodes[idx];
                    node.rx_frames_cell
                        .get_or_insert_with(|| {
                            wazabee_telemetry::counter!("sim.rx.frames")
                                .with(&[("node", &node.id.to_string())])
                        })
                        .add(frames.len() as u64);
                    match &self.nodes[idx].kind {
                        NodeKind::Zigbee(_) => self.zigbee_rx(idx, frames),
                        NodeKind::Spoofer { .. } => self.spoofer_rx(idx, frames),
                        _ => {}
                    }
                }
                Heard::Raw(buf) => self.ids_rx(idx, &buf),
            }
        }
    }

    fn zigbee_rx(&mut self, idx: usize, frames: Vec<MacFrame>) {
        let now = self.now;
        for frame in frames {
            self.log_push(format!(
                "t={} rx node={} type={:?} seq={}",
                now.0, self.nodes[idx].id, frame.frame_type, frame.sequence
            ));
            if frame.frame_type == FrameType::Ack {
                let matched = matches!(
                    &self.nodes[idx].kind,
                    NodeKind::Zigbee(st) if st.awaiting_ack == Some(frame.sequence)
                );
                if matched {
                    self.complete_head(idx, "acked");
                }
                continue;
            }
            let replies = match &mut self.nodes[idx].kind {
                NodeKind::Zigbee(st) => st.app.on_receive(&frame, now),
                _ => Vec::new(),
            };
            for reply in replies {
                if reply.frame_type == FrameType::Ack {
                    if let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind {
                        st.immediate.push_back(reply);
                    }
                    self.queue.schedule(
                        now.plus_us(TURNAROUND_US),
                        SimEvent::SendImmediate { node: idx },
                    );
                } else if let NodeKind::Zigbee(st) = &mut self.nodes[idx].kind {
                    st.pending.push_back(reply);
                }
            }
        }
        self.kick(idx);
    }

    fn spoofer_rx(&mut self, idx: usize, frames: Vec<MacFrame>) {
        let now = self.now;
        for frame in frames {
            let spoofable = frame.frame_type == FrameType::Data
                && frame.ack_request
                && matches!(frame.dest, Address::Short(d) if d != BROADCAST_SHORT);
            if !spoofable {
                continue;
            }
            if let NodeKind::Spoofer { immediate } = &mut self.nodes[idx].kind {
                immediate.push_back(MacFrame::ack(frame.sequence));
            }
            self.queue.schedule(
                now.plus_us(self.cfg.spoof_delay_us),
                SimEvent::SendImmediate { node: idx },
            );
        }
    }

    fn ids_rx(&mut self, idx: usize, buf: &[Iq]) {
        let now = self.now;
        let new_alerts = match &mut self.nodes[idx].kind {
            NodeKind::Ids { monitor, .. } => monitor.observe(buf),
            _ => return,
        };
        for alert in &new_alerts {
            self.log_push(format!(
                "t={} alert node={} kind={}",
                now.0,
                self.nodes[idx].id,
                alert_kind(alert)
            ));
        }
        if let NodeKind::Ids { alerts, .. } = &mut self.nodes[idx].kind {
            alerts.extend(new_alerts.into_iter().map(|a| (now, a)));
        }
    }
}
