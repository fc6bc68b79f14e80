//! The WazaBee-aware intrusion detector (paper §VII).
//!
//! Three detection strategies, layered:
//!
//! 1. **Cross-protocol signature** — one burst valid under both the BLE and
//!    802.15.4 grammars is the smoking gun of a Scenario-A injection (an
//!    `AUX_ADV_IND` whose whitened payload embeds a Zigbee frame).
//! 2. **Protocol whitelist** — 802.15.4 activity on a frequency where no
//!    Zigbee network is deployed (the "protocol that is not supposed to be
//!    monitored" covert-channel case of the paper's introduction).
//! 3. **Traffic anomaly** — a protocol-agnostic rate model per channel
//!    (RadIoT-style [Roux et al., NCA'18]): alert when the burst rate jumps
//!    far beyond the learned baseline.

use serde::{Deserialize, Serialize};
use wazabee::WazaBeeRx;
use wazabee_ble::{BleModem, BlePhy};
use wazabee_dsp::iq::Iq;

use crate::burst::{detect_bursts, BurstDetectorConfig};
use crate::classify::Classifier;

/// An alert raised by the monitor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Alert {
    /// One emission parsed as both a valid BLE packet and a valid 802.15.4
    /// frame — a cross-technology injection.
    CrossProtocolFrame {
        /// Monitored centre frequency.
        center_mhz: u32,
        /// The embedded 802.15.4 PSDU.
        psdu: Vec<u8>,
        /// The carrying BLE PDU.
        ble_pdu: Vec<u8>,
    },
    /// Valid 802.15.4 traffic on a frequency not in the deployment
    /// whitelist.
    UnexpectedDot154 {
        /// Monitored centre frequency.
        center_mhz: u32,
        /// The PSDU observed.
        psdu: Vec<u8>,
    },
    /// Burst rate far above the learned baseline.
    TrafficAnomaly {
        /// Monitored centre frequency.
        center_mhz: u32,
        /// Bursts in the offending observation.
        observed: usize,
        /// Baseline (EWMA) bursts per observation.
        baseline: f64,
    },
}

impl Alert {
    /// The frequency the alert concerns.
    pub fn center_mhz(&self) -> u32 {
        match self {
            Alert::CrossProtocolFrame { center_mhz, .. }
            | Alert::UnexpectedDot154 { center_mhz, .. }
            | Alert::TrafficAnomaly { center_mhz, .. } => *center_mhz,
        }
    }
}

/// Configuration of one channel monitor.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Burst segmentation parameters.
    pub burst: BurstDetectorConfig,
    /// Whether legitimate 802.15.4 traffic is expected on this frequency.
    pub dot154_whitelisted: bool,
    /// EWMA smoothing factor for the burst-rate baseline.
    pub ewma_alpha: f64,
    /// Anomaly threshold: alert when observed > factor × baseline + margin.
    pub anomaly_factor: f64,
    /// Flat margin added to the anomaly threshold (suppresses alerts while
    /// the baseline is still warming up).
    pub anomaly_margin: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            burst: BurstDetectorConfig::default(),
            dot154_whitelisted: false,
            ewma_alpha: 0.2,
            anomaly_factor: 3.0,
            anomaly_margin: 2.0,
        }
    }
}

/// A per-frequency WazaBee monitor.
#[derive(Debug, Clone)]
pub struct ChannelMonitor {
    center_mhz: u32,
    classifier: Classifier,
    /// A diverted-BLE 802.15.4 sniffer for the streaming sweep: a coalesced
    /// burst can hold several back-to-back frames, and the one-shot
    /// classifier reports at most the first.
    sniffer: WazaBeeRx<BleModem>,
    config: MonitorConfig,
    baseline_rate: f64,
    observations: u64,
}

impl ChannelMonitor {
    /// Creates a monitor for a centre frequency.
    pub fn new(center_mhz: u32, samples_per_symbol: usize, config: MonitorConfig) -> Self {
        ChannelMonitor {
            center_mhz,
            classifier: Classifier::new(center_mhz, samples_per_symbol),
            sniffer: WazaBeeRx::new(BleModem::new(BlePhy::Le2M, samples_per_symbol))
                .expect("LE 2M runs at the 2 Msym/s the attack requires"),
            config,
            baseline_rate: 0.0,
            observations: 0,
        }
    }

    /// The monitored frequency.
    pub fn center_mhz(&self) -> u32 {
        self.center_mhz
    }

    /// Current learned burst-rate baseline.
    pub fn baseline_rate(&self) -> f64 {
        self.baseline_rate
    }

    /// Mutable access to the classifier (e.g. to teach it access addresses).
    pub fn classifier_mut(&mut self) -> &mut Classifier {
        &mut self.classifier
    }

    /// Processes one observation window of IQ samples, returning any alerts.
    pub fn observe(&mut self, samples: &[Iq]) -> Vec<Alert> {
        let _t = wazabee_telemetry::scope!("ids.observe_ns");
        let mut alerts = Vec::new();
        let bursts = detect_bursts(samples, &self.config.burst);
        wazabee_telemetry::counter!("ids.bursts").add(bursts.len() as u64);

        // Traffic anomaly check against the learned baseline.
        let observed = bursts.len();
        let mut anomalous = false;
        if self.observations >= 3 {
            let threshold =
                self.config.anomaly_factor * self.baseline_rate + self.config.anomaly_margin;
            if (observed as f64) > threshold {
                anomalous = true;
                alerts.push(Alert::TrafficAnomaly {
                    center_mhz: self.center_mhz,
                    observed,
                    baseline: self.baseline_rate,
                });
            }
        }
        // Anomalous windows are excluded from the EWMA so a sustained storm
        // cannot teach the monitor that storms are normal.
        if !anomalous {
            self.baseline_rate = if self.observations == 0 {
                observed as f64
            } else {
                (1.0 - self.config.ewma_alpha) * self.baseline_rate
                    + self.config.ewma_alpha * observed as f64
            };
        }
        self.observations += 1;

        // Per-burst protocol analysis. Capture with a guard margin so edge
        // quantisation of the energy detector never starves the decoders.
        let guard = 4 * self.config.burst.window;
        for burst in &bursts {
            let start = burst.start.saturating_sub(guard);
            let end = (burst.end + guard).min(samples.len());
            let slice = &samples[start..end];
            let cls = self.classifier.classify(slice);
            if cls.is_cross_protocol() {
                alerts.push(Alert::CrossProtocolFrame {
                    center_mhz: self.center_mhz,
                    psdu: cls.dot154.as_ref().expect("checked").psdu.clone(),
                    ble_pdu: cls.ble.as_ref().expect("checked").pdu.clone(),
                });
            } else if cls.is_dot154_only() && !self.config.dot154_whitelisted {
                alerts.push(Alert::UnexpectedDot154 {
                    center_mhz: self.center_mhz,
                    psdu: cls.dot154.as_ref().expect("checked").psdu.clone(),
                });
            }
            // Streaming sweep: a merged burst can carry several frames
            // back-to-back, and the one-shot classifier stops at the first.
            // The re-arming receiver recovers the rest; the frame the
            // classifier already reported is deduplicated away.
            let mut stream = self.sniffer.stream();
            let mut results = stream.push(slice);
            results.extend(stream.finish());
            let mut extra: Vec<Vec<u8>> = results
                .into_iter()
                .filter_map(Result::ok)
                .filter(|f| f.fcs_ok())
                .map(|f| f.psdu)
                .collect();
            if let Some(first) = cls.dot154.as_ref().filter(|d| d.fcs_ok) {
                if let Some(pos) = extra.iter().position(|p| *p == first.psdu) {
                    extra.remove(pos);
                }
            }
            wazabee_telemetry::counter!("ids.stream.extra_frames").add(extra.len() as u64);
            if !self.config.dot154_whitelisted {
                for psdu in extra {
                    alerts.push(Alert::UnexpectedDot154 {
                        center_mhz: self.center_mhz,
                        psdu,
                    });
                }
            }
        }
        wazabee_telemetry::counter!("ids.alerts").add(alerts.len() as u64);
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazabee_ble::{BleChannel, BleModem, BlePacket, BlePhy};
    use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};

    fn pad(samples: Vec<Iq>) -> Vec<Iq> {
        let mut buf = vec![Iq::ZERO; 512];
        buf.extend(samples);
        buf.extend(vec![Iq::ZERO; 512]);
        buf
    }

    fn monitor(whitelisted: bool) -> ChannelMonitor {
        let config = MonitorConfig {
            dot154_whitelisted: whitelisted,
            ..MonitorConfig::default()
        };
        ChannelMonitor::new(2420, 8, config)
    }

    #[test]
    fn legitimate_ble_raises_nothing() {
        let mut m = monitor(false);
        let modem = BleModem::new(BlePhy::Le2M, 8);
        let pkt = BlePacket::advertising(vec![0x02, 0x02, 1, 2]);
        let burst = pad(modem.transmit(&pkt, BleChannel::new(8).unwrap(), true));
        assert!(m.observe(&burst).is_empty());
    }

    #[test]
    fn whitelisted_dot154_raises_nothing() {
        let mut m = monitor(true);
        let modem = Dot154Modem::new(8);
        let ppdu = Ppdu::new(append_fcs(&[1, 2, 3])).unwrap();
        let burst = pad(modem.transmit(&ppdu));
        assert!(m.observe(&burst).is_empty());
    }

    #[test]
    fn unexpected_dot154_is_flagged() {
        let mut m = monitor(false);
        let modem = Dot154Modem::new(8);
        let ppdu = Ppdu::new(append_fcs(&[0xDE, 0xAD])).unwrap();
        let burst = pad(modem.transmit(&ppdu));
        let alerts = m.observe(&burst);
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a, Alert::UnexpectedDot154 { psdu, .. } if *psdu == ppdu.psdu())),
            "{alerts:?}"
        );
    }

    #[test]
    fn back_to_back_frames_in_one_burst_both_flagged() {
        // Two frames separated by less than the detector's merge gap fuse
        // into a single burst; the streaming sweep must flag both, not just
        // the one the one-shot classifier reaches.
        let mut m = monitor(false);
        let modem = Dot154Modem::new(8);
        let a = Ppdu::new(append_fcs(&[0x11, 0x22])).unwrap();
        let b = Ppdu::new(append_fcs(&[0x33, 0x44, 0x55])).unwrap();
        let mut air = modem.transmit(&a);
        air.extend(vec![Iq::ZERO; 48]); // < merge_gap (64): one burst
        air.extend(modem.transmit(&b));
        let alerts = m.observe(&pad(air));
        let flagged: Vec<&Vec<u8>> = alerts
            .iter()
            .filter_map(|al| match al {
                Alert::UnexpectedDot154 { psdu, .. } => Some(psdu),
                _ => None,
            })
            .collect();
        assert!(flagged.iter().any(|p| **p == a.psdu()), "{alerts:?}");
        assert!(flagged.iter().any(|p| **p == b.psdu()), "{alerts:?}");
        assert_eq!(flagged.len(), 2, "no duplicate alerts: {alerts:?}");
    }

    #[test]
    fn burst_storm_raises_anomaly() {
        let mut m = monitor(true);
        let modem = Dot154Modem::new(8);
        let one = |k: u8| {
            let ppdu = Ppdu::new(append_fcs(&[k])).unwrap();
            modem.transmit(&ppdu)
        };
        // Warm up the baseline: one burst per window.
        for k in 0..5 {
            let w = pad(one(k));
            assert!(m.observe(&w).is_empty(), "warm-up window {k}");
        }
        // Storm window: ten bursts.
        let mut storm = Vec::new();
        for k in 0..10 {
            storm.extend(pad(one(100 + k)));
        }
        let alerts = m.observe(&storm);
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a, Alert::TrafficAnomaly { observed: 10, .. })),
            "{alerts:?}"
        );
    }

    #[test]
    fn baseline_tracks_rate() {
        let mut m = monitor(true);
        let modem = Dot154Modem::new(8);
        let ppdu = Ppdu::new(append_fcs(&[7])).unwrap();
        for _ in 0..6 {
            let w = pad(modem.transmit(&ppdu));
            m.observe(&w);
        }
        assert!(m.baseline_rate() > 0.5, "baseline {}", m.baseline_rate());
        assert_eq!(m.center_mhz(), 2420);
    }

    #[test]
    fn alert_frequency_accessor() {
        let a = Alert::TrafficAnomaly {
            center_mhz: 2450,
            observed: 9,
            baseline: 1.0,
        };
        assert_eq!(a.center_mhz(), 2450);
    }
}
