//! The simulated radio link: what a receiver tuned to one frequency observes
//! when a transmitter emits at another.
//!
//! The model applies, in order: spectral shift by the centre-frequency
//! difference, path gain, carrier-frequency offset, fractional-sample timing
//! offset, a random lead-in/lead-out of noise (so synchronisation is never
//! trivially aligned), thermal AWGN, and optional WiFi interference bursts.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wazabee_dsp::iq::Iq;
use wazabee_dsp::osc::frequency_shift;
use wazabee_dsp::resample::fractional_delay;
use wazabee_dsp::AwgnSource;

use crate::wifi::WifiInterferer;

/// An RF emission: a baseband waveform bound to its carrier frequency.
#[derive(Debug, Clone)]
pub struct RfFrame {
    /// Carrier centre frequency in MHz.
    pub center_mhz: u32,
    /// Complex baseband samples around that centre.
    pub samples: Vec<Iq>,
    /// Sample rate in samples per second.
    pub sample_rate: f64,
}

impl RfFrame {
    /// Creates an emission.
    pub fn new(center_mhz: u32, samples: Vec<Iq>, sample_rate: f64) -> Self {
        RfFrame {
            center_mhz,
            samples,
            sample_rate,
        }
    }
}

/// Configuration of one point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Signal-to-noise ratio at the receiver, in dB (`None` = noiseless).
    pub snr_db: Option<f64>,
    /// Linear path gain applied to the signal (1.0 = unit).
    pub path_gain: f64,
    /// Residual carrier-frequency offset between TX and RX, in Hz.
    pub cfo_hz: f64,
    /// Fractional-sample timing offset in `[0, 1)`.
    pub timing_offset: f64,
    /// Noise samples prepended before the frame (randomised up to this
    /// bound) so receivers must really synchronise.
    pub max_lead_in: usize,
    /// Noise samples appended after the frame.
    pub lead_out: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            snr_db: Some(25.0),
            path_gain: 1.0,
            cfo_hz: 0.0,
            timing_offset: 0.0,
            max_lead_in: 256,
            lead_out: 64,
        }
    }
}

impl LinkConfig {
    /// A perfectly clean, perfectly aligned link (unit gain, no noise, no
    /// lead-in) — useful in unit tests.
    pub fn ideal() -> Self {
        LinkConfig {
            snr_db: None,
            path_gain: 1.0,
            cfo_hz: 0.0,
            timing_offset: 0.0,
            max_lead_in: 0,
            lead_out: 0,
        }
    }

    /// The indoor 3-metre office link of the paper's benchmarks: high SNR
    /// with modest impairments.
    pub fn office_3m() -> Self {
        LinkConfig {
            snr_db: Some(22.0),
            path_gain: 1.0,
            cfo_hz: 8.0e3,
            timing_offset: 0.37,
            max_lead_in: 512,
            lead_out: 128,
        }
    }
}

/// A point-to-point radio link with deterministic randomness.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    interferers: Vec<WifiInterferer>,
    rng: ChaCha8Rng,
}

impl Link {
    /// Creates a link; `seed` fixes every random draw the link makes.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            config,
            interferers: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Adds a WiFi interferer sharing the air with this link.
    pub fn add_interferer(&mut self, interferer: WifiInterferer) -> &mut Self {
        self.interferers.push(interferer);
        self
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Delivers `frame` to a receiver tuned to `rx_center_mhz`, producing the
    /// sample buffer the receiver's demodulator sees.
    pub fn deliver(&mut self, frame: &RfFrame, rx_center_mhz: u32) -> Vec<Iq> {
        let _t = wazabee_telemetry::scope!("radio.medium.deliver_ns");
        wazabee_telemetry::counter!("radio.medium.deliveries").inc();
        let cfg = self.config;
        wazabee_telemetry::histogram!("radio.medium.cfo_hz", 0.0, 64.0e3).record(cfg.cfo_hz.abs());
        // 1. Spectral shift by the TX/RX centre difference plus CFO.
        let delta_hz =
            (f64::from(frame.center_mhz) - f64::from(rx_center_mhz)) * 1.0e6 + cfg.cfo_hz;
        let mut signal = if delta_hz == 0.0 {
            frame.samples.clone()
        } else {
            frequency_shift(&frame.samples, delta_hz, frame.sample_rate)
        };
        // 2. Path gain.
        if cfg.path_gain != 1.0 {
            for s in &mut signal {
                *s = s.scale(cfg.path_gain);
            }
        }
        // 3. Timing offset.
        if cfg.timing_offset != 0.0 {
            signal = fractional_delay(&signal, cfg.timing_offset);
        }
        // 4. Lead-in / lead-out. The bound is inclusive: `max_lead_in` is
        // documented as the upper bound, so a draw of exactly that many
        // samples must be possible.
        let lead_in = if cfg.max_lead_in > 0 {
            self.rng.gen_range(0..=cfg.max_lead_in)
        } else {
            0
        };
        wazabee_telemetry::histogram!("radio.medium.lead_in", 0.0, 1024.0).record(lead_in as f64);
        let mut buf = vec![Iq::ZERO; lead_in];
        buf.extend(signal);
        buf.extend(std::iter::repeat_n(Iq::ZERO, cfg.lead_out));
        // 5. Thermal noise over the whole observation window.
        if let Some(snr) = cfg.snr_db {
            let signal_power = cfg.path_gain * cfg.path_gain;
            AwgnSource::from_snr_db(self.rng.gen(), snr, signal_power).add_to(&mut buf);
        }
        // 6. WiFi interference bursts.
        for k in 0..self.interferers.len() {
            let i = self.interferers[k];
            let in_band = i.power_into(rx_center_mhz);
            if in_band <= 0.0 || buf.is_empty() {
                continue;
            }
            if self.rng.gen::<f64>() < i.burst_probability {
                wazabee_telemetry::counter!("radio.medium.wifi_bursts").inc();
                let burst_len = ((buf.len() as f64) * i.burst_fraction).round().max(1.0) as usize;
                let burst_len = burst_len.min(buf.len());
                let start = self.rng.gen_range(0..=buf.len() - burst_len);
                let sigma = (in_band / 2.0).sqrt();
                let mut burst = AwgnSource::new(self.rng.gen(), sigma);
                burst.add_to(&mut buf[start..start + burst_len]);
            }
        }
        wazabee_telemetry::counter!("radio.medium.samples").add(buf.len() as u64);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wifi::WifiChannel;
    use wazabee_dsp::iq::mean_power;
    use wazabee_dsp::Nco;

    fn tone_frame(center: u32, n: usize, fs: f64) -> RfFrame {
        let mut nco = Nco::new(0.25e6, fs);
        RfFrame::new(center, (0..n).map(|_| nco.next_sample()).collect(), fs)
    }

    #[test]
    fn ideal_link_is_transparent() {
        let frame = tone_frame(2420, 512, 16.0e6);
        let mut link = Link::new(LinkConfig::ideal(), 1);
        let rx = link.deliver(&frame, 2420);
        assert_eq!(rx.len(), 512);
        for (a, b) in rx.iter().zip(&frame.samples) {
            assert!((*a - *b).amplitude() < 1e-12);
        }
    }

    #[test]
    fn co_channel_delivery_preserves_tone() {
        let fs = 16.0e6;
        let frame = tone_frame(2420, 2048, fs);
        let cfg = LinkConfig {
            snr_db: Some(30.0),
            ..LinkConfig::default()
        };
        let mut link = Link::new(cfg, 2);
        let rx = link.deliver(&frame, 2420);
        // The tone should dominate: total power ≈ signal power (1.0) + noise.
        let p = mean_power(&rx[256..1536]);
        assert!((0.5..2.0).contains(&p), "power {p}");
    }

    #[test]
    fn off_channel_delivery_shifts_spectrum() {
        let fs = 16.0e6;
        let frame = tone_frame(2422, 1024, fs);
        let mut link = Link::new(LinkConfig::ideal(), 3);
        let rx = link.deliver(&frame, 2420);
        // Tone originally at +0.25 MHz now sits at +2.25 MHz.
        let f = wazabee_dsp::discriminator::discriminate(&rx);
        let mean_step = f.iter().sum::<f64>() / f.len() as f64;
        let expect = std::f64::consts::TAU * 2.25e6 / fs;
        assert!(
            (mean_step - expect).abs() < 0.01 * expect,
            "step {mean_step}"
        );
    }

    #[test]
    fn lead_in_is_randomised_but_bounded() {
        let frame = tone_frame(2420, 64, 16.0e6);
        let mut cfg = LinkConfig::ideal();
        cfg.max_lead_in = 100;
        cfg.lead_out = 10;
        let mut link = Link::new(cfg, 4);
        let mut lengths = std::collections::HashSet::new();
        for _ in 0..16 {
            let rx = link.deliver(&frame, 2420);
            assert!(rx.len() >= 74 && rx.len() <= 174);
            lengths.insert(rx.len());
        }
        assert!(lengths.len() > 4, "lead-in not randomised");
    }

    #[test]
    fn lead_in_bound_is_inclusive() {
        // Regression: `max_lead_in = 1` used to draw from `0..1`, which is
        // always 0 — the documented upper bound was unreachable.
        let frame = tone_frame(2420, 64, 16.0e6);
        let mut cfg = LinkConfig::ideal();
        cfg.max_lead_in = 1;
        let mut link = Link::new(cfg, 11);
        let mut lengths = std::collections::HashSet::new();
        for _ in 0..64 {
            lengths.insert(link.deliver(&frame, 2420).len());
        }
        assert!(lengths.contains(&64), "lead-in of 0 never drawn");
        assert!(lengths.contains(&65), "lead-in of max_lead_in never drawn");
    }

    #[test]
    fn same_seed_same_delivery() {
        let frame = tone_frame(2420, 256, 16.0e6);
        let mut a = Link::new(LinkConfig::office_3m(), 7);
        let mut b = Link::new(LinkConfig::office_3m(), 7);
        assert_eq!(a.deliver(&frame, 2420), b.deliver(&frame, 2420));
    }

    #[test]
    fn interferer_raises_power_only_on_overlap() {
        let frame = tone_frame(2460, 4096, 16.0e6);
        let interferer = WifiInterferer {
            channel: WifiChannel::new(11).unwrap(),
            power: 4.0,
            burst_probability: 1.0,
            burst_fraction: 1.0,
        };
        let mut cfg = LinkConfig::ideal();
        cfg.max_lead_in = 0;
        // Victim on 2460 (inside WiFi 11).
        let mut hit = Link::new(cfg, 8);
        hit.add_interferer(interferer);
        let p_hit = mean_power(&hit.deliver(&frame, 2460));
        // Victim on 2420 (clear).
        let clear_frame = tone_frame(2420, 4096, 16.0e6);
        let mut clear = Link::new(cfg, 8);
        clear.add_interferer(interferer);
        let p_clear = mean_power(&clear.deliver(&clear_frame, 2420));
        assert!(p_hit > p_clear + 2.0, "hit {p_hit} vs clear {p_clear}");
    }

    #[test]
    fn path_gain_scales_amplitude() {
        let frame = tone_frame(2420, 128, 16.0e6);
        let mut cfg = LinkConfig::ideal();
        cfg.path_gain = 0.5;
        let mut link = Link::new(cfg, 9);
        let rx = link.deliver(&frame, 2420);
        assert!((mean_power(&rx) - 0.25).abs() < 1e-9);
    }
}

/// Sums transmission `b` into `a` starting at sample `offset` (zero-padding
/// `a` if needed), modelling two emitters keying up on the same frequency —
/// the collision case a CSMA-less injector provokes.
pub fn combine_at(a: &mut Vec<Iq>, b: &[Iq], offset: usize) {
    if a.len() < offset + b.len() {
        a.resize(offset + b.len(), Iq::ZERO);
    }
    for (k, &s) in b.iter().enumerate() {
        a[offset + k] += s;
    }
}

/// Planar form of [`combine_at`]: sums an interleaved `f64` transmission into
/// a planar `f32` accumulator at `offset` through the explicit-width SIMD
/// kernel, optionally scaled by a path gain.
///
/// This is the superposition primitive of the spectrum simulator's receive
/// path, where the accumulated waveform goes straight to the planar
/// demodulation engine and never needs re-interleaving.
pub fn combine_at_planar(a: &mut wazabee_dsp::IqBuf, b: &[Iq], offset: usize, gain: f64) {
    wazabee_dsp::simd::accumulate_interleaved_at(a, b, offset, gain);
}

#[cfg(test)]
mod collision_tests {
    use super::*;
    use wazabee_dsp::iq::mean_power;

    #[test]
    fn combine_extends_and_sums() {
        let mut a = vec![Iq::ONE; 4];
        combine_at(&mut a, &[Iq::ONE; 4], 2);
        assert_eq!(a.len(), 6);
        assert_eq!(a[1], Iq::ONE);
        assert_eq!(a[2], Iq::new(2.0, 0.0));
        assert_eq!(a[5], Iq::ONE);
    }

    #[test]
    fn combine_at_planar_tracks_interleaved() {
        let mut a = vec![Iq::new(0.25, -0.5); 6];
        let b = vec![Iq::new(1.0, 2.0); 4];
        let mut planar = wazabee_dsp::IqBuf::from_interleaved(&a);
        combine_at(&mut a, &b, 3);
        combine_at_planar(&mut planar, &b, 3, 1.0);
        assert_eq!(planar.len(), a.len());
        for (k, s) in a.iter().enumerate() {
            let (pi, pq) = planar.get(k);
            assert!((f64::from(pi) - s.i).abs() < 1e-6);
            assert!((f64::from(pq) - s.q).abs() < 1e-6);
        }
        // Gain scales the added member only.
        let mut g = wazabee_dsp::IqBuf::new();
        combine_at_planar(&mut g, &b, 0, 0.5);
        assert_eq!(g.get(0), (0.5, 1.0));
    }

    #[test]
    fn combine_at_zero_offset_is_elementwise_sum() {
        let mut a = vec![Iq::new(0.5, -0.5); 3];
        combine_at(&mut a, &[Iq::new(0.5, 0.5); 3], 0);
        for s in &a {
            assert_eq!(*s, Iq::new(1.0, 0.0));
        }
    }

    #[test]
    fn overlapping_equal_power_signals_double_mean_power() {
        use wazabee_dsp::Nco;
        let fs = 16.0e6;
        let mut t1 = Nco::new(0.3e6, fs);
        let mut t2 = Nco::new(-0.7e6, fs);
        let mut a: Vec<Iq> = (0..4096).map(|_| t1.next_sample()).collect();
        let b: Vec<Iq> = (0..4096).map(|_| t2.next_sample()).collect();
        combine_at(&mut a, &b, 0);
        let p = mean_power(&a);
        assert!((p - 2.0).abs() < 0.05, "combined power {p}");
    }
}
