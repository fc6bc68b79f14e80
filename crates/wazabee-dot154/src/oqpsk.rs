//! O-QPSK modulation with half-sine pulse shaping (paper §III-C, Figures 2–3)
//! and a coherent chip-domain receiver.
//!
//! Even chips ride the in-phase rail, odd chips the quadrature rail delayed by
//! one chip period `Tb`; each chip is a half-sine pulse spanning `2·Tb`. The
//! resulting waveform has a constant envelope and a continuous phase that
//! moves by exactly ±π/2 per chip period — i.e. it *is* MSK, which is the
//! entire basis of the WazaBee attack.
//!
//! ## Modulation from two pulse tables
//!
//! Pulses on one rail start `2·Tb` apart and last `2·Tb`, so they never
//! overlap: every rail sample is either untouched (`0.0`) or exactly one
//! `0.0 + v·p` with `v = ±1` and `p` a pulse sample. [`modulate_chips`]
//! therefore builds the `+pulse` and `−pulse` tables once per call with that
//! same expression (which keeps `+0.0` where `−1.0·0.0` alone would give
//! `−0.0`) and writes each output sample once: half-chip period `s` is the
//! first half of chip `s`'s pulse on one rail and the second half of chip
//! `s − 1`'s on the other. [`modulate_chips_scalar`] keeps the accumulating
//! loop it replaced, and the parity proptests pin the two bit for bit.

use wazabee_dsp::halfsine::half_sine_pulse;
use wazabee_dsp::iq::Iq;

/// Modulates a chip stream (0/1 values) to complex baseband at
/// `samples_per_chip` oversampling.
///
/// Output spans `(chips.len() + 1) · samples_per_chip` samples: the final
/// odd-rail pulse extends one chip period past the last chip boundary.
/// Bit-identical to [`modulate_chips_scalar`].
///
/// # Panics
///
/// Panics if `samples_per_chip` is zero.
pub fn modulate_chips(chips: &[u8], samples_per_chip: usize) -> Vec<Iq> {
    assert!(samples_per_chip > 0, "need at least one sample per chip");
    let spc = samples_per_chip;
    let pulse = half_sine_pulse(spc);
    // The one value each rail sample takes: `0.0 + v·p`, as accumulated into
    // a zeroed rail.
    let table = |v: f64| -> Vec<f64> { pulse.iter().map(|&p| 0.0 + v * p).collect() };
    let (plus, minus) = (table(1.0), table(-1.0));
    let silent = vec![0.0f64; spc];
    let pulse_of = |k: Option<usize>| -> Option<&[f64]> {
        let c = chips.get(k?)?;
        Some(if c & 1 == 1 { &plus } else { &minus })
    };
    let mut out = Vec::with_capacity((chips.len() + 1) * spc);
    for s in 0..=chips.len() {
        // Half-chip period `s`: chip `s` opens its pulse on rail `s % 2`,
        // chip `s − 1` closes its pulse on the other rail.
        let head = pulse_of(Some(s)).map_or(&silent[..], |p| &p[..spc]);
        let tail = pulse_of(s.checked_sub(1)).map_or(&silent[..], |p| &p[spc..]);
        let (i, q) = if s % 2 == 0 {
            (head, tail)
        } else {
            (tail, head)
        };
        out.extend(i.iter().zip(q).map(|(&i, &q)| Iq::new(i, q)));
    }
    out
}

/// Scalar reference for [`modulate_chips`]: accumulates every pulse into
/// zeroed `f64` rails, then interleaves them — bit-identical output.
///
/// # Panics
///
/// Panics if `samples_per_chip` is zero.
pub fn modulate_chips_scalar(chips: &[u8], samples_per_chip: usize) -> Vec<Iq> {
    assert!(samples_per_chip > 0, "need at least one sample per chip");
    let spc = samples_per_chip;
    let pulse = half_sine_pulse(spc);
    let n = (chips.len() + 1) * spc;
    let mut i_rail = vec![0.0f64; n];
    let mut q_rail = vec![0.0f64; n];
    for (k, &c) in chips.iter().enumerate() {
        let v = if c & 1 == 1 { 1.0 } else { -1.0 };
        let rail = if k % 2 == 0 { &mut i_rail } else { &mut q_rail };
        let base = k * spc;
        for (j, &p) in pulse.iter().enumerate() {
            if base + j < n {
                rail[base + j] += v * p;
            }
        }
    }
    i_rail
        .into_iter()
        .zip(q_rail)
        .map(|(i, q)| Iq::new(i, q))
        .collect()
}

/// Time-domain traces of one O-QPSK modulation — the data behind paper
/// Figure 2.
#[derive(Debug, Clone)]
pub struct OqpskTraces {
    /// The rectangular modulating chip signal m(t) (±1 per chip period).
    pub m: Vec<f64>,
    /// In-phase rail I(t) (half-sine pulses, even chips).
    pub i: Vec<f64>,
    /// Quadrature rail Q(t) (half-sine pulses, odd chips, delayed Tb).
    pub q: Vec<f64>,
    /// The signal envelope |s(t)|.
    pub envelope: Vec<f64>,
    /// Unwrapped phase of s(t) in radians.
    pub phase: Vec<f64>,
}

/// Computes the Figure 2 traces for a chip pattern.
pub fn traces(chips: &[u8], samples_per_chip: usize) -> OqpskTraces {
    let samples = modulate_chips(chips, samples_per_chip);
    let m: Vec<f64> = chips
        .iter()
        .flat_map(|&c| std::iter::repeat_n(if c & 1 == 1 { 1.0 } else { -1.0 }, samples_per_chip))
        .collect();
    let i: Vec<f64> = samples.iter().map(|s| s.i).collect();
    let q: Vec<f64> = samples.iter().map(|s| s.q).collect();
    let envelope: Vec<f64> = samples.iter().map(|s| s.amplitude()).collect();
    let phase = wazabee_dsp::discriminator::phase_trajectory(&samples);
    OqpskTraces {
        m,
        i,
        q,
        envelope,
        phase,
    }
}

/// A coherent O-QPSK receiver: synchronises on a known chip template via
/// complex correlation (recovering timing *and* carrier phase), derotates,
/// matched-filters both rails and slices hard chips.
///
/// This is the "true" 802.15.4 demodulator used to show that WazaBee's
/// GFSK-generated waveform really decodes on a standards-style receiver —
/// not merely on another FSK discriminator.
#[derive(Debug, Clone)]
pub struct CoherentReceiver {
    samples_per_chip: usize,
}

/// Result of coherent synchronisation.
#[derive(Debug, Clone, Copy)]
pub struct CoherentSync {
    /// Sample index where the template alignment peaked.
    pub sample_index: usize,
    /// Estimated carrier phase in radians.
    pub carrier_phase: f64,
    /// Normalised correlation magnitude at the peak (≈1 for a clean match).
    pub quality: f64,
}

impl CoherentReceiver {
    /// Creates a receiver at the given oversampling.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_chip` is zero.
    pub fn new(samples_per_chip: usize) -> Self {
        assert!(samples_per_chip > 0, "need at least one sample per chip");
        CoherentReceiver { samples_per_chip }
    }

    /// Correlates `rx` against the waveform of `template_chips`, returning
    /// the best alignment if its quality reaches `min_quality` (0..1).
    pub fn synchronize(
        &self,
        rx: &[Iq],
        template_chips: &[u8],
        min_quality: f64,
    ) -> Option<CoherentSync> {
        let template = modulate_chips(template_chips, self.samples_per_chip);
        if rx.len() < template.len() || template.is_empty() {
            return None;
        }
        let energy: f64 = template.iter().map(|s| s.power()).sum();
        let mut best: Option<CoherentSync> = None;
        for lag in 0..=rx.len() - template.len() {
            let mut acc = Iq::ZERO;
            for (k, t) in template.iter().enumerate() {
                acc += rx[lag + k] * t.conj();
            }
            let quality = acc.amplitude() / energy;
            if best.is_none_or(|b| quality > b.quality) {
                best = Some(CoherentSync {
                    sample_index: lag,
                    carrier_phase: acc.phase(),
                    quality,
                });
            }
        }
        best.filter(|b| b.quality >= min_quality)
    }

    /// Demodulates hard chips from `rx`, assuming chip 0 begins at
    /// `sync.sample_index` with carrier phase `sync.carrier_phase`.
    ///
    /// Each rail is matched-filtered with the half-sine pulse centred on its
    /// chip and sliced by sign.
    pub fn demodulate_chips(&self, rx: &[Iq], sync: &CoherentSync, max_chips: usize) -> Vec<u8> {
        let spc = self.samples_per_chip;
        let pulse = half_sine_pulse(spc);
        let derot = Iq::from_polar(1.0, -sync.carrier_phase);
        let mut chips = Vec::new();
        for k in 0..max_chips {
            let base = sync.sample_index + k * spc;
            if base + pulse.len() > rx.len() {
                break;
            }
            let mut acc = 0.0;
            for (j, &p) in pulse.iter().enumerate() {
                let s = rx[base + j] * derot;
                let rail = if k % 2 == 0 { s.i } else { s.q };
                acc += rail * p;
            }
            chips.push(u8::from(acc >= 0.0));
        }
        chips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsss::spread_bytes;
    use crate::msk::frame_chips_to_msk;
    use wazabee_dsp::AwgnSource;

    #[test]
    fn constant_envelope_in_steady_state() {
        // Paper §III-C: the amplitude of the envelope remains constant.
        let chips: Vec<u8> = (0..64).map(|k| (k * 7 % 3 == 0) as u8).collect();
        let samples = modulate_chips(&chips, 16);
        let spc = 16;
        // Skip the ramp-in/out (first and last chip period).
        for s in &samples[spc..samples.len() - 2 * spc] {
            assert!(
                (s.amplitude() - 1.0).abs() < 1e-9,
                "envelope broke: {}",
                s.amplitude()
            );
        }
    }

    #[test]
    fn phase_moves_quarter_pi_per_chip() {
        let chips = [1u8, 1, 0, 1, 0, 0, 1, 0];
        let spc = 16;
        let samples = modulate_chips(&chips, spc);
        let phase = wazabee_dsp::discriminator::phase_trajectory(&samples);
        // Between consecutive chip-boundary samples the phase changes ±π/2.
        for k in 1..chips.len() {
            let d = phase[(k + 1) * spc] - phase[k * spc];
            assert!(
                (d.abs() - std::f64::consts::FRAC_PI_2).abs() < 1e-6,
                "chip {k}: phase step {d}"
            );
        }
    }

    #[test]
    fn phase_direction_matches_msk_mapping() {
        // The waveform's per-chip rotation must equal the closed-form MSK
        // bits — the keystone of the whole attack.
        let chips = spread_bytes(&[0x42, 0x13]);
        let spc = 8;
        let samples = modulate_chips(&chips, spc);
        let phase = wazabee_dsp::discriminator::phase_trajectory(&samples);
        let msk = frame_chips_to_msk(&chips, 0);
        // Interval i spans samples [i·spc, (i+1)·spc]; skip i = 0 whose
        // direction depends on the modulator's ramp-in convention.
        for (i, &m) in msk.iter().enumerate().skip(1) {
            let d = phase[(i + 1) * spc] - phase[i * spc];
            let expect = if m == 1 { 1.0 } else { -1.0 } * std::f64::consts::FRAC_PI_2;
            assert!(
                (d - expect).abs() < 1e-6,
                "interval {i}: phase {d}, msk bit {m}"
            );
        }
    }

    #[test]
    fn traces_have_half_sine_rails() {
        let t = traces(&[1, 1, 1, 1], 32);
        // I rail peaks at chip centres of even chips (t = Tb, 3Tb, ...).
        assert!((t.i[32] - 1.0).abs() < 1e-9);
        assert!((t.q[64] - 1.0).abs() < 1e-9);
        assert_eq!(t.m.len(), 4 * 32);
        // Envelope constant once both rails are active.
        for &e in &t.envelope[32..4 * 32] {
            assert!((e - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn coherent_loopback_clean() {
        let psdu = vec![0xDE, 0xAD, 0xBE, 0xEF];
        let chips = spread_bytes(&psdu);
        let spc = 8;
        let samples = modulate_chips(&chips, spc);
        let rxr = CoherentReceiver::new(spc);
        let template = &chips[..64];
        let sync = rxr.synchronize(&samples, template, 0.5).unwrap();
        assert_eq!(sync.sample_index, 0);
        let decoded = rxr.demodulate_chips(&samples, &sync, chips.len());
        assert_eq!(decoded, chips);
    }

    #[test]
    fn coherent_recovers_carrier_phase() {
        let chips = spread_bytes(&[0x77, 0x11, 0x22]);
        let spc = 8;
        let phase_offset = 1.1;
        let samples: Vec<Iq> = modulate_chips(&chips, spc)
            .into_iter()
            .map(|s| s.rotate(phase_offset))
            .collect();
        let rxr = CoherentReceiver::new(spc);
        let sync = rxr.synchronize(&samples, &chips[..64], 0.5).unwrap();
        assert!(
            (sync.carrier_phase - phase_offset).abs() < 0.05,
            "estimated {}",
            sync.carrier_phase
        );
        let decoded = rxr.demodulate_chips(&samples, &sync, chips.len());
        assert_eq!(decoded, chips);
    }

    #[test]
    fn coherent_survives_noise() {
        // Non-repeating payload so the sync template has a unique alignment.
        let chips = spread_bytes(&[0x10, 0x32, 0x54, 0x76, 0x98, 0xBA]);
        let spc = 8;
        let mut samples = modulate_chips(&chips, spc);
        AwgnSource::from_snr_db(3, 8.0, 1.0).add_to(&mut samples);
        let rxr = CoherentReceiver::new(spc);
        let sync = rxr.synchronize(&samples, &chips[..64], 0.3).unwrap();
        let decoded = rxr.demodulate_chips(&samples, &sync, chips.len());
        // A noisy sync may land a sample late and drop the final chip.
        let n = decoded.len().min(chips.len());
        assert!(n >= chips.len() - 1, "lost {} chips", chips.len() - n);
        let errors = wazabee_dsp::bits::hamming(&decoded[..n], &chips[..n]);
        assert!(
            errors < chips.len() / 20,
            "{errors}/{n} chip errors at 8 dB"
        );
    }

    #[test]
    fn sync_fails_below_quality_floor() {
        let spc = 8;
        let mut noise = vec![Iq::ZERO; 4096];
        AwgnSource::new(4, 0.5).add_to(&mut noise);
        let rxr = CoherentReceiver::new(spc);
        let template = spread_bytes(&[0x00]);
        assert!(rxr.synchronize(&noise, &template[..64], 0.6).is_none());
    }

    #[test]
    fn modulate_output_length() {
        assert_eq!(modulate_chips(&[1, 0, 1], 4).len(), 16);
        assert!(modulate_chips(&[], 4).len() == 4);
    }
}
