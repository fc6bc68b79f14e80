//! Complex baseband sample type and buffers.
//!
//! Every modulator in this workspace produces, and every demodulator consumes,
//! a sequence of [`Iq`] samples — the complex envelope of the RF signal around
//! some carrier frequency. The medium simulator mixes, attenuates and sums
//! these buffers exactly like an RF channel combines waveforms.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// One complex baseband sample: `i` is the in-phase component, `q` the
/// quadrature component (paper §III-A, equation 2).
///
/// # Examples
///
/// ```
/// use wazabee_dsp::Iq;
///
/// let s = Iq::from_polar(1.0, std::f64::consts::FRAC_PI_2);
/// assert!((s.i).abs() < 1e-12);
/// assert!((s.q - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Iq {
    /// In-phase component `A(t)·cos(φ(t))`.
    pub i: f64,
    /// Quadrature component `A(t)·sin(φ(t))`.
    pub q: f64,
}

impl Iq {
    /// The additive identity (no signal).
    pub const ZERO: Iq = Iq { i: 0.0, q: 0.0 };
    /// Unit sample on the real axis (phase 0).
    pub const ONE: Iq = Iq { i: 1.0, q: 0.0 };

    /// Creates a sample from rectangular components.
    #[inline]
    pub const fn new(i: f64, q: f64) -> Self {
        Iq { i, q }
    }

    /// Creates a sample from polar components (amplitude, phase in radians).
    #[inline]
    pub fn from_polar(amplitude: f64, phase: f64) -> Self {
        Iq {
            i: amplitude * phase.cos(),
            q: amplitude * phase.sin(),
        }
    }

    /// Instantaneous amplitude `A(t)` (the vector norm in the complex plane).
    #[inline]
    pub fn amplitude(self) -> f64 {
        self.i.hypot(self.q)
    }

    /// Squared amplitude; cheaper than [`Iq::amplitude`] when only comparing.
    #[inline]
    pub fn power(self) -> f64 {
        self.i * self.i + self.q * self.q
    }

    /// Instantaneous phase `φ(t)` in `(-π, π]`.
    #[inline]
    pub fn phase(self) -> f64 {
        self.q.atan2(self.i)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Iq {
            i: self.i,
            q: -self.q,
        }
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Iq {
            i: self.i * k,
            q: self.q * k,
        }
    }

    /// Rotates the sample by `phase` radians (multiplication by `e^{jφ}`).
    #[inline]
    pub fn rotate(self, phase: f64) -> Self {
        self * Iq::from_polar(1.0, phase)
    }

    /// Returns true when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.i.is_finite() && self.q.is_finite()
    }
}

impl fmt::Display for Iq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.q >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.i, self.q)
        } else {
            write!(f, "{:.6}-{:.6}j", self.i, -self.q)
        }
    }
}

impl Add for Iq {
    type Output = Iq;
    #[inline]
    fn add(self, rhs: Iq) -> Iq {
        Iq {
            i: self.i + rhs.i,
            q: self.q + rhs.q,
        }
    }
}

impl AddAssign for Iq {
    #[inline]
    fn add_assign(&mut self, rhs: Iq) {
        self.i += rhs.i;
        self.q += rhs.q;
    }
}

impl Sub for Iq {
    type Output = Iq;
    #[inline]
    fn sub(self, rhs: Iq) -> Iq {
        Iq {
            i: self.i - rhs.i,
            q: self.q - rhs.q,
        }
    }
}

impl SubAssign for Iq {
    #[inline]
    fn sub_assign(&mut self, rhs: Iq) {
        self.i -= rhs.i;
        self.q -= rhs.q;
    }
}

impl Mul for Iq {
    type Output = Iq;
    #[inline]
    fn mul(self, rhs: Iq) -> Iq {
        Iq {
            i: self.i * rhs.i - self.q * rhs.q,
            q: self.i * rhs.q + self.q * rhs.i,
        }
    }
}

impl MulAssign for Iq {
    #[inline]
    fn mul_assign(&mut self, rhs: Iq) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Iq {
    type Output = Iq;
    #[inline]
    fn mul(self, rhs: f64) -> Iq {
        self.scale(rhs)
    }
}

impl Div<f64> for Iq {
    type Output = Iq;
    #[inline]
    fn div(self, rhs: f64) -> Iq {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Iq {
    type Output = Iq;
    #[inline]
    fn neg(self) -> Iq {
        Iq {
            i: -self.i,
            q: -self.q,
        }
    }
}

impl Sum for Iq {
    fn sum<I: Iterator<Item = Iq>>(iter: I) -> Iq {
        iter.fold(Iq::ZERO, |a, b| a + b)
    }
}

impl From<(f64, f64)> for Iq {
    fn from((i, q): (f64, f64)) -> Self {
        Iq { i, q }
    }
}

/// Mean power of a sample slice, in linear units.
///
/// Returns 0.0 for an empty slice.
pub fn mean_power(samples: &[Iq]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|s| s.power()).sum::<f64>() / samples.len() as f64
}

/// Unwraps a sequence of phases (radians) so successive values never jump by
/// more than π, reconstructing a continuous phase trajectory.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::iq::unwrap_phases;
/// let wrapped = vec![3.0, -3.0]; // a +0.28 rad step, wrapped around ±π
/// let un = unwrap_phases(&wrapped);
/// assert!((un[1] - un[0] - (2.0 * std::f64::consts::PI - 6.0)).abs() < 1e-12);
/// ```
pub fn unwrap_phases(phases: &[f64]) -> Vec<f64> {
    use std::f64::consts::{PI, TAU};
    let mut out = Vec::with_capacity(phases.len());
    let mut offset = 0.0;
    for (k, &p) in phases.iter().enumerate() {
        if k > 0 {
            let prev = out[k - 1] - offset;
            let mut d = p - prev;
            while d > PI {
                d -= TAU;
                offset -= TAU;
            }
            while d < -PI {
                d += TAU;
                offset += TAU;
            }
        }
        out.push(p + offset);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn polar_round_trip() {
        let s = Iq::from_polar(2.5, 1.0);
        assert!((s.amplitude() - 2.5).abs() < 1e-12);
        assert!((s.phase() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiplication_adds_phases() {
        let a = Iq::from_polar(1.0, 0.4);
        let b = Iq::from_polar(2.0, 0.7);
        let c = a * b;
        assert!((c.amplitude() - 2.0).abs() < 1e-12);
        assert!((c.phase() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn conjugate_negates_phase() {
        let a = Iq::from_polar(1.0, 0.9);
        assert!((a.conj().phase() + 0.9).abs() < 1e-12);
    }

    #[test]
    fn rotate_quarter_turn() {
        let a = Iq::ONE.rotate(FRAC_PI_2);
        assert!(a.i.abs() < 1e-12);
        assert!((a.q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sum_and_mean_power() {
        let buf = vec![Iq::new(1.0, 0.0), Iq::new(0.0, 1.0)];
        let total: Iq = buf.iter().copied().sum();
        assert_eq!(total, Iq::new(1.0, 1.0));
        assert!((mean_power(&buf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_power_empty_is_zero() {
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn unwrap_recovers_linear_ramp() {
        // A +π/2-per-step ramp wraps every 4 steps; unwrap must restore it.
        let n = 32;
        let truth: Vec<f64> = (0..n).map(|k| k as f64 * FRAC_PI_2).collect();
        let wrapped: Vec<f64> = truth
            .iter()
            .map(|p| {
                let mut x = p.rem_euclid(TAU);
                if x > PI {
                    x -= TAU;
                }
                x
            })
            .collect();
        let un = unwrap_phases(&wrapped);
        for k in 1..n {
            let d = (un[k] - un[k - 1]) - FRAC_PI_2;
            assert!(d.abs() < 1e-9, "step {k} deviates by {d}");
        }
    }

    #[test]
    fn display_formats_both_signs() {
        assert_eq!(format!("{}", Iq::new(1.0, 2.0)), "1.000000+2.000000j");
        assert_eq!(format!("{}", Iq::new(1.0, -2.0)), "1.000000-2.000000j");
    }

    #[test]
    fn neg_and_sub_agree() {
        let a = Iq::new(0.3, -0.4);
        let b = Iq::new(1.0, 2.0);
        assert_eq!(a - b, a + (-b));
    }
}

/// Received signal strength relative to full scale, in dBFS
/// (`10·log10(mean power)`); `-inf` for silence.
///
/// The simulation has no absolute dBm reference, so monitors and sniffers
/// report strengths relative to the unit-power modems.
pub fn rssi_dbfs(samples: &[Iq]) -> f64 {
    let p = mean_power(samples);
    10.0 * p.log10()
}

#[cfg(test)]
mod rssi_tests {
    use super::*;

    #[test]
    fn unit_tone_is_zero_dbfs() {
        let buf = vec![Iq::from_polar(1.0, 0.3); 64];
        assert!(rssi_dbfs(&buf).abs() < 1e-9);
    }

    #[test]
    fn half_amplitude_is_minus_six_db() {
        let buf = vec![Iq::from_polar(0.5, 0.0); 64];
        assert!((rssi_dbfs(&buf) + 6.0206).abs() < 1e-3);
    }

    #[test]
    fn silence_is_negative_infinity() {
        assert_eq!(rssi_dbfs(&[Iq::ZERO; 8]), f64::NEG_INFINITY);
        assert_eq!(rssi_dbfs(&[]), f64::NEG_INFINITY);
    }
}
