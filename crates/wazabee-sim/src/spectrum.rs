//! The shared medium: per-channel busy periods ("clusters") of overlapping
//! transmissions on a global sample timeline, and the superposition / CCA
//! arithmetic over them.
//!
//! A cluster opens when a transmission starts on an idle channel and closes
//! when the last overlapping transmission ends. Only then is the waveform
//! each receiver heard materialised: every member transmission is summed in
//! at its sample offset via [`combine_at`], scaled by its source's path
//! gain — so a collision is two frames *actually adding* in the complex
//! plane, and whether either survives is decided by the demodulator, not by
//! a packet-level coin flip.
//!
//! CCA runs over the same planar `f32` superposition the demodulators decode
//! ([`cca_power_planar`]): what carrier sense measures is exactly the energy
//! receivers hear, down to the `f32` narrowing.

use wazabee_dsp::IqBuf;
use wazabee_radio::{combine_at_planar, Instant};

#[cfg(test)]
use wazabee_dsp::iq::Iq;

/// What kind of energy a transmission is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxKind {
    /// A modulated 802.15.4 frame (from a real or diverted radio).
    Frame,
    /// A shaped-noise jamming burst.
    Jam,
}

/// Which queue a frame transmission came from, deciding the sender-side
/// bookkeeping when it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxOrigin {
    /// Head of a Zigbee node's CSMA queue (may await an ACK).
    Head,
    /// An immediate frame: ACK after turnaround, bypassing CSMA.
    Immediate,
    /// Attacker-originated; no MAC bookkeeping.
    Attacker,
}

/// One transmission on the air.
#[derive(Debug)]
pub(crate) struct Transmission {
    /// Shard-local index of the transmitting node.
    pub source: usize,
    /// Keyup instant.
    pub start: Instant,
    /// Instant the carrier drops.
    pub end: Instant,
    /// The baseband waveform, at unit gain.
    pub samples: Vec<wazabee_dsp::Iq>,
    pub kind: TxKind,
    pub origin: TxOrigin,
    /// MAC sequence number, for frame transmissions with sender bookkeeping.
    pub seq: Option<u8>,
    /// Whether the frame solicits an acknowledgement.
    pub ack_request: bool,
    /// Whether sender-side end-of-transmission bookkeeping has run.
    pub finalized: bool,
}

/// Per-channel busy-period state.
#[derive(Debug, Default)]
pub(crate) struct ChannelAir {
    /// Transmissions of the current cluster (empty when the channel has been
    /// idle since the last close).
    pub cluster: Vec<Transmission>,
    /// How many cluster members are still on the air.
    pub active: usize,
    /// Keyup instant of the cluster's first transmission.
    pub cluster_start: Instant,
}

/// Zero samples prepended to every receiver window so the discriminator
/// settles before the first transmission's preamble.
pub(crate) const LEAD_PAD: usize = 64;

/// Zero samples appended after the cluster's last sample.
pub(crate) const TAIL_PAD: usize = 32;

/// Superposes a closed cluster into the planar waveform one receiver hears:
/// every transmission summed at its sample offset, scaled by `gains[k]`
/// (one entry per cluster member, in order).
///
/// Each member is placed with one fused scale-and-add kernel pass — no
/// per-member scaled temporary — and the result stays planar all the way
/// into the streaming demodulator.
pub(crate) fn superpose_planar(
    cluster: &[Transmission],
    gains: &[f64],
    cluster_start: Instant,
    cluster_end: Instant,
    samples_per_us: u64,
) -> IqBuf {
    let span = (cluster_end.0 - cluster_start.0) * samples_per_us;
    let mut buf = IqBuf::new();
    buf.resize(span as usize + LEAD_PAD + TAIL_PAD);
    for (tx, &g) in cluster.iter().zip(gains) {
        let offset = ((tx.start.0 - cluster_start.0) * samples_per_us) as usize + LEAD_PAD;
        combine_at_planar(&mut buf, &tx.samples, offset, g);
    }
    buf
}

/// Mean power over the trailing CCA window `[now - window_us, now]` of the
/// superposed live spectrum: the energy a CCA measurement integrates.
/// `gains[k]` scales cluster member `k`, as in [`superpose_planar`].
///
/// The window is accumulated into `scratch` (cleared and reused across
/// measurements — no per-call allocation on the CCA hot path) through the
/// same planar `f32` scale-and-add kernel the receive superposition uses, so
/// carrier sense and demodulation integrate *identical* energy. The old
/// interleaved `f64` path could disagree with what receivers actually heard
/// right at the threshold; the busy/idle parity test below pins the planar
/// agreement.
pub(crate) fn cca_power_planar(
    cluster: &[Transmission],
    gains: &[f64],
    now: Instant,
    window_us: u64,
    samples_per_us: u64,
    scratch: &mut IqBuf,
) -> f64 {
    let win_start = now.0.saturating_sub(window_us);
    let win_len = ((now.0 - win_start) * samples_per_us) as usize;
    if win_len == 0 {
        return 0.0;
    }
    let g0 = win_start * samples_per_us;
    scratch.clear();
    scratch.resize(win_len);
    for (tx, &g) in cluster.iter().zip(gains) {
        let s0 = tx.start.0 * samples_per_us;
        let lo = g0.max(s0);
        let hi = (s0 + tx.samples.len() as u64).min(g0 + win_len as u64);
        if lo >= hi {
            continue;
        }
        combine_at_planar(
            scratch,
            &tx.samples[(lo - s0) as usize..(hi - s0) as usize],
            (lo - g0) as usize,
            g,
        );
    }
    scratch.mean_power()
}

/// The retired interleaved `f64` CCA integration, kept as the reference the
/// planar path is parity-tested against.
#[cfg(test)]
fn cca_power_interleaved(
    cluster: &[Transmission],
    gains: &[f64],
    now: Instant,
    window_us: u64,
    samples_per_us: u64,
) -> f64 {
    let win_start = now.0.saturating_sub(window_us);
    let win_len = ((now.0 - win_start) * samples_per_us) as usize;
    if win_len == 0 {
        return 0.0;
    }
    let g0 = win_start * samples_per_us;
    let mut buf = vec![Iq::ZERO; win_len];
    for (tx, &g) in cluster.iter().zip(gains) {
        let s0 = tx.start.0 * samples_per_us;
        let lo = g0.max(s0);
        let hi = (s0 + tx.samples.len() as u64).min(g0 + win_len as u64);
        for gidx in lo..hi {
            buf[(gidx - g0) as usize] += tx.samples[(gidx - s0) as usize].scale(g);
        }
    }
    wazabee_dsp::iq::mean_power(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(source: usize, start: u64, n_us: u64, spu: u64, amp: f64) -> Transmission {
        Transmission {
            source,
            start: Instant(start),
            end: Instant(start + n_us),
            samples: vec![Iq::new(amp, 0.0); (n_us * spu) as usize],
            kind: TxKind::Frame,
            origin: TxOrigin::Attacker,
            seq: None,
            ack_request: false,
            finalized: false,
        }
    }

    fn cca(cluster: &[Transmission], gains: &[f64], now: Instant, spu: u64) -> f64 {
        let mut scratch = IqBuf::new();
        cca_power_planar(cluster, gains, now, 128, spu, &mut scratch)
    }

    #[test]
    fn superposition_adds_overlap_only() {
        let spu = 2;
        let a = tx(0, 100, 10, spu, 1.0);
        let b = tx(1, 105, 10, spu, 1.0);
        let buf = superpose_planar(&[a, b], &[1.0, 1.0], Instant(100), Instant(115), spu);
        assert_eq!(buf.len(), 30 + LEAD_PAD + TAIL_PAD);
        // Disjoint head: amplitude 1; overlap: amplitude 2.
        assert_eq!(buf.i()[LEAD_PAD], 1.0);
        assert_eq!(buf.i()[LEAD_PAD + 11], 2.0);
        assert_eq!(buf.i()[LEAD_PAD + 25], 1.0);
    }

    #[test]
    fn gains_scale_each_member() {
        let spu = 2;
        let a = tx(0, 0, 4, spu, 1.0);
        let buf = superpose_planar(&[a], &[0.5], Instant(0), Instant(4), spu);
        assert_eq!(buf.i()[LEAD_PAD], 0.5);
    }

    #[test]
    fn cca_sees_only_energy_inside_the_window() {
        let spu = 2;
        // A transmission that ended at t=50 contributes nothing at t=200.
        let old = tx(0, 40, 10, spu, 1.0);
        assert!(cca(&[old], &[1.0], Instant(200), spu) < 1e-12);
        // A live transmission fully covering the window reads its power.
        let live = tx(0, 0, 400, spu, 1.0);
        let p = cca(&[live], &[1.0], Instant(200), spu);
        assert!((p - 1.0).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn cca_partial_overlap_dilutes_power() {
        let spu = 2;
        // Keyed up 64 µs ago: half the 128 µs window has energy.
        let live = tx(0, 136, 400, spu, 1.0);
        let p = cca(&[live], &[1.0], Instant(200), spu);
        assert!((p - 0.5).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn cca_at_time_zero_is_silent() {
        assert_eq!(cca(&[], &[], Instant(0), 2), 0.0);
    }

    #[test]
    fn cca_scratch_is_reused_without_stale_energy() {
        let spu = 4;
        let mut scratch = IqBuf::new();
        let loud = tx(0, 0, 400, spu, 3.0);
        let p1 = cca_power_planar(&[loud], &[1.0], Instant(200), 128, spu, &mut scratch);
        assert!(p1 > 8.0, "p1 = {p1}");
        // A silent channel measured through the same scratch must read zero
        // even though the buffer previously held the loud window.
        let p2 = cca_power_planar(&[], &[], Instant(200), 128, spu, &mut scratch);
        assert_eq!(p2, 0.0);
        // And a shorter window must not read tail samples of a longer one.
        let quiet = tx(0, 190, 400, spu, 1.0);
        let p3 = cca_power_planar(&[quiet], &[1.0], Instant(200), 128, spu, &mut scratch);
        assert!((p3 - 10.0 / 128.0).abs() < 1e-6, "p3 = {p3}");
    }

    /// Regression (CCA/decode energy disagreement): the CCA measurement must
    /// integrate the *same* waveform the demodulators decode — the planar
    /// `f32` superposition — not a separately-built interleaved `f64` window.
    /// Pins the planar CCA against `superpose_planar` output sample-for-
    /// sample at the `f32` boundary, and the busy/idle verdict against the
    /// retired interleaved reference across gains that straddle a threshold.
    #[test]
    fn cca_matches_the_superposition_receivers_hear() {
        let spu = 8;
        let window_us = 128;
        let threshold = 0.05;
        let mut scratch = IqBuf::new();
        for &(ga, gb) in &[
            (1.0, 1.0),
            (0.223_6, 0.0), // ga² ≈ 0.05: right at the threshold
            (0.223_7, 0.0),
            (0.158, 0.158), // combined power ≈ 0.0499
            (0.5, 0.25),
            (1e-3, 1e-3),
        ] {
            let a = tx(0, 100, 300, spu, ga);
            let b = tx(1, 150, 300, spu, gb);
            let cluster = [a, b];
            let gains = [1.0, 1.0];
            let now = Instant(250);

            // The waveform the receivers will decode when this cluster
            // closes, restricted to the CCA window.
            let full = superpose_planar(&cluster, &gains, Instant(100), Instant(450), spu);
            let w0 = ((now.0 - window_us - 100) * spu) as usize + LEAD_PAD;
            let w1 = ((now.0 - 100) * spu) as usize + LEAD_PAD;
            let mut window = IqBuf::new();
            window.extend_slice(full.slice(w0, w1));
            let heard = window.mean_power();

            let measured = cca_power_planar(&cluster, &gains, now, window_us, spu, &mut scratch);
            assert!(
                (measured - heard).abs() <= 1e-9 * heard.max(1.0),
                "CCA ({measured}) disagrees with decoded superposition ({heard}) \
                 at gains ({ga}, {gb})"
            );

            // Busy/idle verdicts agree with the retired f64 reference: the
            // f32 narrowing moves the measurement by ~1e-7 relative, far
            // inside any sane threshold margin.
            let reference = cca_power_interleaved(&cluster, &gains, now, window_us, spu);
            assert_eq!(
                measured >= threshold,
                reference >= threshold,
                "verdict flipped at gains ({ga}, {gb}): planar {measured} vs f64 {reference}"
            );
            assert!(
                (measured - reference).abs() <= 1e-6 * reference.max(1.0),
                "planar {measured} drifted from f64 reference {reference}"
            );
        }
    }
}
