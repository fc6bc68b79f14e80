//! Seeded input generation: office-channel captures of 802.15.4 frames with
//! decoy false-sync bursts, and the check that decoded frames come back in
//! order carrying their own payloads.

use wazabee_ble::{BleModem, BlePhy};
use wazabee_dot154::msk::frame_chips_to_msk;
use wazabee_dot154::pn::pn_sequence;
use wazabee_dot154::{fcs::append_fcs, Dot154Modem, Ppdu};
use wazabee_dsp::{Iq, IqBuf};
use wazabee_radio::{Link, LinkConfig, RfFrame};

/// Samples per symbol of the decode plane (LE 2M → 16 MS/s).
pub const SPS: usize = 8;

/// Chunk size of the simulated SDR front-end, in samples (256 µs of air).
pub const CHUNK: usize = 4096;

/// Frames in every generated capture.
pub const FRAMES: usize = 64;

/// SplitMix64: a tiny, well-mixed generator for seed-derived inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One capture: planar IQ padded with silence to a whole number of chunks,
/// and the PSDU (MAC frame plus FCS) of every frame in it, in air order.
pub struct Capture {
    /// The samples, `len() % CHUNK == 0`.
    pub iq: IqBuf,
    /// Expected PSDUs in the order they are on the air.
    pub psdus: Vec<Vec<u8>>,
}

impl Capture {
    /// Whole chunks in the capture.
    pub fn chunks(&self) -> usize {
        self.iq.len() / CHUNK
    }

    /// Chunk `k` as a zero-copy planar window.
    pub fn chunk(&self, k: usize) -> wazabee_dsp::IqSlice<'_> {
        self.iq.slice(k * CHUNK, (k + 1) * CHUNK)
    }
}

/// A decoy burst: the diverted access-address sync pattern followed by a
/// non-SFD symbol. The correlator fires and the SFD check kills the
/// attempt, so every decoy costs one wasted resync.
fn decoy_burst(ble: &BleModem) -> Vec<Iq> {
    let mut bits: Vec<u8> = (0..wazabee::tx::TX_WARMUP_BITS)
        .map(|k| (k % 2) as u8)
        .collect();
    let mut chips = pn_sequence(0).to_vec();
    chips.extend(pn_sequence(5));
    bits.extend(frame_chips_to_msk(&chips, 0));
    ble.transmit_raw(&bits)
}

/// Builds a [`FRAMES`]-frame capture over the 3 m office link (22 dB SNR,
/// 8 kHz CFO, fractional timing offset) from `seed`. Every payload is unique: `[tag, index, 6 seeded bytes]`, so a
/// frame delivered to the wrong session or out of order is caught. A decoy
/// burst precedes every 8th frame.
pub fn build(seed: u64, tag: u8) -> Capture {
    let zigbee = Dot154Modem::new(SPS);
    let ble = BleModem::new(BlePhy::Le2M, SPS);
    // At 16–20 dB about one frame in 40 000 takes a symbol error from the
    // noise draw alone (2 of 76 800 over 1 200 seeded captures), enough to
    // fail a run now and then; 22 dB showed none in as many.
    let cfg = LinkConfig::office_3m();
    let mut rng = seed ^ (u64::from(tag) << 56);
    let mut air: Vec<Iq> = Vec::new();
    let mut psdus = Vec::with_capacity(FRAMES);
    for k in 0..FRAMES {
        if k % 8 == 3 {
            air.extend(decoy_burst(&ble));
        }
        let r = splitmix(&mut rng).to_le_bytes();
        let mut payload = vec![tag, k as u8];
        payload.extend_from_slice(&r[..6]);
        let psdu = append_fcs(&payload);
        let ppdu = Ppdu::new(psdu.clone()).expect("a 10-byte PSDU fits a PPDU");
        let mut link = Link::new(cfg, splitmix(&mut rng));
        air.extend(link.deliver(
            &RfFrame::new(2420, zigbee.transmit(&ppdu), zigbee.sample_rate()),
            2420,
        ));
        psdus.push(psdu);
    }
    let padded = air.len().div_ceil(CHUNK) * CHUNK;
    air.resize(padded, Iq::ZERO);
    Capture {
        iq: IqBuf::from_interleaved(&air),
        psdus,
    }
}

/// Checks a stream of decoded frames against a capture replayed back to
/// back: each frame must be the next expected PSDU, FCS valid.
pub struct FrameCheck<'a> {
    expected: &'a [Vec<u8>],
    next: usize,
    /// Frames that came back with a valid FCS and their own payload.
    pub matched: u64,
    /// Frames that did not: bad FCS, a foreign payload or a repeat.
    pub unexpected: u64,
}

impl<'a> FrameCheck<'a> {
    /// A check expecting `expected` over and over, starting at its first.
    pub fn new(expected: &'a [Vec<u8>]) -> Self {
        FrameCheck {
            expected,
            next: 0,
            matched: 0,
            unexpected: 0,
        }
    }

    /// Accounts one decoded frame. A known frame with a valid FCS matches
    /// even after a gap (the frames skipped stay unmatched); a bad FCS, a
    /// foreign payload or a repeat of the previous frame does not.
    pub fn frame(&mut self, psdu: &[u8], fcs_ok: bool) {
        let n = self.expected.len();
        let at = self.next % n;
        let pos = if self.expected[at] == psdu {
            Some(at)
        } else {
            self.expected.iter().position(|e| e.as_slice() == psdu)
        };
        match pos {
            Some(j) if fcs_ok && (self.next == 0 || j != (self.next - 1) % n) => {
                self.next += (j + n - at) % n + 1;
                self.matched += 1;
            }
            _ => self.unexpected += 1,
        }
    }

    /// Failed operations out of `attempted` expected frames: every expected
    /// frame not matched, or every frame that should not have come back if
    /// there are more of those. A frame corrupted in flight is both, and
    /// counts once.
    pub fn failed(&self, attempted: u64) -> u64 {
        attempted.saturating_sub(self.matched).max(self.unexpected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_check_counts_misses_and_strangers() {
        let exp = vec![vec![1u8], vec![2], vec![3]];
        let mut c = FrameCheck::new(&exp);
        for round in 0..2 {
            for e in &exp {
                if round == 1 && e[0] == 2 {
                    continue; // lost frame
                }
                c.frame(e, true);
            }
        }
        // The frame after the loss still matches; the lost one does not.
        assert_eq!(c.matched, 5);
        assert_eq!(c.failed(6), 1);
        // A foreign payload, a bad FCS and a repeated frame all fail; the
        // lost frame is not counted again on top of them.
        c.frame(&[9], true);
        c.frame(&[1], false);
        c.frame(&[3], true);
        assert_eq!(c.matched, 5);
        assert_eq!(c.failed(6), 3);
    }

    #[test]
    fn payloads_are_seeded_and_unique() {
        let a = build(7, b'S');
        let b = build(7, b'S');
        let c = build(8, b'S');
        assert_eq!(a.psdus, b.psdus);
        assert_ne!(a.psdus, c.psdus);
        let mut uniq = a.psdus.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), FRAMES);
        assert_eq!(a.iq.len() % CHUNK, 0);
    }
}
