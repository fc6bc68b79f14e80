//! Frame-like demodulated lanes: the bit streams the streaming receiver's
//! sync search reads, built without a radio in front of it.
//!
//! Random bits make the pigeonhole prefilter look better than it is: a real
//! lane repeats the sync symbol through every preamble, so candidates and
//! hits cluster densely there. These lanes reproduce that shape for the
//! exactness tests and the correlator benchmarks, which compare the sync
//! search against [`oracle_hits`].

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wazabee_dot154::msk::{boundary_msk_bit, pn_msk_image};
use wazabee_dot154::pn::pn_sequence;
use wazabee_dsp::correlate::{find_pattern_scalar, PatternMatch};

/// A `len`-bit lane of 802.15.4 frames as a diverted BLE receiver
/// demodulates them: noise gaps of up to 256 random bits, each followed by
/// a frame's MSK image (eight `0000` preamble symbols, the SFD symbols `7`
/// and `A`, then 8..64 random body symbols, each symbol a boundary bit plus
/// its 31-bit PN image). Every bit is then flipped with probability `flip`.
/// The same seed gives the same lane.
///
/// # Panics
///
/// Panics unless `flip` is in `0.0..=1.0`.
pub fn frame_like_lane(seed: u64, len: usize, flip: f64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut lane = Vec::with_capacity(len + 32 * 74);
    while lane.len() < len {
        let gap = rng.gen_range(0..=256usize);
        lane.extend((0..gap).map(|_| rng.gen_range(0..=1u8)));
        let body = rng.gen_range(8..=64usize);
        let symbols = [0u8; 8]
            .into_iter()
            .chain([7, 0xA])
            .chain((0..body).map(|_| rng.gen_range(0..16u8)))
            .collect::<Vec<_>>();
        let mut prev = pn_sequence(0)[31];
        for s in symbols {
            let pn = pn_sequence(s);
            lane.push(boundary_msk_bit(prev, pn[0], false));
            lane.extend(pn_msk_image(s));
            prev = pn[31];
        }
    }
    lane.truncate(len);
    for bit in &mut lane {
        *bit ^= u8::from(rng.gen_bool(flip));
    }
    lane
}

/// Every alignment of `pattern` in `lane` within `max_errors`, in order:
/// the byte-per-bit `find_pattern_scalar` restarted one bit past each hit.
pub fn oracle_hits(lane: &[u8], pattern: &[u8], max_errors: usize) -> Vec<PatternMatch> {
    let mut hits = Vec::new();
    let mut start = 0;
    while let Some(m) = find_pattern_scalar(lane, pattern, start, max_errors) {
        start = m.index + 1;
        hits.push(m);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_carries_the_sync_pattern() {
        let lane = frame_like_lane(1, 4096, 0.0);
        let sync = wazabee::access_address_pattern();
        let hits = lane.windows(32).filter(|w| *w == sync).count();
        assert!(hits >= 8, "only {hits} exact sync hits in a clean lane");
        assert_eq!(frame_like_lane(1, 4096, 0.0), lane, "same seed, same lane");
        assert_eq!(frame_like_lane(2, 1000, 0.1).len(), 1000);
    }
}
