//! The streaming reception engine: resync-after-failure over IQ chunks.
//!
//! The one-shot receiver locked onto the first access-address correlator hit
//! and gave up on the whole capture if that attempt failed — a decoy burst, a
//! corrupted preamble, or a reserved PHR early in the window swallowed every
//! genuine frame behind it. [`StreamingRx`] fixes that end to end: it
//! consumes IQ in chunks of any size, keeps one demodulation lane per sample
//! phase with a persistent [`StreamCorrelator`], and after every committed
//! attempt — delivered frame *or* typed failure — re-arms the sync search
//! just past the consumed region and keeps scanning. Results come out in
//! stream order, one `Result` per attempt.
//!
//! Chunking is observationally invisible: feeding the same samples in any
//! chunk sizes yields byte-for-byte the same sequence of frames and typed
//! failures, because demodulation, correlation and despreading all operate
//! on absolute bit indexes carried across chunk boundaries.
//!
//! ## Planar SIMD demodulation
//!
//! The discriminator's first differences are *lane-independent*: lane `o`'s
//! soft bit `b` is just the sum of global differences
//! `diff[o + b·sps .. o + (b+1)·sps]`. The engine therefore keeps samples
//! planar ([`wazabee_dsp::IqBuf`]) and extends one shared `f32` difference
//! cache incrementally per push (each new sample pair is discriminated exactly
//! once, through the explicit-width SIMD kernel). Since there is one lane per
//! sample phase, every window start belongs to exactly one lane, so one
//! contiguous all-phase pass ([`wazabee_dsp::simd::sliding_sums_into`]) sums
//! the window at every offset from the slowest lane's cursor on, and each
//! lane packs the signs of every `sps`-th sum straight into its bit words, 64
//! at a time. The sums leave the `1/sps` dump scaling out since `sum ≥ 0`
//! decides the bit either way, and each window accumulates in the same left
//! to right order as a per-lane windowed sum would. Each lane's correlator
//! then reads its fresh bits a word at a time. Golden decodes in the
//! integration suite, recorded from the retired per-lane `f64` engine, pin
//! that this flips no decision.

use std::collections::VecDeque;

use wazabee_dot154::modem::ReceivedPpdu;
use wazabee_dsp::correlate::PatternMatch;
use wazabee_dsp::{simd, Iq, IqBuf, PackedBits, StreamCorrelator};
use wazabee_flightrec::{FrameKind, TraceHandle};

use crate::error::WazaBeeError;
use crate::radio::RawFskRadio;
use crate::rx::{
    access_address_packed, estimate_cfo_hz_synced, rx_failure, DecodeOutcome, WazaBeeRx,
};

/// Once the retained region grows this many bits past the low-water mark,
/// the front of the buffers is released.
const TRIM_THRESHOLD_BITS: usize = 4096;

/// Bits kept behind the low-water mark when trimming, so small bookkeeping
/// differences can never reach back past the buffer start.
const TRIM_SLACK_BITS: usize = 64;

/// One demodulation lane: the bit stream recovered at a fixed sample-phase
/// offset, its always-armed correlator, and the sync hits awaiting decode.
#[derive(Debug, Clone)]
struct Lane {
    /// Demodulated hard bits, trimmed at the front; bit `k` here is absolute
    /// bit `base_bits + k`.
    bits: PackedBits,
    /// Persistent sync correlator (absolute indexes).
    corr: StreamCorrelator,
    /// Pending sync hits at absolute indexes `>= armed`, in stream order.
    matches: VecDeque<PatternMatch>,
}

/// A chunk-fed 802.15.4 receiver over a diverted radio that re-arms after
/// every attempt instead of abandoning the capture on the first failure.
///
/// Feed IQ with [`StreamingRx::push`] (any chunk sizes), then flush with
/// [`StreamingRx::finish`]. Each returned element is one committed decode
/// attempt: `Ok` with a recovered frame, or `Err` with the typed reason that
/// attempt died. Attempts never straddle a flush — a frame cut short by the
/// end of the stream surfaces as [`WazaBeeError::Truncated`] from `finish`.
///
/// # Examples
///
/// ```
/// use wazabee::{WazaBeeRx, WazaBeeTx};
/// use wazabee_ble::{BleModem, BlePhy};
/// use wazabee_dot154::{fcs::append_fcs, Ppdu};
///
/// let tx = WazaBeeTx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
/// let rx = WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap();
/// let ppdu = Ppdu::new(append_fcs(&[1, 2, 3])).unwrap();
/// let air = tx.transmit(&ppdu);
///
/// let mut stream = rx.stream();
/// let mut results = Vec::new();
/// for chunk in air.chunks(1000) {
///     results.extend(stream.push(chunk));
/// }
/// results.extend(stream.finish());
/// let frame = results.into_iter().find_map(Result::ok).unwrap();
/// assert_eq!(frame.psdu, ppdu.psdu());
/// ```
#[derive(Debug)]
pub struct StreamingRx<'a, R> {
    rx: &'a WazaBeeRx<R>,
    /// Samples per symbol — also the number of demodulation lanes.
    sps: usize,
    /// Sync pattern length in bits (32 for the diverted access address).
    pattern_len: usize,
    /// Retained planar IQ, trimmed at the front in lockstep with the lanes;
    /// sample `i` here is absolute sample `base_bits * sps + i`.
    samples: IqBuf,
    /// Shared discriminator first differences: `diffs[k]` is the phase step
    /// between retained samples `k` and `k+1`, so every lane's soft bits are
    /// window sums over this one cache.
    diffs: Vec<f32>,
    /// Scratch for the all-phase window sums: `sums_scratch[t]` sums the
    /// `sps` differences starting at the slowest lane's cursor plus `t`.
    sums_scratch: Vec<f32>,
    /// Scratch for one lane's fresh sync hits before the armed filter.
    hits_scratch: Vec<PatternMatch>,
    /// Absolute bit index of local bit 0 (same for every lane).
    base_bits: usize,
    lanes: Vec<Lane>,
    /// Sync hits below this absolute bit index are spent: either consumed by
    /// a delivered frame or one-past a committed failure.
    armed: usize,
    /// Committed decode attempts so far (frames and failures).
    attempts: u64,
    /// Frames delivered so far.
    frames: u64,
}

impl<R: RawFskRadio> WazaBeeRx<R> {
    /// Opens a chunk-fed streaming receiver over this primitive's radio and
    /// configuration. See [`StreamingRx`].
    pub fn stream(&self) -> StreamingRx<'_, R> {
        let pattern = access_address_packed();
        let sps = self.radio().samples_per_symbol();
        let corr = StreamCorrelator::new(pattern, self.max_sync_errors());
        let lanes = (0..sps)
            .map(|_| Lane {
                bits: PackedBits::default(),
                corr: corr.clone(),
                matches: VecDeque::new(),
            })
            .collect();
        StreamingRx {
            rx: self,
            sps,
            pattern_len: pattern.len(),
            samples: IqBuf::new(),
            diffs: Vec::new(),
            sums_scratch: Vec::new(),
            hits_scratch: Vec::new(),
            base_bits: 0,
            lanes,
            armed: 0,
            attempts: 0,
            frames: 0,
        }
    }
}

impl<R: RawFskRadio> StreamingRx<'_, R> {
    /// Consumes one IQ chunk (any size, including empty) and returns every
    /// attempt that could be *committed* with the bits now available, in
    /// stream order. Attempts still waiting on future bits are held
    /// internally and re-examined on the next push.
    pub fn push(&mut self, chunk: &[Iq]) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
        wazabee_telemetry::counter!("wazabee.stream.chunks").inc();
        self.samples.extend_interleaved(chunk);
        self.ingest();
        let out = self.drain(false);
        self.trim();
        out
    }

    /// Planar form of [`StreamingRx::push`]: consumes a zero-copy planar
    /// window without ever interleaving. Chunking remains observationally
    /// invisible, and mixing `push` and `push_planar` on one stream is fine —
    /// both append to the same retained buffer.
    pub fn push_planar(
        &mut self,
        chunk: wazabee_dsp::IqSlice<'_>,
    ) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
        wazabee_telemetry::counter!("wazabee.stream.chunks").inc();
        self.samples.extend_slice(chunk);
        self.ingest();
        let out = self.drain(false);
        self.trim();
        out
    }

    /// Flushes the stream: every held attempt is decoded against the final
    /// bit count, with mid-frame stream ends committed as
    /// [`WazaBeeError::Truncated`].
    pub fn finish(mut self) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
        self.flush()
    }

    /// In-place form of [`StreamingRx::finish`]: commits every held attempt
    /// against the final bit count without consuming the engine, so a pooled
    /// engine can be [`StreamingRx::reset`] and recycled for the next
    /// session. Pushing more samples after a flush without a reset continues
    /// the old stream (flush does not rewind the armed point).
    pub fn flush(&mut self) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
        self.drain(true)
    }

    /// Returns the engine to its freshly opened state while *reusing* every
    /// allocation — the lane bit words, the retained sample rails, the diff
    /// cache and the scratch buffers all keep their capacity. A session pool
    /// recycles engines through `flush` → `reset` instead of rebuilding the
    /// per-lane state per stream; the regression suite pins that a reset
    /// engine decodes byte-identically to a fresh one.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.diffs.clear();
        self.sums_scratch.clear();
        self.hits_scratch.clear();
        self.base_bits = 0;
        self.armed = 0;
        self.attempts = 0;
        self.frames = 0;
        for lane in &mut self.lanes {
            lane.bits.clear();
            lane.corr.reset();
            lane.matches.clear();
        }
    }

    /// Committed decode attempts so far (frames plus typed failures).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Frames delivered so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Demodulates whatever fresh bits the retained samples now support, per
    /// lane, and runs them through that lane's correlator.
    ///
    /// Lanes are independent, so all of them demodulate first and then all
    /// of them correlate: one `stream.demod` and one `stream.correlate` scope
    /// per call instead of one each per lane.
    fn ingest(&mut self) {
        let sps = self.sps;
        {
            let _s = wazabee_telemetry::scope!("stream.demod");
            // One shared discriminator pass: each new sample pair contributes
            // exactly one difference, through the radio's planar hook (the
            // SIMD kernel for every modem in this workspace). The `sps` lanes
            // then read disjoint phase offsets of this cache instead of
            // re-running the discriminator per lane.
            let n = self.samples.len();
            if n >= 2 && self.diffs.len() < n - 1 {
                let from = self.diffs.len();
                self.rx
                    .radio()
                    .discriminate_planar_into(self.samples.slice_from(from), &mut self.diffs);
            }
            // Lane `o`'s next window starts at difference `o + bits·sps`, so
            // every complete window start at or past the slowest lane's
            // cursor belongs to exactly one lane: one contiguous all-phase
            // pass computes them all, then each lane packs the signs of
            // every `sps`-th sum into its bit words 64 at a time.
            let from = self
                .lanes
                .iter()
                .enumerate()
                .map(|(o, l)| o + l.bits.len() * sps)
                .min()
                .unwrap_or(0);
            let sums = &mut self.sums_scratch;
            sums.clear();
            simd::sliding_sums_into(self.diffs.get(from..).unwrap_or(&[]), sps, sums);
            for (offset, lane) in self.lanes.iter_mut().enumerate() {
                let cursor = offset + lane.bits.len() * sps - from;
                let fresh = sums.get(cursor..).unwrap_or(&[]);
                for block in fresh.chunks(64 * sps) {
                    let mut word = 0u64;
                    let mut count = 0;
                    for &sum in block.iter().step_by(sps) {
                        word |= u64::from(sum >= 0.0) << count;
                        count += 1;
                    }
                    lane.bits.extend_from_word(word, count);
                }
            }
        }
        let _s = wazabee_telemetry::scope!("stream.correlate");
        let armed = self.armed;
        let hits = &mut self.hits_scratch;
        for lane in &mut self.lanes {
            // The correlator has consumed every bit up to its absolute count;
            // feed it the fresh tail.
            let from = lane.corr.consumed() - self.base_bits;
            lane.corr.feed_packed(&lane.bits, from, hits);
            lane.matches
                .extend(hits.drain(..).filter(|pm| pm.index >= armed));
        }
    }

    /// Commits every attempt that is decidable with the bits seen so far.
    /// With `finished` set, nothing is held back: running out of bits is
    /// final and mid-frame attempts become `Truncated`.
    fn drain(&mut self, finished: bool) -> Vec<Result<ReceivedPpdu, WazaBeeError>> {
        let m = self.pattern_len;
        let mut out = Vec::new();
        loop {
            for lane in &mut self.lanes {
                while lane.matches.front().is_some_and(|pm| pm.index < self.armed) {
                    lane.matches.pop_front();
                }
            }
            let Some(i_min) = self
                .lanes
                .iter()
                .filter_map(|l| l.matches.front().map(|pm| pm.index))
                .min()
            else {
                break;
            };
            // Selection is only stable once every lane has searched the
            // whole candidate window [i_min, i_min + 1] — a slower lane
            // could still produce a better-aligned hit there.
            if !finished && self.lanes.iter().any(|l| l.corr.consumed() < i_min + 1 + m) {
                break;
            }
            // Adjacent sample phases see the same physical sync event up to
            // one bit apart, so pick among hits in that window — best sync
            // first, then the earliest (cleanest) sample phase, matching the
            // one-shot capture's selection.
            let (offset, pm) = self
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(o, l)| {
                    l.matches
                        .front()
                        .filter(|pm| pm.index <= i_min + 1)
                        .map(|pm| (o, *pm))
                })
                .min_by_key(|&(o, pm)| (pm.errors, o, pm.index))
                .expect("a front exists at i_min");
            let start_rel = pm.index + m - self.base_bits;
            // One causal span per decode attempt; its id is threaded into the
            // flight-recorder trace so a PCAP frame links back to this slice.
            let span = wazabee_telemetry::scope!(
                "rx.decode",
                frame = self.attempts,
                bit = pm.index,
                lane = offset,
                sync_errors = pm.errors
            );
            // The stage covers replays of held attempts on purpose: the
            // profiler answers "where did the CPU go", and re-decoding is
            // real work even when the attempt cannot commit yet.
            let outcome = {
                let _s = wazabee_telemetry::scope!("stream.decode");
                self.rx
                    .decode_after_sync(&self.lanes[offset].bits, start_rel, finished)
            };
            match outcome {
                DecodeOutcome::NeedBits => break,
                DecodeOutcome::Frame {
                    psdu,
                    chip_errors,
                    used_bits,
                    distances,
                } => {
                    let mut tr = self.begin_trace(offset, &pm, &distances);
                    tr.link_span(span.id());
                    let frame = ReceivedPpdu {
                        psdu,
                        chip_errors,
                        shr_errors: pm.errors,
                    };
                    self.commit_frame(tr, &frame);
                    // The sync pattern repeats through the preamble: one bit
                    // past the hit would re-fire inside the frame body, so
                    // skip the whole consumed region.
                    self.armed = pm.index + m + used_bits;
                    out.push(Ok(frame));
                }
                DecodeOutcome::Fail { err, distances } => {
                    let mut tr = self.begin_trace(offset, &pm, &distances);
                    tr.link_span(span.id());
                    self.commit_failure(tr, &err);
                    // Re-arm one bit past the failed hit — the next (possibly
                    // overlapping) alignment gets its own attempt.
                    self.armed = pm.index + 1;
                    out.push(Err(err));
                }
            }
        }
        out
    }

    /// Opens the flight-recorder trace for a committing attempt and replays
    /// its accumulated despread decisions into telemetry — exactly once per
    /// attempt, however many times the decode was re-run while held.
    fn begin_trace(
        &mut self,
        offset: usize,
        pm: &PatternMatch,
        distances: &[usize],
    ) -> TraceHandle {
        wazabee_telemetry::counter!("wazabee.rx.sync.hit").inc();
        wazabee_telemetry::counter!("wazabee.stream.attempts").inc();
        for &d in distances {
            wazabee_telemetry::counter!("wazabee.rx.despread.symbols").inc();
            wazabee_telemetry::histogram!("wazabee.rx.despread_hamming", 0.0, 32.0)
                .record(d as f64);
        }
        let mut tr = wazabee_flightrec::begin("wazabee.rx");
        if tr.active() {
            tr.attempt(self.attempts);
            let sample_rate = self.rx.radio().sample_rate();
            // An interleaved view is materialised only here, on the traced
            // path — the hot path never re-interleaves.
            let all = self.samples.to_interleaved();
            tr.tap_iq(&all, sample_rate, None);
            // Data-aided CFO over the window starting at the sync hit's own
            // sample — leading silence would dilute a buffer-start mean, and
            // the lane's bit decisions cancel the data's 1/0 imbalance.
            let bit0 = pm.index - self.base_bits;
            let rel = offset + bit0 * self.sps;
            if rel < all.len() {
                if let Some(cfo) = estimate_cfo_hz_synced(
                    &all[rel..],
                    &self.lanes[offset].bits,
                    bit0,
                    self.sps,
                    sample_rate,
                ) {
                    tr.cfo_hz(cfo);
                }
            }
            tr.sync(pm.errors, pm.index, offset, self.pattern_len);
            for &d in distances {
                tr.despread(d);
            }
        }
        self.attempts += 1;
        tr
    }

    /// Telemetry + trace delivery for a recovered frame.
    fn commit_frame(&mut self, tr: TraceHandle, frame: &ReceivedPpdu) {
        let fcs = {
            let _s = wazabee_telemetry::scope!("stream.crc");
            frame.fcs_ok()
        };
        if fcs {
            wazabee_telemetry::counter!("wazabee.rx.fcs.ok").inc();
        } else {
            wazabee_telemetry::counter!("wazabee.rx.fcs.fail").inc();
            wazabee_telemetry::counter!("wazabee.rx.fail.fcs").inc();
        }
        wazabee_telemetry::counter!("wazabee.stream.frames").inc();
        self.frames += 1;
        tr.deliver(&frame.psdu, fcs, FrameKind::Dot154);
    }

    /// Per-reason telemetry + trace failure for a dead attempt.
    fn commit_failure(&mut self, mut tr: TraceHandle, err: &WazaBeeError) {
        match err {
            WazaBeeError::SyncFalsePositive => {
                wazabee_telemetry::counter!("wazabee.rx.fail.sync_false_positive").inc();
            }
            WazaBeeError::DespreadDistanceExceeded { .. } => {
                wazabee_telemetry::counter!("wazabee.rx.fail.despread_distance").inc();
            }
            WazaBeeError::PreambleOverrun => {
                wazabee_telemetry::counter!("wazabee.rx.fail.preamble_overrun").inc();
            }
            WazaBeeError::PhrReserved { .. } => {
                wazabee_telemetry::counter!("wazabee.rx.phr.reserved").inc();
                wazabee_telemetry::counter!("wazabee.rx.fail.phr_reserved").inc();
                tr.phr_reserved();
            }
            WazaBeeError::Truncated => {
                wazabee_telemetry::counter!("wazabee.rx.truncated").inc();
                wazabee_telemetry::counter!("wazabee.rx.fail.truncated").inc();
            }
            _ => {}
        }
        tr.fail(rx_failure(err));
    }

    /// Releases the front of the sample and bit buffers once nothing pending
    /// can reach back that far: behind every queued sync hit, and behind any
    /// alignment the slowest lane's correlator could still report.
    fn trim(&mut self) {
        let m = self.pattern_len;
        let earliest_match = self
            .lanes
            .iter()
            .filter_map(|l| l.matches.front().map(|pm| pm.index))
            .min();
        let min_consumed = self
            .lanes
            .iter()
            .map(|l| l.corr.consumed())
            .min()
            .unwrap_or(0);
        let future_floor = min_consumed.saturating_sub(m - 1);
        let keep_from = earliest_match.map_or(future_floor, |e| e.min(future_floor));
        if keep_from < self.base_bits + TRIM_THRESHOLD_BITS {
            return;
        }
        let target_words = (keep_from - self.base_bits).saturating_sub(TRIM_SLACK_BITS) / 64;
        let min_local_bits = self.lanes.iter().map(|l| l.bits.len()).min().unwrap_or(0);
        let words = target_words.min(min_local_bits / 64);
        if words == 0 {
            return;
        }
        for lane in &mut self.lanes {
            lane.bits.drop_front_words(words);
        }
        self.base_bits += words * 64;
        let drop = words * 64 * self.sps;
        // The diff cache shifts with the samples: dropping `drop` samples
        // drops the same count of leading differences (all consumed — the
        // trimmed region sits behind every lane's demodulated bits), and
        // `diffs[0]` keeps describing the step between samples 0 and 1.
        self.samples.drain_front(drop);
        self.diffs.drain(..drop.min(self.diffs.len()));
    }
}

#[cfg(test)]
mod tests {
    use wazabee_ble::{BleModem, BlePhy};
    use wazabee_dot154::fcs::append_fcs;
    use wazabee_dot154::{Dot154Modem, Ppdu};

    use crate::error::WazaBeeError;
    use crate::rx::WazaBeeRx;

    fn ble_rx() -> WazaBeeRx<BleModem> {
        WazaBeeRx::new(BleModem::new(BlePhy::Le2M, 8)).unwrap()
    }

    fn ppdu(payload: &[u8]) -> Ppdu {
        Ppdu::new(append_fcs(payload)).unwrap()
    }

    #[test]
    fn single_frame_in_tiny_chunks() {
        let p = ppdu(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let air = Dot154Modem::new(8).transmit(&p);
        let rx = ble_rx();
        let mut stream = rx.stream();
        let mut results = Vec::new();
        for chunk in air.chunks(513) {
            results.extend(stream.push(chunk));
        }
        results.extend(stream.finish());
        let frames: Vec<_> = results.into_iter().filter_map(Result::ok).collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].psdu, p.psdu());
        assert!(frames[0].fcs_ok());
    }

    #[test]
    fn two_frames_in_one_stream() {
        let modem = Dot154Modem::new(8);
        let a = ppdu(&[1, 1, 1]);
        let b = ppdu(&[2, 2, 2, 2]);
        let mut air = modem.transmit(&a);
        air.extend(vec![wazabee_dsp::Iq::ZERO; 777]);
        air.extend(modem.transmit(&b));
        let rx = ble_rx();
        let mut stream = rx.stream();
        let mut results = stream.push(&air);
        results.extend(stream.finish());
        let frames: Vec<_> = results.into_iter().filter_map(Result::ok).collect();
        assert_eq!(frames.len(), 2, "both frames must come out, in order");
        assert_eq!(frames[0].psdu, a.psdu());
        assert_eq!(frames[1].psdu, b.psdu());
    }

    #[test]
    fn truncated_stream_flushes_as_truncated() {
        let p = ppdu(&[7; 60]);
        let air = Dot154Modem::new(8).transmit(&p);
        let cut = air.len() / 2;
        let rx = ble_rx();
        let mut stream = rx.stream();
        let mut results = stream.push(&air[..cut]);
        assert!(
            results.iter().all(Result::is_err),
            "no frame can be committed from half a capture"
        );
        results.extend(stream.finish());
        assert!(results.iter().any(|r| r == &Err(WazaBeeError::Truncated)));
        assert!(results.iter().all(Result::is_err));
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let rx = ble_rx();
        let mut stream = rx.stream();
        assert!(stream.push(&[]).is_empty());
        assert_eq!(stream.attempts(), 0);
        assert!(stream.finish().is_empty());
    }

    #[test]
    fn reset_engine_decodes_identically_to_fresh() {
        // A recycled engine (decode → flush → reset) must be observationally
        // identical to a freshly opened one: same frames, same typed
        // failures, same order — on a second capture that includes a decoy,
        // long silence (exercising trim state) and two genuine frames.
        let modem = Dot154Modem::new(8);
        let first = ppdu(&[0x01, 0x02, 0x03]);
        let a = ppdu(&[0xAA; 12]);
        let b = ppdu(&[0xBB, 0xCC]);
        let mut second = vec![wazabee_dsp::Iq::ZERO; 150_000];
        second.extend(modem.transmit(&a));
        second.extend(vec![wazabee_dsp::Iq::ZERO; 333]);
        second.extend(modem.transmit(&b));

        let rx = ble_rx();
        let run = |s: &mut super::StreamingRx<'_, BleModem>, air: &[wazabee_dsp::Iq]| {
            let mut results = Vec::new();
            for chunk in air.chunks(2048) {
                results.extend(s.push(chunk));
            }
            results.extend(s.flush());
            results
        };

        let mut recycled = rx.stream();
        let warmup = run(&mut recycled, &modem.transmit(&first));
        assert_eq!(warmup.iter().filter(|r| r.is_ok()).count(), 1);
        assert_eq!(recycled.frames(), 1);
        recycled.reset();
        assert_eq!(recycled.attempts(), 0);
        assert_eq!(recycled.frames(), 0);

        let mut fresh = rx.stream();
        let got = run(&mut recycled, &second);
        let want = run(&mut fresh, &second);
        assert_eq!(got, want, "recycled engine must match a fresh engine");
        assert_eq!(got.iter().filter(|r| r.is_ok()).count(), 2);
    }

    #[test]
    fn trim_keeps_long_silence_bounded_and_correct() {
        // A frame after a very long silent lead-in: the trim path must fire
        // (releasing front buffers) without disturbing the decode.
        let p = ppdu(&[9, 8, 7]);
        let mut air = vec![wazabee_dsp::Iq::ZERO; 200_000];
        air.extend(Dot154Modem::new(8).transmit(&p));
        let rx = ble_rx();
        let mut stream = rx.stream();
        let mut results = Vec::new();
        for chunk in air.chunks(4096) {
            results.extend(stream.push(chunk));
        }
        assert!(
            stream.samples.len() < 200_000,
            "trim must have released the silent lead-in"
        );
        results.extend(stream.finish());
        let frames: Vec<_> = results.into_iter().filter_map(Result::ok).collect();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].psdu, p.psdu());
    }
}
