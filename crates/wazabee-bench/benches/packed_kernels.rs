//! Criterion benchmarks of the packed-bitstream kernels against their scalar
//! references: sync search (the streaming correlator on a frame-like lane
//! with the 32-bit diverted access address, and the one-shot search for the
//! long 319-bit SHR image) and 31-bit MSK-block despreading.
//!
//! These are the inner loops of every receive path; the packed variants are
//! the fast path the modems actually run, the scalar variants are the
//! byte-per-bit references kept for property testing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wazabee::msk::{correspondence_table, despread_msk_block_packed, despread_msk_block_scalar};
use wazabee_bench::lanes::{frame_like_lane, oracle_hits};
use wazabee_dot154::Dot154Modem;
use wazabee_dsp::correlate::{find_pattern_scalar, PatternMatch};
use wazabee_dsp::packed::find_pattern_packed;
use wazabee_dsp::{PackedBits, StreamCorrelator};

/// A deterministic pseudo-random bit stream (no RNG needed — an LCG walk).
fn bit_stream(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 62) & 1) as u8
        })
        .collect()
}

fn correlate_benches(c: &mut Criterion) {
    const STREAM_BITS: usize = 16_384;
    // The streaming receiver's search: the 32-bit diverted access address
    // at its default budget of 3, over a lane of frames whose preambles
    // repeat the sync symbol (dense candidates and hits).
    let sync = wazabee::access_address_pattern();
    let packed_sync = PackedBits::from_bits(sync);
    let lane = frame_like_lane(0xC0FFEE, STREAM_BITS, 0.02);
    let packed_lane = PackedBits::from_bits(&lane);
    // The one-shot 802.15.4 SHR search, absent entirely from a random
    // stream so the whole stream is scanned.
    let stream = bit_stream(STREAM_BITS, 0xC0FFEE);
    let packed_stream = PackedBits::from_bits(&stream);
    let shr = Dot154Modem::shr_msk_image();
    let packed_shr = Dot154Modem::shr_msk_image_packed();

    let mut g = c.benchmark_group("correlate_short_32bit");
    g.throughput(Throughput::Elements(STREAM_BITS as u64));
    let mut hits: Vec<PatternMatch> = Vec::new();
    g.bench_function("packed", |b| {
        b.iter(|| {
            hits.clear();
            StreamCorrelator::new(std::hint::black_box(&packed_sync), 3).feed_packed(
                std::hint::black_box(&packed_lane),
                0,
                &mut hits,
            );
            hits.len()
        })
    });
    g.bench_function("scalar", |b| {
        b.iter(|| oracle_hits(std::hint::black_box(&lane), std::hint::black_box(sync), 3).len())
    });
    g.finish();

    let mut g = c.benchmark_group("correlate_long_319bit_miss");
    g.throughput(Throughput::Elements(STREAM_BITS as u64));
    g.bench_function("packed", |b| {
        b.iter(|| {
            find_pattern_packed(
                std::hint::black_box(&packed_stream),
                std::hint::black_box(packed_shr),
                0,
                32,
            )
        })
    });
    g.bench_function("scalar", |b| {
        b.iter(|| {
            find_pattern_scalar(
                std::hint::black_box(&stream),
                std::hint::black_box(&shr),
                0,
                32,
            )
        })
    });
    g.finish();
}

fn despread_benches(c: &mut Criterion) {
    const SYMBOLS: usize = 4_096;
    let table = correspondence_table();
    let blocks: Vec<[u8; 31]> = (0..SYMBOLS)
        .map(|k| {
            let mut b = table[k % 16];
            b[(k * 7) % 31] ^= (k % 3 == 0) as u8;
            b
        })
        .collect();
    let flat: Vec<u8> = blocks.iter().flatten().copied().collect();
    let stream = PackedBits::from_bits(&flat);

    let mut g = c.benchmark_group("despread_msk_block");
    g.throughput(Throughput::Elements(SYMBOLS as u64));
    g.bench_function("packed", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for k in 0..SYMBOLS {
                let block = stream.extract_u32(k * 31, 31);
                let (sym, d) = despread_msk_block_packed(std::hint::black_box(block));
                acc += usize::from(sym) + d;
            }
            acc
        })
    });
    g.bench_function("scalar", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for blk in &blocks {
                let (sym, d) = despread_msk_block_scalar(std::hint::black_box(blk));
                acc += usize::from(sym) + d;
            }
            acc
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = correlate_benches, despread_benches
}
criterion_main!(benches);
