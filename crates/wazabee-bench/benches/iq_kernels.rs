//! Measures the planar SIMD sample-domain kernels against the scalar
//! references they are pinned to.
//!
//! Every blocked kernel in `wazabee_dsp::simd` keeps a `*_scalar` twin with
//! the identical arithmetic; the parity proptests guarantee bitwise equality,
//! and this bench shows what the explicit-width blocking buys. The `_simd`
//! rows run the kernel as dispatched (the AVX2 variant on hosts with AVX2),
//! the `_portable` rows the baseline-target variant by name. The
//! `lane_packing` rows split all-phase sums into 8 lane bit streams: sign
//! words plus the 8×8 transpose (dispatched and portable), against the
//! per-lane `step_by` loop it replaced.
//!
//! ```sh
//! cargo bench -p wazabee-bench --bench iq_kernels
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wazabee_dsp::packed::deinterleave;
use wazabee_dsp::simd::{
    accumulate_interleaved_at, accumulate_interleaved_at_scalar, axpy, axpy_scalar,
    discriminate_planar_into, discriminate_planar_portable_into, discriminate_planar_scalar_into,
    fir_planar_into, fir_planar_scalar_into, sign_words_into, sign_words_portable_into,
    sign_words_scalar_into, sliding_sums_into, sliding_sums_portable_into,
    sliding_sums_scalar_into, window_sums_into, window_sums_scalar_into,
};
use wazabee_dsp::{Iq, IqBuf, PackedBits};

const N: usize = 1 << 14;
const SPS: usize = 8;

fn rails(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut i = Vec::with_capacity(n);
    let mut q = Vec::with_capacity(n);
    for _ in 0..n {
        i.push(rng.gen_range(-1.0f32..1.0));
        q.push(rng.gen_range(-1.0f32..1.0));
    }
    (i, q)
}

fn bench_iq_kernels(c: &mut Criterion) {
    let (i, q) = rails(7, N);
    let diffs = {
        let mut d = Vec::new();
        discriminate_planar_into(&i, &q, &mut d);
        d
    };
    let interleaved: Vec<Iq> = i
        .iter()
        .zip(&q)
        .map(|(&a, &b)| Iq::new(f64::from(a), f64::from(b)))
        .collect();
    let mut planar = IqBuf::new();
    planar.extend_interleaved(&interleaved);
    let taps: Vec<f32> = (0..25).map(|k| ((k as f32) - 12.0) / 144.0).collect();

    let mut g = c.benchmark_group("iq_kernels");
    g.throughput(Throughput::Elements(N as u64));

    let mut out = Vec::with_capacity(N);
    g.bench_function("discriminate_simd", |b| {
        b.iter(|| {
            out.clear();
            discriminate_planar_into(std::hint::black_box(&i), std::hint::black_box(&q), &mut out);
        })
    });
    g.bench_function("discriminate_portable", |b| {
        b.iter(|| {
            out.clear();
            discriminate_planar_portable_into(
                std::hint::black_box(&i),
                std::hint::black_box(&q),
                &mut out,
            );
        })
    });
    g.bench_function("discriminate_scalar", |b| {
        b.iter(|| {
            out.clear();
            discriminate_planar_scalar_into(
                std::hint::black_box(&i),
                std::hint::black_box(&q),
                &mut out,
            );
        })
    });

    let mut sums = Vec::with_capacity(N / SPS);
    g.bench_function("window_sums_simd", |b| {
        b.iter(|| {
            sums.clear();
            window_sums_into(std::hint::black_box(&diffs), SPS, &mut sums);
        })
    });
    g.bench_function("window_sums_scalar", |b| {
        b.iter(|| {
            sums.clear();
            window_sums_scalar_into(std::hint::black_box(&diffs), SPS, &mut sums);
        })
    });

    let mut all_phase = Vec::with_capacity(N);
    g.bench_function("sliding_sums_simd", |b| {
        b.iter(|| {
            all_phase.clear();
            sliding_sums_into(std::hint::black_box(&diffs), SPS, &mut all_phase);
        })
    });
    g.bench_function("sliding_sums_portable", |b| {
        b.iter(|| {
            all_phase.clear();
            sliding_sums_portable_into(std::hint::black_box(&diffs), SPS, &mut all_phase);
        })
    });
    g.bench_function("sliding_sums_scalar", |b| {
        b.iter(|| {
            all_phase.clear();
            sliding_sums_scalar_into(std::hint::black_box(&diffs), SPS, &mut all_phase);
        })
    });

    let mut signs = Vec::with_capacity(N / 64 + 1);
    g.bench_function("sign_words_simd", |b| {
        b.iter(|| {
            signs.clear();
            sign_words_into(std::hint::black_box(&all_phase), &mut signs);
        })
    });
    g.bench_function("sign_words_portable", |b| {
        b.iter(|| {
            signs.clear();
            sign_words_portable_into(std::hint::black_box(&all_phase), &mut signs);
        })
    });
    g.bench_function("sign_words_scalar", |b| {
        b.iter(|| {
            signs.clear();
            sign_words_scalar_into(std::hint::black_box(&all_phase), &mut signs);
        })
    });

    let mut lanes = vec![PackedBits::default(); SPS];
    g.bench_function("lane_packing_simd", |b| {
        b.iter(|| {
            lanes.iter_mut().for_each(PackedBits::clear);
            signs.clear();
            sign_words_into(std::hint::black_box(&all_phase), &mut signs);
            deinterleave(&signs, all_phase.len(), SPS, |c, word, count| {
                lanes[c].extend_from_word(word, count);
            });
        })
    });
    g.bench_function("lane_packing_portable", |b| {
        b.iter(|| {
            lanes.iter_mut().for_each(PackedBits::clear);
            signs.clear();
            sign_words_portable_into(std::hint::black_box(&all_phase), &mut signs);
            deinterleave(&signs, all_phase.len(), SPS, |c, word, count| {
                lanes[c].extend_from_word(word, count);
            });
        })
    });
    g.bench_function("lane_packing_scalar", |b| {
        b.iter(|| {
            let sums = std::hint::black_box(&all_phase);
            for (c, lane) in lanes.iter_mut().enumerate() {
                lane.clear();
                for block in sums[c..].chunks(64 * SPS) {
                    let mut word = 0u64;
                    let mut count = 0;
                    for &sum in block.iter().step_by(SPS) {
                        word |= u64::from(sum >= 0.0) << count;
                        count += 1;
                    }
                    lane.extend_from_word(word, count);
                }
            }
        })
    });

    let mut dst = vec![0.0f32; N];
    g.bench_function("axpy_simd", |b| {
        b.iter(|| axpy(&mut dst, std::hint::black_box(&i), 0.75))
    });
    g.bench_function("axpy_scalar", |b| {
        b.iter(|| axpy_scalar(&mut dst, std::hint::black_box(&i), 0.75))
    });

    let mut acc = IqBuf::new();
    acc.resize(N + 64);
    g.bench_function("superpose_accumulate_simd", |b| {
        b.iter(|| accumulate_interleaved_at(&mut acc, std::hint::black_box(&interleaved), 32, 0.5))
    });
    g.bench_function("superpose_accumulate_scalar", |b| {
        b.iter(|| {
            accumulate_interleaved_at_scalar(&mut acc, std::hint::black_box(&interleaved), 32, 0.5)
        })
    });

    let mut fir_out = IqBuf::new();
    g.bench_function("fir_planar_simd", |b| {
        b.iter(|| fir_planar_into(&taps, std::hint::black_box(planar.as_slice()), &mut fir_out))
    });
    g.bench_function("fir_planar_scalar", |b| {
        b.iter(|| {
            fir_planar_scalar_into(&taps, std::hint::black_box(planar.as_slice()), &mut fir_out)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_iq_kernels);
criterion_main!(benches);
