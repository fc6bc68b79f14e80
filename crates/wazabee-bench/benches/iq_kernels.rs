//! Measures the planar SIMD sample-domain kernels against the scalar
//! references they are pinned to.
//!
//! Every blocked kernel in `wazabee_dsp::simd` keeps a `*_scalar` twin with
//! the identical arithmetic; the parity proptests guarantee bitwise equality,
//! and this bench shows what the explicit-width blocking buys:
//!
//! ```sh
//! cargo bench -p wazabee-bench --bench iq_kernels
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use wazabee_dsp::simd::{
    accumulate_interleaved_at, accumulate_interleaved_at_scalar, axpy, axpy_scalar,
    discriminate_planar_into, discriminate_planar_scalar_into, fir_planar_into,
    fir_planar_scalar_into, sliding_sums_into, sliding_sums_scalar_into, window_sums_into,
    window_sums_scalar_into,
};
use wazabee_dsp::{Iq, IqBuf};

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
    g.bench_function("sliding_sums_scalar", |b| {
        b.iter(|| {
            all_phase.clear();
            sliding_sums_scalar_into(std::hint::black_box(&diffs), SPS, &mut all_phase);
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
