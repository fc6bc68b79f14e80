//! Explicit-width SIMD kernels for the sample-domain hot path.
//!
//! The stage profiler put the polar discriminator at ~76 % of streaming decode
//! self-time, almost all of it in per-sample `f64::atan2` libm calls over
//! interleaved structs. These kernels process the planar [`crate::IqBuf`]
//! rails as `f32` with a branchless polynomial `atan2`, so the per-element
//! body is straight-line arithmetic and selects the autovectorizer can widen.
//!
//! A kernel vectorizes on the stable toolchain only when no element access
//! in its loop keeps a bounds check and nothing grows the output inside the
//! loop. An index like `i[k + l + 1]` keeps one check per element, and a
//! block pushed with `extend_from_slice` keeps a capacity check per block;
//! either one leaves the loop scalar on any target. The receive kernels
//! therefore follow one rule:
//!
//! * resize the output once per call and write through a view of it;
//! * read the input through views whose lengths prove every index in range:
//!   [`discriminate_planar_into`] slices the current and next sample once to
//!   the loop's own length, and [`sliding_sums_into`] reads each block of
//!   outputs through fixed-size `&[f32; W]` views and writes it through a
//!   `&mut [f32; W]`;
//! * keep the per-element body free of branches (selects only).
//!
//! The discriminator is a flat loop rather than `LANES`-wide blocks because
//! its per-element body is too large for the compiler to unroll an 8-lane
//! block, and a rolled 8-iteration lane loop stayed scalar.
//!
//! ## Runtime dispatch
//!
//! The build targets baseline x86-64, whose SSE2 registers hold 4 `f32`
//! lanes, so an 8-lane block runs as two halves. No build setting changes
//! that; instead the streaming receive kernels
//! ([`discriminate_planar_into`], [`sliding_sums_into`], [`sign_words_into`],
//! and [`crate::packed::nearest_row`]) each come in two variants chosen per
//! call:
//!
//! * `*_portable` is compiled for the build's target and runs anywhere;
//! * `*_avx2` is a safe `#[target_feature(enable = "avx2")]` function,
//!   compiled for 8-lane registers and callable only on a host with AVX2.
//!
//! Both variants wrap one `#[inline(always)]` body, so they share every
//! per-element expression and accumulation order and give the same bits; the
//! exception is the sign pass, whose AVX2 variant spells its compare and
//! `movemask` with intrinsics because the compiler does not find them. The
//! public kernel detects AVX2 once per call with [`avx2_detected`] (a cached
//! flag) and makes its one `unsafe` call behind that check. A kernel gets an
//! AVX2 variant only where a measurement shows it beating the portable one;
//! [`window_sums_into`] has none, since each of its outputs is one serial
//! add chain.
//!
//! ## Sliding sums without the add-latency chain
//!
//! A sliding sum of width `window` is `window` dependent adds per output
//! block, so a loop over one block at a time waits on add latency, not
//! throughput. [`sliding_sums_into`] runs four `LANES` blocks per step of
//! `j`: four independent accumulators share each `j`, while each output
//! still accumulates left to right from `0.0`, so its bits do not change.
//!
//! ## Scalar twins
//!
//! Every kernel keeps a `*_scalar` twin (the same pattern as the packed
//! bit-domain kernels from the despreading fast path): one plain element-wise
//! loop with the *identical* per-element expression and accumulation order, so
//! every variant and the scalar twin are bit-for-bit equal and the parity
//! proptests can compare `f32::to_bits` exactly, not within a tolerance. The
//! proptests call the portable and AVX2 variants by name, so both are checked
//! on a host with AVX2 whichever one dispatch picks. The scalar twins are
//! exercised by the test suite and the `iq_kernels` bench in every CI run, so
//! they cannot silently drift from the fast path, and the `rx_throughput`
//! bench records the discriminator's variants against its twin so a kernel
//! that stops vectorizing shows up as a number.

use crate::iq::Iq;
use crate::iqbuf::IqBuf;

/// Lane width of the explicit-width kernels (f32 lanes per block).
pub const LANES: usize = 8;

/// Branchless four-quadrant arctangent approximation.
///
/// Range-reduces to an octant with min/max (no data-dependent branches — the
/// `if`s below compile to selects), evaluates an odd polynomial in
/// `min/max ∈ [0, 1]`, then folds the octant back. Maximum error is about
/// `1e-5` rad, four orders of magnitude below the discriminator's per-sample
/// noise at any SNR the receive chain operates at. `atan2_fast(0, 0)` is
/// exactly `0.0`, matching `f64::atan2` on silence.
#[inline(always)]
pub fn atan2_fast(y: f32, x: f32) -> f32 {
    const A1: f32 = 0.999_977_26;
    const A3: f32 = -0.332_623_47;
    const A5: f32 = 0.193_543_46;
    const A7: f32 = -0.116_432_87;
    const A9: f32 = 0.052_653_32;
    const A11: f32 = -0.011_721_2;
    let ax = x.abs();
    let ay = y.abs();
    let mx = ax.max(ay);
    let mn = ax.min(ay);
    let t = mn / mx;
    // 0/0 → NaN on silence; select it to 0 so the output is exactly 0.0.
    let t = if t.is_nan() { 0.0 } else { t };
    let t2 = t * t;
    let mut r = t * (A1 + t2 * (A3 + t2 * (A5 + t2 * (A7 + t2 * (A9 + t2 * A11)))));
    r = if ay > ax {
        std::f32::consts::FRAC_PI_2 - r
    } else {
        r
    };
    r = if x < 0.0 { std::f32::consts::PI - r } else { r };
    if y < 0.0 {
        -r
    } else {
        r
    }
}

/// Per-element expression shared by the SIMD and scalar discriminators: the
/// phase of `x[k+1] · conj(x[k])` via [`atan2_fast`].
#[inline(always)]
fn discriminate_one(i0: f32, q0: f32, i1: f32, q1: f32) -> f32 {
    let re = i1 * i0 + q1 * q0;
    let im = q1 * i0 - i1 * q0;
    atan2_fast(im, re)
}

/// Whether this host runs the AVX2 variants of the dispatched kernels
/// (`"avx2"` rather than `"portable"` in `rx_throughput`'s report).
///
/// `is_x86_feature_detected!` caches its answer after the first call, so
/// asking costs one relaxed load.
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Polar FM discriminator over planar rails, appending the `len − 1` first
/// differences (radians/sample) to `out` without allocating.
///
/// This is the planar `f32` counterpart of
/// [`crate::discriminator::discriminate`]; it carries the same
/// `dsp.discriminate` profiler stage so before/after self-time is directly
/// comparable in the snapshot. Runs [`discriminate_planar_avx2_into`] on
/// hosts with AVX2, [`discriminate_planar_portable_into`] elsewhere; both
/// give the same bits.
///
/// # Panics
///
/// Panics if the rails differ in length.
pub fn discriminate_planar_into(i: &[f32], q: &[f32], out: &mut Vec<f32>) {
    let _s = wazabee_telemetry::scope!("dsp.discriminate");
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 was detected on this host on the line above.
        return unsafe { discriminate_planar_avx2_into(i, q, out) };
    }
    discriminate_planar_portable_into(i, q, out);
}

/// [`discriminate_planar_into`] compiled for the build's baseline target.
///
/// # Panics
///
/// Panics if the rails differ in length.
pub fn discriminate_planar_portable_into(i: &[f32], q: &[f32], out: &mut Vec<f32>) {
    discriminate_planar_body(i, q, out);
}

/// [`discriminate_planar_into`] compiled for AVX2: the same body, eight
/// lanes per instruction.
///
/// # Panics
///
/// Panics if the rails differ in length.
///
/// # Safety
///
/// Call only where [`avx2_detected`] is true: on a host without AVX2 the
/// instructions fault.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn discriminate_planar_avx2_into(i: &[f32], q: &[f32], out: &mut Vec<f32>) {
    discriminate_planar_body(i, q, out);
}

#[inline(always)]
fn discriminate_planar_body(i: &[f32], q: &[f32], out: &mut Vec<f32>) {
    assert_eq!(i.len(), q.len(), "planar rails must be equal-length");
    let n = i.len().saturating_sub(1);
    let start = out.len();
    out.resize(start + n, 0.0);
    let dst = &mut out[start..];
    // Equal-length views of the current and next sample: every index below
    // is provably in range, so the loop carries no bounds check.
    let (i0, i1) = (&i[..n], &i[i.len() - n..]);
    let (q0, q1) = (&q[..n], &q[q.len() - n..]);
    for k in 0..n {
        dst[k] = discriminate_one(i0[k], q0[k], i1[k], q1[k]);
    }
}

/// Scalar reference for [`discriminate_planar_into`] — bit-identical output.
///
/// # Panics
///
/// Panics if the rails differ in length.
pub fn discriminate_planar_scalar_into(i: &[f32], q: &[f32], out: &mut Vec<f32>) {
    assert_eq!(i.len(), q.len(), "planar rails must be equal-length");
    for k in 0..i.len().saturating_sub(1) {
        out.push(discriminate_one(i[k], q[k], i[k + 1], q[k + 1]));
    }
}

/// Sums of consecutive `window`-sized chunks of `x` (one value per *complete*
/// window, the tail is ignored), appended to `out`.
///
/// This is the integrate part of integrate-and-dump: the hard-bit decision
/// `sum ≥ 0` is invariant under the `1/window` scaling, so the dump divide is
/// skipped entirely. Each window accumulates left to right, as its scalar
/// twin does, so the two are bit-identical. It has no AVX2 variant: each
/// output is one serial add chain, which no register width shortens.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn window_sums_into(x: &[f32], window: usize, out: &mut Vec<f32>) {
    assert!(window > 0, "window must be non-zero");
    let n = x.len() / window;
    let start = out.len();
    out.resize(start + n, 0.0);
    // One window per output, read through an exact-length chunk: no index
    // is checked, and neighbouring windows' add chains overlap in the core.
    // Blocks of `LANES` windows would read each lane at stride `window`,
    // which keeps a bounds check per element.
    for (o, c) in out[start..].iter_mut().zip(x.chunks_exact(window)) {
        let mut a = 0.0f32;
        for &v in c {
            a += v;
        }
        *o = a;
    }
}

/// Scalar reference for [`window_sums_into`] — bit-identical output.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn window_sums_scalar_into(x: &[f32], window: usize, out: &mut Vec<f32>) {
    assert!(window > 0, "window must be non-zero");
    for c in x.chunks_exact(window) {
        let mut a = 0.0f32;
        for &v in c {
            a += v;
        }
        out.push(a);
    }
}

/// Sums of *every* `window`-sized run of `x`: `x.len() − window + 1` values
/// (none when `x` is shorter than `window`), the one at offset `s` being
/// `x[s] + … + x[s + window − 1]`, appended to `out`.
///
/// This is the all-phase form of [`window_sums_into`]: with one receive lane
/// per sample phase, window start `s` belongs to exactly one lane, so one
/// contiguous pass serves every lane at once. Each window accumulates left to
/// right from `0.0`, exactly as [`window_sums_into`] does, so a lane reading
/// every `window`-th value gets the same sums bit for bit. Runs
/// [`sliding_sums_avx2_into`] on hosts with AVX2,
/// [`sliding_sums_portable_into`] elsewhere.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn sliding_sums_into(x: &[f32], window: usize, out: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 was detected on this host on the line above.
        return unsafe { sliding_sums_avx2_into(x, window, out) };
    }
    sliding_sums_portable_into(x, window, out);
}

/// [`sliding_sums_into`] compiled for the build's baseline target.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn sliding_sums_portable_into(x: &[f32], window: usize, out: &mut Vec<f32>) {
    sliding_sums_body(x, window, out);
}

/// [`sliding_sums_into`] compiled for AVX2.
///
/// # Panics
///
/// Panics if `window` is zero.
///
/// # Safety
///
/// Call only where [`avx2_detected`] is true: on a host without AVX2 the
/// instructions fault.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn sliding_sums_avx2_into(x: &[f32], window: usize, out: &mut Vec<f32>) {
    sliding_sums_body(x, window, out);
}

/// Outputs per step of the sliding sums' main loop: four `LANES` blocks.
const SLIDING_GROUP: usize = 4 * LANES;

#[inline(always)]
fn sliding_sums_body(x: &[f32], window: usize, out: &mut Vec<f32>) {
    assert!(window > 0, "window must be non-zero");
    let n = (x.len() + 1).saturating_sub(window);
    let start = out.len();
    out.resize(start + n, 0.0);
    let dst = &mut out[start..];
    // Four blocks per step give each `j` four independent adds, so the
    // loop waits on add latency once per four blocks, not once per block.
    let rest = sliding_blocks::<SLIDING_GROUP>(x, window, 0, dst);
    let from = n - rest.len();
    let rest = sliding_blocks::<LANES>(x, window, from, rest);
    let from = n - rest.len();
    for (s, o) in (from..).zip(rest) {
        let mut a = 0.0f32;
        for &v in &x[s..s + window] {
            a += v;
        }
        *o = a;
    }
}

/// Fills the whole `W`-wide blocks of `dst` with the sliding sums starting
/// at `x[from..]` and returns the tail shorter than `W`. Block `b` reads
/// `W + window − 1` inputs through fixed-size `&[f32; W]` views, one per
/// `j`, and writes through a `&mut [f32; W]`.
#[inline(always)]
fn sliding_blocks<'d, const W: usize>(
    x: &[f32],
    window: usize,
    from: usize,
    dst: &'d mut [f32],
) -> &'d mut [f32] {
    let mut blocks = dst.chunks_exact_mut(W);
    for (b, o) in blocks.by_ref().enumerate() {
        let s = from + b * W;
        let src = &x[s..s + W + window - 1];
        let mut acc = [0.0f32; W];
        for j in 0..window {
            let v: &[f32; W] = src[j..j + W].try_into().expect("block view");
            for l in 0..W {
                acc[l] += v[l];
            }
        }
        let o: &mut [f32; W] = o.try_into().expect("block view");
        *o = acc;
    }
    blocks.into_remainder()
}

/// Scalar reference for [`sliding_sums_into`] — bit-identical output.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn sliding_sums_scalar_into(x: &[f32], window: usize, out: &mut Vec<f32>) {
    assert!(window > 0, "window must be non-zero");
    for w in x.windows(window) {
        let mut a = 0.0f32;
        for &v in w {
            a += v;
        }
        out.push(a);
    }
}

/// Hard decisions of `x` packed 64 per word and appended to `out`: bit
/// `k % 64` of word `k / 64` is set when `x[k] >= 0.0` — so `-0.0` gives 1
/// and NaN gives 0, the tie-break of [`nrz_hard_bits_into`]. The last word's
/// bits past `x.len()` are 0. Runs [`sign_words_avx2_into`] on hosts with
/// AVX2, [`sign_words_portable_into`] elsewhere.
pub fn sign_words_into(x: &[f32], out: &mut Vec<u64>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: AVX2 was detected on this host on the line above.
        return unsafe { sign_words_avx2_into(x, out) };
    }
    sign_words_portable_into(x, out);
}

/// [`sign_words_into`] for the build's baseline target: one compare, shift
/// and OR per value.
pub fn sign_words_portable_into(x: &[f32], out: &mut Vec<u64>) {
    let start = out.len();
    out.resize(start + x.len().div_ceil(64), 0);
    for (w, c) in out[start..].iter_mut().zip(x.chunks(64)) {
        *w = sign_word(c);
    }
}

/// [`sign_words_into`] compiled for AVX2: each eight values become eight
/// bits with one ordered `>=` compare against zero (`_CMP_GE_OQ`, false on
/// NaN, true on `-0.0`) and one `movemask`.
///
/// # Safety
///
/// Call only where [`avx2_detected`] is true: on a host without AVX2 the
/// instructions fault.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn sign_words_avx2_into(x: &[f32], out: &mut Vec<u64>) {
    use std::arch::x86_64::{
        _mm256_cmp_ps, _mm256_movemask_ps, _mm256_setr_ps, _mm256_setzero_ps, _CMP_GE_OQ,
    };
    let start = out.len();
    out.resize(start + x.len().div_ceil(64), 0);
    let dst = &mut out[start..];
    let zero = _mm256_setzero_ps();
    let mut words = x.chunks_exact(64);
    for (w, c) in dst.iter_mut().zip(words.by_ref()) {
        let mut word = 0u64;
        for (k, v) in c.chunks_exact(LANES).enumerate() {
            let v: &[f32; LANES] = v.try_into().expect("lane view");
            let v = _mm256_setr_ps(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
            let mask = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, zero));
            word |= u64::from(mask as u8) << (k * LANES);
        }
        *w = word;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        dst[dst.len() - 1] = sign_word(tail);
    }
}

/// Scalar reference for [`sign_words_into`] — identical words.
pub fn sign_words_scalar_into(x: &[f32], out: &mut Vec<u64>) {
    for (k, &v) in x.iter().enumerate() {
        if k % 64 == 0 {
            out.push(0);
        }
        *out.last_mut().expect("word pushed above") |= u64::from(v >= 0.0) << (k % 64);
    }
}

/// Signs of up to 64 values, LSB first.
#[inline(always)]
fn sign_word(x: &[f32]) -> u64 {
    let mut word = 0u64;
    for (k, &v) in x.iter().enumerate() {
        word |= u64::from(v >= 0.0) << k;
    }
    word
}

/// `dst[k] += gain · src[k]` over f32 slices (the superposition/pulse-placement
/// primitive).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(dst: &mut [f32], src: &[f32], gain: f32) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    let n = dst.len();
    let mut k = 0;
    while k + LANES <= n {
        for l in 0..LANES {
            dst[k + l] += gain * src[k + l];
        }
        k += LANES;
    }
    while k < n {
        dst[k] += gain * src[k];
        k += 1;
    }
}

/// Scalar reference for [`axpy`] — bit-identical output.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy_scalar(dst: &mut [f32], src: &[f32], gain: f32) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += gain * s;
    }
}

/// Superposes an interleaved `f64` waveform into a planar accumulator:
/// `dst[offset + k] += gain · src[k]`, growing `dst` as needed.
///
/// The product is formed in `f64` (transmit waveforms and path gains are
/// `f64`) and narrowed once, so a unity-gain placement reproduces the `f32`
/// image of the transmit samples exactly.
pub fn accumulate_interleaved_at(dst: &mut IqBuf, src: &[Iq], offset: usize, gain: f64) {
    let end = offset + src.len();
    if dst.len() < end {
        dst.resize(end);
    }
    let (di, dq) = dst.rails_mut();
    let n = src.len();
    let mut k = 0;
    while k + LANES <= n {
        for l in 0..LANES {
            di[offset + k + l] += (src[k + l].i * gain) as f32;
            dq[offset + k + l] += (src[k + l].q * gain) as f32;
        }
        k += LANES;
    }
    while k < n {
        di[offset + k] += (src[k].i * gain) as f32;
        dq[offset + k] += (src[k].q * gain) as f32;
        k += 1;
    }
}

/// Scalar reference for [`accumulate_interleaved_at`] — bit-identical output.
pub fn accumulate_interleaved_at_scalar(dst: &mut IqBuf, src: &[Iq], offset: usize, gain: f64) {
    let end = offset + src.len();
    if dst.len() < end {
        dst.resize(end);
    }
    let (di, dq) = dst.rails_mut();
    for (k, s) in src.iter().enumerate() {
        di[offset + k] += (s.i * gain) as f32;
        dq[offset + k] += (s.q * gain) as f32;
    }
}

/// Full f32 convolution of `x` with `taps`, overwriting `out` (scatter form:
/// output length `x.len() + taps.len() − 1`).
///
/// Exact zeros in `x` are skipped in both variants — pulse-shaped inputs are
/// mostly padding, and the skip must match for the `−0.0` corner to stay
/// bit-identical.
///
/// # Panics
///
/// Panics if `taps` is empty.
pub fn fir_real_into(taps: &[f32], x: &[f32], out: &mut Vec<f32>) {
    assert!(!taps.is_empty(), "FIR filter needs at least one tap");
    out.clear();
    out.resize(x.len() + taps.len() - 1, 0.0);
    for (k, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        let y = &mut out[k..k + taps.len()];
        let mut j = 0;
        while j + LANES <= taps.len() {
            for l in 0..LANES {
                y[j + l] += xv * taps[j + l];
            }
            j += LANES;
        }
        while j < taps.len() {
            y[j] += xv * taps[j];
            j += 1;
        }
    }
}

/// Scalar reference for [`fir_real_into`] — bit-identical output.
///
/// # Panics
///
/// Panics if `taps` is empty.
pub fn fir_real_scalar_into(taps: &[f32], x: &[f32], out: &mut Vec<f32>) {
    assert!(!taps.is_empty(), "FIR filter needs at least one tap");
    out.clear();
    out.resize(x.len() + taps.len() - 1, 0.0);
    for (k, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        for (j, &t) in taps.iter().enumerate() {
            out[k + j] += xv * t;
        }
    }
}

/// Full planar-IQ convolution with real `f32` taps, overwriting `out`.
///
/// Both rails convolve with the same taps (linear-phase channel filters), so
/// one pass streams I and Q together.
///
/// # Panics
///
/// Panics if `taps` is empty or the rails of `x` differ in length.
pub fn fir_planar_into(taps: &[f32], x: crate::iqbuf::IqSlice<'_>, out: &mut IqBuf) {
    assert!(!taps.is_empty(), "FIR filter needs at least one tap");
    out.clear();
    out.resize(x.len() + taps.len() - 1);
    let (oi, oq) = out.rails_mut();
    let (xi, xq) = (x.i(), x.q());
    for k in 0..xi.len() {
        let (vi, vq) = (xi[k], xq[k]);
        if vi == 0.0 && vq == 0.0 {
            continue;
        }
        let mut j = 0;
        while j + LANES <= taps.len() {
            for l in 0..LANES {
                oi[k + j + l] += vi * taps[j + l];
                oq[k + j + l] += vq * taps[j + l];
            }
            j += LANES;
        }
        while j < taps.len() {
            oi[k + j] += vi * taps[j];
            oq[k + j] += vq * taps[j];
            j += 1;
        }
    }
}

/// Scalar reference for [`fir_planar_into`] — bit-identical output.
///
/// # Panics
///
/// Panics if `taps` is empty or the rails of `x` differ in length.
pub fn fir_planar_scalar_into(taps: &[f32], x: crate::iqbuf::IqSlice<'_>, out: &mut IqBuf) {
    assert!(!taps.is_empty(), "FIR filter needs at least one tap");
    out.clear();
    out.resize(x.len() + taps.len() - 1);
    let (oi, oq) = out.rails_mut();
    let (xi, xq) = (x.i(), x.q());
    for k in 0..xi.len() {
        let (vi, vq) = (xi[k], xq[k]);
        if vi == 0.0 && vq == 0.0 {
            continue;
        }
        for (j, &t) in taps.iter().enumerate() {
            oi[k + j] += vi * t;
            oq[k + j] += vq * t;
        }
    }
}

/// Hard-decision slicer: NRZ soft values to bits (`1` when `s ≥ 0`, the same
/// tie-break as [`crate::bits::nrz_to_bits`], including `−0.0 → 1`).
pub fn nrz_hard_bits_into(soft: &[f32], out: &mut Vec<u8>) {
    out.reserve(soft.len());
    out.extend(soft.iter().map(|&s| u8::from(s >= 0.0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atan2_fast_tracks_f64_atan2() {
        let mut worst = 0.0f64;
        for yi in -25..=25 {
            for xi in -25..=25 {
                let (y, x) = (yi as f32 * 0.17, xi as f32 * 0.13);
                if y == 0.0 && x == 0.0 {
                    continue;
                }
                let got = f64::from(atan2_fast(y, x));
                let want = f64::from(y).atan2(f64::from(x));
                // ±π is one angle: fold the difference onto (−π, π].
                let d = got - want;
                let err = d.abs().min((d - std::f64::consts::TAU).abs());
                worst = worst.max(err.min((d + std::f64::consts::TAU).abs()));
            }
        }
        assert!(worst < 1e-4, "worst atan2 error {worst}");
    }

    #[test]
    fn atan2_fast_axes_and_origin() {
        assert_eq!(atan2_fast(0.0, 0.0), 0.0);
        assert_eq!(atan2_fast(0.0, 2.0), 0.0);
        assert!((atan2_fast(3.0, 0.0) - std::f32::consts::FRAC_PI_2).abs() < 1e-6);
        assert!((atan2_fast(-3.0, 0.0) + std::f32::consts::FRAC_PI_2).abs() < 1e-6);
        assert!((atan2_fast(0.0, -1.0) - std::f32::consts::PI).abs() < 1e-6);
    }

    fn tone(n: usize) -> (Vec<f32>, Vec<f32>) {
        let step = 0.3f64;
        (0..n)
            .map(|k| {
                let p = step * k as f64;
                (p.cos() as f32, p.sin() as f32)
            })
            .unzip()
    }

    #[test]
    fn discriminate_planar_recovers_tone_step() {
        let (i, q) = tone(64);
        let mut out = Vec::new();
        discriminate_planar_into(&i, &q, &mut out);
        assert_eq!(out.len(), 63);
        for v in out {
            assert!((v - 0.3).abs() < 1e-4, "step estimate {v}");
        }
    }

    #[test]
    fn discriminate_simd_matches_scalar_bitwise() {
        for n in [0usize, 1, 2, 7, 8, 9, 31, 64, 65] {
            let (i, q) = tone(n);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            discriminate_planar_into(&i, &q, &mut a);
            discriminate_planar_scalar_into(&i, &q, &mut b);
            let a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "length {n}");
        }
    }

    #[test]
    fn window_sums_matches_scalar_bitwise() {
        let x: Vec<f32> = (0..203).map(|k| ((k * 37) % 19) as f32 - 9.0).collect();
        for w in [1usize, 2, 3, 8, 13] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            window_sums_into(&x, w, &mut a);
            window_sums_scalar_into(&x, w, &mut b);
            assert_eq!(a.len(), x.len() / w);
            let a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "window {w}");
        }
    }

    #[test]
    fn fir_real_matches_fir_crate_shape() {
        // 2-tap moving average, mirroring the Fir doctest.
        let mut y = Vec::new();
        fir_real_into(&[0.5, 0.5], &[1.0, 1.0, 0.0], &mut y);
        assert_eq!(y, vec![0.5, 1.0, 0.5, 0.0]);
    }

    #[test]
    fn accumulate_places_and_scales() {
        let mut dst = IqBuf::new();
        let src = vec![Iq::new(1.0, -1.0); 3];
        accumulate_interleaved_at(&mut dst, &src, 2, 0.5);
        assert_eq!(dst.len(), 5);
        assert_eq!(dst.get(1), (0.0, 0.0));
        assert_eq!(dst.get(3), (0.5, -0.5));
        // Overlapping placement accumulates.
        accumulate_interleaved_at(&mut dst, &src, 4, 1.0);
        assert_eq!(dst.len(), 7);
        assert_eq!(dst.get(4), (1.5, -1.5));
    }

    #[test]
    fn nrz_hard_bits_tie_breaks_like_bits_module() {
        let mut out = Vec::new();
        nrz_hard_bits_into(&[1.5, -0.2, 0.0, -0.0], &mut out);
        assert_eq!(out, vec![1, 0, 1, 1]);
    }
}
