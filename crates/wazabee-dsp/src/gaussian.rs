//! Gaussian pulse shaping for GFSK/GMSK modulators.
//!
//! BLE shapes its frequency-modulating NRZ signal with a Gaussian filter of
//! bandwidth-time product `BT = 0.5` (Core spec vol 6, part A §3.1). The
//! WazaBee paper's central approximation (§IV-B1) is that this filter can be
//! neglected, turning GFSK into plain MSK; the filter designed here lets the
//! simulation quantify exactly how much chip error that approximation costs.

use crate::fir::Fir;

/// Designs the Gaussian pulse-shaping filter used by a GFSK modulator.
///
/// `bt` is the bandwidth-time product (0.5 for BLE, 0.3 for classic GSM),
/// `samples_per_symbol` the oversampling factor, and `span_symbols` how many
/// symbol periods the truncated impulse response covers (3 is plenty for
/// BT ≥ 0.3).
///
/// The returned filter is normalised so that a long run of identical symbols
/// reaches exactly the nominal frequency deviation (unit DC gain).
///
/// # Panics
///
/// Panics if any argument is zero/non-positive.
///
/// # Examples
///
/// ```
/// use wazabee_dsp::gaussian::gaussian_filter;
/// let f = gaussian_filter(0.5, 8, 3);
/// // Symmetric, positive, unit-sum impulse response.
/// let taps = f.taps();
/// assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// assert!(taps.iter().all(|&t| t >= 0.0));
/// ```
pub fn gaussian_filter(bt: f64, samples_per_symbol: usize, span_symbols: usize) -> Fir {
    assert!(bt > 0.0, "BT product must be positive");
    assert!(
        samples_per_symbol > 0,
        "need at least one sample per symbol"
    );
    assert!(span_symbols > 0, "span must cover at least one symbol");

    // Standard GMSK Gaussian impulse response:
    //   h(t) = sqrt(2π/ln2) · B · exp(−2π²B²t²/ln2), with B = BT/Ts.
    let ln2 = std::f64::consts::LN_2;
    let sps = samples_per_symbol as f64;
    let half = (span_symbols * samples_per_symbol) as f64 / 2.0;
    let n = span_symbols * samples_per_symbol + 1;
    let mut taps = Vec::with_capacity(n);
    for k in 0..n {
        // Time in symbol periods relative to the pulse centre.
        let t = (k as f64 - half) / sps;
        let alpha = 2.0 * std::f64::consts::PI * std::f64::consts::PI * bt * bt / ln2;
        taps.push((-alpha * t * t).exp());
    }
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    Fir::new(taps)
}

/// Shapes an NRZ symbol stream (±1 per symbol) into a frequency-modulating
/// waveform at `samples_per_symbol` oversampling, applying the Gaussian filter.
///
/// Output length is `symbols.len() * samples_per_symbol` — the filter's group
/// delay is compensated so sample `k*sps .. (k+1)*sps` corresponds to symbol
/// `k`. Bit-identical to [`shape_nrz_scalar`], the scatter FIR it replaced.
///
/// A sample whose filter window lies wholly inside the signal is fixed by the
/// `span + 1` symbols under the window and its phase within the symbol, so
/// those samples are copied from a per-call table of `2^(span+1) × sps`
/// entries, each summed in the scatter FIR's order (ascending input index,
/// from `0.0`). The ≤ `taps − 1` samples at the edges, and every sample when
/// the table would have more rows than the signal has full windows, are
/// summed directly in that same order.
///
/// # Panics
///
/// Panics if a symbol is not exactly `1.0` or `-1.0`, or if `bt`,
/// `samples_per_symbol` or `span_symbols` is zero/non-positive.
pub fn shape_nrz(
    symbols: &[f64],
    bt: f64,
    samples_per_symbol: usize,
    span_symbols: usize,
) -> Vec<f64> {
    let _s = wazabee_telemetry::scope!("dsp.gaussian_shape");
    assert!(
        symbols.iter().all(|&s| s == 1.0 || s == -1.0),
        "shape_nrz takes ±1 NRZ symbols"
    );
    let filter = gaussian_filter(bt, samples_per_symbol, span_symbols);
    let (h, sps, span) = (filter.taps(), samples_per_symbol, span_symbols);
    let len = symbols.len() * sps;
    // Output `t` is sample `t + delay` of the full convolution.
    let delay = (h.len() - 1) / 2;
    let direct = |t: usize| full_sample(symbols, h, sps, t + delay);
    let mut out = Vec::with_capacity(len);
    let full_windows = symbols.len().saturating_sub(span);
    let rows = u32::try_from(span + 1)
        .ok()
        .and_then(|bits| 1usize.checked_shl(bits))
        .unwrap_or(usize::MAX);
    if rows > full_windows {
        out.extend((0..len).map(direct));
        return out;
    }
    // Entry `pattern · sps + r` is the full-window sample at phase `r` whose
    // window covers the symbols of `pattern`, oldest in bit 0. Window input
    // `k` is symbol `(r + k) / sps` of the pattern and meets tap
    // `taps − 1 − k`.
    let mut table = Vec::with_capacity(rows * sps);
    for pattern in 0..rows {
        for r in 0..sps {
            let mut acc = 0.0;
            for (k, &tap) in h.iter().rev().enumerate() {
                let x = if pattern >> ((r + k) / sps) & 1 == 1 {
                    1.0
                } else {
                    -1.0
                };
                acc += x * tap;
            }
            table.push(acc);
        }
    }
    // The window of full convolution sample `m` is whole from `m = span·sps`.
    let first_full = span * sps - delay;
    out.extend((0..first_full).map(direct));
    let bit = |s: f64| usize::from(s > 0.0);
    let mut pattern = symbols[..span]
        .iter()
        .enumerate()
        .fold(0, |p, (k, &s)| p | bit(s) << (k + 1));
    for &s in &symbols[span..] {
        pattern = pattern >> 1 | bit(s) << span;
        out.extend_from_slice(&table[pattern * sps..(pattern + 1) * sps]);
    }
    out.extend((len - delay..len).map(direct));
    out
}

/// Sample `m` of the full convolution of `h` with the `sps`-fold
/// rectangular image of `symbols`, summed as the scatter FIR sums it:
/// inputs in ascending order, starting from `0.0`.
fn full_sample(symbols: &[f64], h: &[f64], sps: usize, m: usize) -> f64 {
    let lo = (m + 1).saturating_sub(h.len());
    let hi = (m + 1).min(symbols.len() * sps);
    let mut acc = 0.0;
    for k in lo..hi {
        acc += symbols[k / sps] * h[m - k];
    }
    acc
}

/// Scalar reference for [`shape_nrz`]: the rectangular image of the symbols
/// through the scatter-form [`Fir::filter_real_same_into`] — bit-identical
/// output on ±1 symbols.
pub fn shape_nrz_scalar(
    symbols: &[f64],
    bt: f64,
    samples_per_symbol: usize,
    span_symbols: usize,
) -> Vec<f64> {
    let rect: Vec<f64> = symbols
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s, samples_per_symbol))
        .collect();
    let filter = gaussian_filter(bt, samples_per_symbol, span_symbols);
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    filter.filter_real_same_into(&rect, &mut scratch, &mut out);
    out
}

/// Rectangular (unfiltered) oversampling of an NRZ stream — the MSK limit the
/// paper's theory assumes.
pub fn shape_nrz_rect(symbols: &[f64], samples_per_symbol: usize) -> Vec<f64> {
    symbols
        .iter()
        .flat_map(|&s| std::iter::repeat_n(s, samples_per_symbol))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_is_symmetric() {
        let f = gaussian_filter(0.5, 8, 3);
        let taps = f.taps();
        for k in 0..taps.len() / 2 {
            let mirror = taps.len() - 1 - k;
            assert!((taps[k] - taps[mirror]).abs() < 1e-12);
        }
    }

    #[test]
    fn filter_peak_is_central() {
        let f = gaussian_filter(0.5, 8, 3);
        let taps = f.taps();
        let peak = taps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, taps.len() / 2);
    }

    #[test]
    fn narrower_bt_spreads_energy() {
        // Lower BT → wider pulse → smaller peak tap.
        let tight = gaussian_filter(0.5, 8, 4);
        let loose = gaussian_filter(0.3, 8, 4);
        let peak = |f: &Fir| f.taps().iter().cloned().fold(0.0_f64, f64::max);
        assert!(peak(&loose) < peak(&tight));
    }

    #[test]
    fn long_run_reaches_full_deviation() {
        let shaped = shape_nrz(&[1.0; 16], 0.5, 8, 3);
        // Middle of a long run of +1 symbols must sit at +1 (unit DC gain).
        let mid = shaped[8 * 8];
        assert!((mid - 1.0).abs() < 1e-6, "mid-run value {mid}");
    }

    #[test]
    fn isolated_symbol_underreaches_with_gaussian() {
        // A 101 pattern: the single 0 between 1s cannot reach −1 with BT=0.5.
        let shaped = shape_nrz(&[1.0, -1.0, 1.0], 0.5, 16, 3);
        let min = shaped.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > -1.0 && min < -0.5, "isolated symbol deviation {min}");
    }

    #[test]
    fn rect_shape_is_exact() {
        let shaped = shape_nrz_rect(&[1.0, -1.0], 4);
        assert_eq!(shaped, vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn output_length_matches_symbols() {
        let shaped = shape_nrz(&[1.0, -1.0, 1.0, 1.0], 0.5, 8, 3);
        assert_eq!(shaped.len(), 4 * 8);
    }
}
