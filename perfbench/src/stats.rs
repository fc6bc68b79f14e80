//! Summary statistics shared by every workload: medians, the percentile
//! rule, real-time multiples and open-loop lateness.

/// Percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [0.50, 0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support the `p` percentile: at least
/// [`MIN_BEYOND`] samples must lie strictly beyond its nearest rank.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= MIN_BEYOND
}

/// The highest percentile on [`PERCENTILE_LADDER`] that `n` samples
/// support, or `None` when even the median is unsupported.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| supports(n, p))
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products such as 0.9999 × 100 000 from rounding up
    // past an exact rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// One line naming the sample count, the median and the highest percentile
/// the samples support, e.g. `push ms: 64000 samples, p50 0.15, p99.99 0.9`.
pub fn tail_note(name: &str, values: &[f64]) -> String {
    let n = values.len();
    let Some(top) = highest_supported(n) else {
        return format!("{name}: {n} samples, too few for a median");
    };
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "{name}: {n} samples, p50 {:.6}, p{} {:.6}",
        percentile_sorted(&sorted, 0.50),
        top * 100.0,
        percentile_sorted(&sorted, top)
    )
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile of unsorted values; `None` when `p` is not
/// supported by the sample count (see [`supports`]).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !supports(values.len(), p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, p))
}

/// Share of values dropped from each end by [`trimmed_mean`].
pub const TRIM: f64 = 0.1;

/// Mean of the values left after dropping the lowest and highest [`TRIM`]
/// share; `NaN` when empty. On a host whose speed flips between two levels
/// every few seconds, a median jumps from one level to the other as the
/// mix crosses one half, while this moves with the mix and still ignores
/// rare outliers.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * TRIM) as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// [`trimmed_mean`] over consecutive full windows of `window` samples of
/// each window's `p` percentile; `None` when no window supports `p`.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> Option<f64> {
    if !supports(window, p) {
        return None;
    }
    let per_window: Vec<f64> = values
        .chunks_exact(window)
        .filter_map(|w| percentile(w, p))
        .collect();
    (!per_window.is_empty()).then(|| trimmed_mean(&per_window))
}

/// Work per wall second over units of `(work, wall_s)`: total work over
/// total wall time. With seconds of air (or simulated time) as the work,
/// this is the multiple of real time, `rt_x`.
pub fn rate(units: &[(f64, f64)]) -> f64 {
    let work: f64 = units.iter().map(|u| u.0).sum();
    let wall: f64 = units.iter().map(|u| u.1).sum();
    work / wall
}

/// Median over consecutive full windows of `window` values of each
/// window's mean; `NaN` when there is no full window.
pub fn median_window_mean(values: &[f64], window: usize) -> f64 {
    let means: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| w.iter().sum::<f64>() / w.len() as f64)
        .collect();
    median(&means)
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Sample rate of the decode plane: LE 2M at 8 samples per symbol.
pub const SAMPLE_RATE_HZ: f64 = 16.0e6;

/// Seconds of airtime that `samples` complex samples span.
pub fn airtime_s(samples: u64) -> f64 {
    samples as f64 / SAMPLE_RATE_HZ
}

/// Open-loop schedule: when request `k` is due, `period_s` apart from the
/// release instant (seconds after release).
pub fn due_s(k: u64, period_s: f64) -> f64 {
    k as f64 * period_s
}

/// How late a send started against its schedule, in seconds; a send that
/// started early or on time is zero late.
pub fn lateness_s(due_s: f64, started_s: f64) -> f64 {
    (started_s - due_s).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 999 samples: rank 990, only 9 beyond it.
        assert!(!supports(999, 0.99));
        // 1000 samples: rank 990, exactly 10 beyond it.
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(!supports(0, 0.50));
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(9_999), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.99), Some(990.0));
    }

    #[test]
    fn windowed_percentiles() {
        // Three windows of 1000; the middle one is ten times slower.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.extend((1..=1000).map(|x| f64::from(x) * 10.0));
        v.extend((1..=1000).map(f64::from));
        v.extend([5.0; 999]); // a partial window is ignored
        assert_eq!(windowed_percentile(&v, 1000, 0.99), Some(3960.0));
        assert_eq!(windowed_percentile(&v, 999, 0.99), None);
        assert_eq!(windowed_percentile(&v[..999], 1000, 0.99), None);
    }

    #[test]
    fn trimmed_means() {
        assert!(trimmed_mean(&[]).is_nan());
        // One outlier in ten is trimmed away.
        let mut v = vec![1.0; 9];
        v.push(100.0);
        assert_eq!(trimmed_mean(&v), 1.0);
        // A two-level mix moves the trimmed mean smoothly.
        let mix = |fast: usize| {
            let mut v = vec![1.0; fast];
            v.extend(vec![2.0; 20 - fast]);
            trimmed_mean(&v)
        };
        assert_eq!(mix(9), 1.5625);
        assert_eq!(mix(10), 1.5);
        assert_eq!(mix(11), 1.4375);
    }

    #[test]
    fn window_medians() {
        // Three windows of two; one window is slowed fivefold, and a
        // partial window is ignored.
        let values = [1.0, 3.0, 2.0, 2.0, 10.0, 10.0, 2.5];
        assert_eq!(median_window_mean(&values, 2), 2.0);
        assert!(median_window_mean(&values, 8).is_nan());
    }

    #[test]
    fn medians() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rt_x_arithmetic() {
        // One 4096-sample chunk is 256 µs of air at 16 MS/s.
        assert!((airtime_s(4096) - 256e-6).abs() < 1e-15);
        // 16 M samples decoded in half a second: twice real time.
        assert!((rate(&[(airtime_s(16_000_000), 0.5)]) - 2.0).abs() < 1e-12);
        // Units pool: 1 s of air in 0.5 s and 1 s in 1.5 s is 2 s in 2 s,
        // not the mean of 2x and 0.67x.
        assert_eq!(rate(&[(1.0, 0.5), (1.0, 1.5)]), 1.0);
        // A simulator covering 4.096 s of sim time in 2.048 s of wall.
        assert!((rate(&[(4.096, 2.048)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn open_loop_lateness() {
        let period = airtime_s(4096);
        assert_eq!(due_s(0, period), 0.0);
        assert!((due_s(10, period) - 2.56e-3).abs() < 1e-15);
        // Early or on time counts as zero late.
        assert_eq!(lateness_s(1.0, 0.5), 0.0);
        assert_eq!(lateness_s(1.0, 1.0), 0.0);
        // A stall delays every later send: each is measured from its own
        // due time, not from when the previous send finished.
        let started = [0.0, 0.003, 0.003_1, 0.003_2];
        let late: Vec<f64> = started
            .iter()
            .enumerate()
            .map(|(k, &s)| lateness_s(due_s(k as u64, 0.001), s))
            .collect();
        assert_eq!(late[0], 0.0);
        assert!((late[1] - 0.002).abs() < 1e-12);
        assert!((late[2] - 0.001_1).abs() < 1e-12);
        assert!((late[3] - 0.000_2).abs() < 1e-12);
    }
}
