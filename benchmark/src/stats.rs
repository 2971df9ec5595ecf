//! Order statistics used by the timed loops and by `compare`.

/// The percentile ladder a tail latency may be reported at.
const LADDER: [f64; 6] = [75.0, 80.0, 90.0, 95.0, 99.0, 99.9];

/// Sort a copy of `values` ascending (NaN-free by construction: every
/// sample is a duration or a finite ratio).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of an ascending slice (mean of the two middle values when the
/// count is even). Panics on an empty slice: a timed loop always runs
/// at least one op.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

/// Mean of what is left after dropping the `trim` share of the samples
/// (rounded down) at each end.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "mean of no samples");
    let cut = (s.len() as f64 * trim) as usize;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// small slack keeps `99.9 % of 10 000` at rank 9 990 although the
/// product is not exact in binary.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile position.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it, or `None` when even p75 does not (fewer than 40 samples):
/// a tail read off fewer than ten samples is one slow op, not a tail.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), which is what the acceptance rule for this benchmark uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // position i*(n+1)/4 in 1-based ranks, interpolated
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// `compare` holds against each bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // < 40 samples: nothing above the median is supported.
        assert_eq!(highest_supported_percentile(1), None);
        assert_eq!(highest_supported_percentile(39), None);
        // 40 samples: p75 leaves exactly 10 beyond.
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(49), Some(75.0));
        // 50: p80 leaves 10; 100: p90; 200: p95; 1000: p99; 10000: p99.9.
        assert_eq!(highest_supported_percentile(50), Some(80.0));
        assert_eq!(highest_supported_percentile(99), Some(80.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // The rule holds for every count: the chosen percentile has >= 10
        // beyond it and the next ladder step does not.
        for n in 1..2000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0];
        assert_eq!(trimmed_mean(&v, 0.10), 4.5);
        assert_eq!(trimmed_mean(&v, 0.0), 13.6);
        // Fewer than ten samples: a tenth rounds down to nothing.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.10), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 75.0), 75.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 75.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
