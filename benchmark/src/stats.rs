//! Order statistics used by every metric: nearest-rank percentiles, the
//! quartiles Python's `statistics.quantiles(values, n=4)` returns (so the
//! spread printed here is the spread the acceptance driver computes), and the
//! "ten samples beyond" rule that decides which percentile a sample count can
//! support.

/// Sorts `values` ascending by IEEE total order (NaN sorts last, never panics).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it.  `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// Whether `n` samples support reporting percentile `p`: at least ten samples
/// must lie beyond it, or the reported value is one outlier's latency.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median of an unsorted sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method: position `k (n + 1) / 4`, linear
/// interpolation between the clamped neighbours — which, like Python,
/// extrapolates for two samples).  A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let at = |k: usize| {
                let j = (k * (n + 1) / 4).clamp(1, n - 1);
                let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (at(1), at(3))
        }
    }
}

/// Inter-quartile range as a share of the median — the steadiness measure
/// every bound in `BENCHMARK.json` is derived from.  `0.0` when the median is
/// zero or fewer than two samples exist.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Unsorted input goes through `sorted`, NaN last.
        let s = sorted(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(&s[..3], &[1.0, 2.0, 3.0]);
        assert!(s[3].is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples is the 190th: exactly ten beyond it.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports_percentile(200, 0.95));
        assert!(!supports_percentile(199, 0.95));
        // p99 needs a thousand samples, p50 only twenty.
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(20, 0.50));
        assert!(!supports_percentile(19, 0.50));
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q3), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
        // extrapolates for two points, and so do we.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[]), 0.0);
    }
}
