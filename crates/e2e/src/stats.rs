//! Order statistics used by every metric: percentiles that count failures,
//! medians over rounds, and the quartile spread the audit reports.

/// Nearest-rank percentile over `ok` latencies plus `failures` operations
/// that never produced one. A failed or refused operation misses every
/// latency limit, so failures sort as +∞: enough of them push the
/// percentile itself to +∞ instead of silently shrinking the sample.
/// `ok` need not be sorted. Returns 0.0 for an empty sample.
pub fn percentile_with_failures(ok: &[f64], failures: usize, p: f64) -> f64 {
    let n = ok.len() + failures;
    if n == 0 {
        return 0.0;
    }
    let mut sorted = ok.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let index = rank.clamp(1, n) - 1;
    sorted.get(index).copied().unwrap_or(f64::INFINITY)
}

/// Median (mean of the two middle values for an even count); 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max − min) / median`; 0.0 when the median is 0 or the sample is empty.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / m
}

/// `max / min`; 1.0 when empty or when the minimum is 0.
pub fn max_over_min(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    if values.is_empty() || min == 0.0 {
        1.0
    } else {
        max / min
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the
/// acceptance rule for this benchmark is stated in those terms. Needs at
/// least two values; fewer return the single value (or 0.0) three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// the benchmark must keep under each metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_failures_as_infinite() {
        let ok = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(percentile_with_failures(&ok, 0, 50.0), 2.0);
        assert_eq!(percentile_with_failures(&ok, 0, 90.0), 4.0);
        // One failure in five operations: the median is still finite, the
        // p90 is not — the failure is the slowest fifth of the sample.
        assert_eq!(percentile_with_failures(&ok, 1, 50.0), 3.0);
        assert_eq!(percentile_with_failures(&ok, 1, 90.0), f64::INFINITY);
        // Mostly failures: even the median is infinite.
        assert_eq!(percentile_with_failures(&ok, 5, 50.0), f64::INFINITY);
        assert_eq!(percentile_with_failures(&[], 0, 50.0), 0.0);
        assert_eq!(percentile_with_failures(&[], 3, 50.0), f64::INFINITY);
    }

    #[test]
    fn median_of_rounds_discards_one_outlier() {
        // Four ordinary rounds and one 1.7x first-window outlier.
        let rounds = [14.1, 24.0, 14.3, 13.9, 14.2];
        assert_eq!(median(&rounds), 14.2);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spreads() {
        assert_eq!(range_share(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(max_over_min(&[2.0, 3.0]), 1.5);
        assert_eq!(max_over_min(&[]), 1.0);
    }
}
