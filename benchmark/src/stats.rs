//! The arithmetic behind every reported number: nearest-rank percentiles,
//! medians, and the quartile spread the acceptance rule is stated in.

/// Sorts a sample ascending (latencies are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method), so a spread computed here is the
/// spread the acceptance rule computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    assert!(s.len() >= 2, "quartiles need two values");
    let at = |i: usize| {
        let m = s.len() + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Median of per-segment values: one value per segment from `per_segment`,
/// then the median over segments. Returns the median and, when there are at
/// least two segments, their quartile spread.
pub fn median_of_segments<S>(
    segments: &[S],
    per_segment: impl Fn(&S) -> f64,
) -> (f64, Option<f64>) {
    let values: Vec<f64> = segments.iter().map(per_segment).collect();
    let spread = (values.len() >= 2).then(|| quartile_spread(&values));
    (median(&values), spread)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Ten samples: p90 is the ninth, one sample lies beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.90), 9.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn median_of_segments_takes_one_value_per_segment() {
        // Each segment's value is its own p50; the reported value is the
        // median of those, not the p50 of the pooled sample.
        let segments = vec![
            sorted(vec![1.0, 2.0, 300.0]),
            sorted(vec![4.0, 5.0, 6.0]),
            sorted(vec![7.0, 8.0, 9.0]),
        ];
        let (value, spread) = median_of_segments(&segments, |s| percentile(s, 0.5));
        assert_eq!(value, 5.0);
        assert!(spread.is_some());
        let (single, no_spread) = median_of_segments(&segments[..1], |s| percentile(s, 0.5));
        assert_eq!(single, 2.0);
        assert!(no_spread.is_none());
    }
}
