//! Order statistics over the repeated samples of one metric.

/// Median, quartiles, the tail percentile and the sample count of one
/// metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// The highest reported percentile with at least ten samples beyond
    /// it, as `(percentile, value)`; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The three cut points `(p25, p50, p75)`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match those a Python consumer computes. A single
/// sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest of the usual reporting percentiles that leaves at least
/// ten samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find(|&p| {
        let at_or_below = (n as f64 * p / 100.0).ceil() as usize;
        n.saturating_sub(at_or_below) >= 10
    })
}

/// Nearest-rank percentile `p` (0–100) of the samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = (v.len() as f64 * p / 100.0).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Summarizes a non-empty sample set.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(xs: &[f64]) -> Summary {
    let (p25, _, p75) = quartiles(xs);
    Summary {
        median: median(xs),
        p25,
        p75,
        tail: tail_percentile(xs.len()).map(|p| (p, percentile(xs, p))),
        n: xs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let xs: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.0, 4.0, 6.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the samples.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        // statistics.quantiles([9, 1, 5], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[9.0, 1.0, 5.0]), (1.0, 5.0, 9.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(7), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 75.0), 30.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn summary_reports_tail_only_with_enough_samples() {
        let small = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(small.n, 3);
        assert_eq!(small.median, 2.0);
        assert_eq!(small.tail, None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail, Some((75.0, 30.0)));
    }
}
