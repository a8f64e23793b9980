//! Order statistics over small sample sets.

/// The value at quantile `p` (0..=1) of an ascending slice, by the
/// nearest-rank rule: the smallest sample with at least `p` of the samples
/// at or below it. Always returns a value that was actually measured.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending slice; the mean of the middle pair when the count
/// is even.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&ascending(values))
}

/// What a metric reports about its samples: the median is the gated value,
/// min/max and the count say how far to trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub samples: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = ascending(values);
        Summary {
            median: median_sorted(&sorted),
            min: sorted.first().copied().unwrap_or(0.0),
            max: sorted.last().copied().unwrap_or(0.0),
            samples: sorted.len(),
        }
    }

    /// A derived or counted metric: one value, no spread.
    pub fn single(value: f64) -> Summary {
        Summary { median: value, min: value, max: value, samples: 1 }
    }
}

/// `numerator / denominator`, 0 when the denominator is 0 (an empty layer
/// reads as "no share", never as NaN in a result file).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle_or_mean_of_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_always_a_sample() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 9.0], 0.99), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_reports_range_and_count() {
        let s = Summary::of(&[0.3, 0.1, 0.2]);
        assert_eq!((s.median, s.min, s.max, s.samples), (0.2, 0.1, 0.3, 3));
        assert_eq!(Summary::single(4.0).samples, 1);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
