//! Order statistics: the median and quartiles every metric is reported
//! with, and the rule that picks which tail percentile a sample supports.

/// Sorts a sample (no NaNs are ever measured).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    values
}

/// The three quartile cut points of a sorted sample, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them, so the spreads printed
/// here are the ones the acceptance check sees. A single value is its own
/// quartiles.
#[must_use]
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    assert!(m > 0, "quartiles of an empty sample");
    if m == 1 {
        return [sorted[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Median of a sorted sample.
#[must_use]
pub fn median(sorted: &[f64]) -> f64 {
    quartiles(sorted)[1]
}

/// The percentiles a latency tail may be named after, best first.
const TAILS: [u32; 5] = [99, 95, 90, 75, 50];

/// The highest percentile of [`TAILS`] that has at least ten samples beyond
/// it in a sample of `n`, or `None` when even the median has fewer.
#[must_use]
pub fn supported_tail(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&p| n - rank(n, p).min(n) >= 10)
}

/// Nearest-rank position (1-based) of percentile `p` in a sample of `n`.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` of a sorted sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The tail of a sample given in arrival order: which percentile the sample
/// supports, and its value. When the sample is several times the size that
/// percentile needs, it is cut into that many consecutive segments and the
/// median of the segments' percentiles is reported, so one burst of
/// scheduler noise moves one segment and not the metric. With fewer than 20
/// samples the median is all there is.
#[must_use]
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let p = supported_tail(samples.len()).unwrap_or(50);
    let needed = (1..).find(|&n| supported_tail(n) >= Some(p)).unwrap_or(1);
    let segments = (samples.len() / needed).max(1);
    let per_segment = samples
        .chunks(samples.len().div_ceil(segments))
        .map(|segment| percentile(&sorted(segment.to_vec()), p))
        .collect();
    (p, median(&sorted(per_segment)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3, 7], n=4)
        assert_eq!(quartiles(&[1.0, 3.0, 7.0]), [1.0, 3.0, 7.0]);
        // statistics.quantiles([2, 4], n=4)
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), Some(99));
        assert_eq!(supported_tail(999), Some(95));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(99), Some(75));
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(39), Some(50));
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn tail_is_the_median_of_segment_percentiles() {
        // 3000 samples support p99 three times over; one segment holds a
        // burst that a whole-sample p99 would report.
        let mut samples: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        for burst in &mut samples[1000..1050] {
            *burst = 10_000.0;
        }
        assert_eq!(percentile(&sorted(samples.clone()), 99), 10_000.0);
        assert_eq!(tail(&samples), (99, 98.0));
        // Too small to segment: the plain supported percentile.
        let small: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail(&small), (95, 238.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50, 2.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sample, 99), 990.0);
        assert_eq!(percentile(&sample, 50), 500.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
