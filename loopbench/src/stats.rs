//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` is clamped to
/// `[0, 1]`; an empty slice yields 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_index(sorted.len(), q)]
}

/// Zero-based index of the nearest-rank `q` percentile among `n` samples.
fn rank_index(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of unsorted values (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The percentiles a run reports for one latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 90th percentile: the tail the end-to-end metrics check.
    pub p90: f64,
    /// 99th percentile (traced runs only, for diagnosis).
    pub p99: f64,
    /// 99.9th percentile (traced runs only, for diagnosis).
    pub p999: f64,
}

impl Summary {
    /// Summarises unsorted samples.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            p50: percentile(&v, 0.50),
            p90: percentile(&v, 0.90),
            p99: percentile(&v, 0.99),
            p999: percentile(&v, 0.999),
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_indexing() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0, "q = 0 is the smallest sample");
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.999), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentiles_need_enough_samples() {
        // p99.9 of 1000 samples is the 999th value, not the maximum.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.999), 999.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -1.0), 1.0);
        assert_eq!(percentile(&v, 2.0), 3.0);
    }

    #[test]
    fn median_and_summary_sort_their_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "nearest rank takes the lower middle");
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p50, s.p90), (2.0, 3.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
