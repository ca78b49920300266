//! Descriptive statistics and empirical CDFs.
//!
//! The TafLoc evaluation reports everything as CDFs (Fig. 3, Fig. 5) and summary
//! statistics (mean reconstruction error, median localization error); this module
//! provides those primitives once, shared by the core crate, the baselines and the
//! bench harness.

use crate::{LinalgError, Result};

/// Arithmetic mean. Errors on empty input.
pub fn mean(values: &[f64]) -> Result<f64> {
    if values.is_empty() {
        return Err(LinalgError::EmptyInput { op: "stats::mean" });
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (`1/n` normalization). Errors on empty input.
pub fn variance(values: &[f64]) -> Result<f64> {
    let m = mean(values)?;
    Ok(values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64)
}

/// Population standard deviation. Errors on empty input.
pub fn std_dev(values: &[f64]) -> Result<f64> {
    Ok(variance(values)?.sqrt())
}

/// Linear-interpolated percentile, `p` in `[0, 1]`.
///
/// Uses the standard `(n-1)·p` convention: `percentile(v, 0.5)` of an even-length
/// sample is the midpoint of the two central order statistics.
pub fn percentile(values: &[f64], p: f64) -> Result<f64> {
    if values.is_empty() {
        return Err(LinalgError::EmptyInput { op: "stats::percentile" });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(LinalgError::InvalidArgument {
            op: "stats::percentile",
            reason: format!("p must be in [0,1], got {p}"),
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in percentile input"));
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50th percentile). Errors on empty input.
pub fn median(values: &[f64]) -> Result<f64> {
    percentile(values, 0.5)
}

/// An empirical cumulative distribution function over a finite sample.
///
/// `Ecdf` powers the paper-figure outputs: build one from the per-entry
/// reconstruction errors (Fig. 3) or the per-trial localization errors (Fig. 5),
/// then evaluate it at the x-grid the figure uses.
///
/// ```
/// use taf_linalg::stats::Ecdf;
/// let errors = [0.2, 0.5, 1.1, 2.4];
/// let cdf = Ecdf::new(&errors).unwrap();
/// assert_eq!(cdf.eval(1.0), 0.5);      // half the sample is <= 1.0
/// assert_eq!(cdf.median(), 0.8);       // interpolated
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. Errors on empty input; NaN values are
    /// rejected because they have no place in an ordering.
    pub fn new(values: &[f64]) -> Result<Ecdf> {
        if values.is_empty() {
            return Err(LinalgError::EmptyInput { op: "Ecdf::new" });
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(LinalgError::InvalidArgument {
                op: "Ecdf::new",
                reason: "sample contains NaN".into(),
            });
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
        Ok(Ecdf { sorted })
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` (construction rejects empty samples); present for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`: fraction of the sample at or below `x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x when we search for
        // the first element > x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF by linear interpolation; `p` clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let idx = p * (self.sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median of the sample.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the sample.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Smallest sample value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample value.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v).unwrap(), 2.5);
        assert_eq!(variance(&v).unwrap(), 1.25);
        assert!((std_dev(&v).unwrap() - 1.25_f64.sqrt()).abs() < 1e-15);
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&v, 1.0).unwrap(), 40.0);
        assert_eq!(percentile(&v, 0.5).unwrap(), 25.0);
        assert!(percentile(&v, 1.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
    }

    #[test]
    fn ecdf_eval_steps() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new(&[0.0, 10.0]).unwrap();
        assert_eq!(e.quantile(0.5), 5.0);
        assert_eq!(e.quantile(-1.0), 0.0); // clamped
        assert_eq!(e.quantile(2.0), 10.0); // clamped
        assert_eq!(e.median(), 5.0);
    }

    #[test]
    fn ecdf_summary_stats() {
        let e = Ecdf::new(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
        assert_eq!(e.mean(), 2.0);
    }

    #[test]
    fn ecdf_rejects_bad_input() {
        assert!(Ecdf::new(&[]).is_err());
        assert!(Ecdf::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn percentile_rejects_p_outside_the_unit_interval() {
        let v = [1.0, 2.0];
        for p in [-0.01, 1.01, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(percentile(&v, p), Err(LinalgError::InvalidArgument { .. })),
                "p = {p}"
            );
        }
    }

    #[test]
    fn single_value_has_no_spread() {
        let v = [-42.5];
        assert_eq!(variance(&v).unwrap(), 0.0);
        assert_eq!(std_dev(&v).unwrap(), 0.0);
        for p in [0.0, 0.3, 1.0] {
            assert_eq!(percentile(&v, p).unwrap(), -42.5);
        }
    }

    #[test]
    fn ecdf_counts_ties_together() {
        let e = Ecdf::new(&[1.0, 2.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.eval(1.999), 0.2);
        assert_eq!(e.eval(2.0), 0.8);
        assert_eq!(e.median(), 2.0);
    }

    #[test]
    fn ecdf_quantile_matches_percentile() {
        let v = [7.0, -3.0, 0.5, 12.0, 4.0, 4.0, -8.5];
        let e = Ecdf::new(&v).unwrap();
        for k in 0..=20 {
            let p = k as f64 / 20.0;
            assert_eq!(e.quantile(p), percentile(&v, p).unwrap(), "p = {p}");
        }
    }
}
