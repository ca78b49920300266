//! Evaluation metrics shared by the experiments.
//!
//! The paper reports two kinds of curves: CDFs of **fingerprint reconstruction
//! error** in dBm (Fig. 3) and CDFs of **localization error** in meters (Fig. 5),
//! plus summary means/medians in the text. This module turns raw results into
//! those quantities.

use crate::error::TaflocError;
use crate::Result;
use taf_linalg::stats::Ecdf;
use taf_linalg::Matrix;
use taf_rfsim::geometry::Point;

/// Per-entry absolute reconstruction errors `|X̂ − X|` flattened to a vector —
/// the sample behind one Fig. 3 curve.
pub fn reconstruction_errors(estimate: &Matrix, truth: &Matrix) -> Result<Vec<f64>> {
    if estimate.shape() != truth.shape() {
        return Err(TaflocError::DimensionMismatch {
            op: "reconstruction_errors",
            expected: truth.shape(),
            actual: estimate.shape(),
        });
    }
    Ok(estimate.sub(truth)?.iter().map(f64::abs).collect())
}

/// Builds the ECDF of per-entry reconstruction errors.
pub fn reconstruction_error_cdf(estimate: &Matrix, truth: &Matrix) -> Result<Ecdf> {
    let errs = reconstruction_errors(estimate, truth)?;
    Ecdf::new(&errs).map_err(TaflocError::from)
}

/// Root-mean-square per-entry reconstruction error (dB) — the single scalar
/// the regression gates compare across runs.
pub fn reconstruction_rmse(estimate: &Matrix, truth: &Matrix) -> Result<f64> {
    let errs = reconstruction_errors(estimate, truth)?;
    let n = errs.len().max(1);
    Ok((errs.iter().map(|e| e * e).sum::<f64>() / n as f64).sqrt())
}

/// Euclidean localization error (meters) between an estimate and the truth.
pub fn localization_error(estimate: &Point, truth: &Point) -> f64 {
    estimate.distance(truth)
}

/// Summary of one experiment's error sample.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSummary {
    /// Arithmetic mean error.
    pub mean: f64,
    /// Median error.
    pub median: f64,
    /// 90th-percentile error.
    pub p90: f64,
    /// Maximum error.
    pub max: f64,
    /// Sample size.
    pub count: usize,
}

impl ErrorSummary {
    /// Summarizes a non-empty error sample.
    pub fn from_errors(errors: &[f64]) -> Result<Self> {
        let ecdf = Ecdf::new(errors).map_err(TaflocError::from)?;
        Ok(ErrorSummary {
            mean: ecdf.mean(),
            median: ecdf.median(),
            p90: ecdf.quantile(0.9),
            max: ecdf.max(),
            count: ecdf.len(),
        })
    }
}

impl std::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.3}, median {:.3}, p90 {:.3}, max {:.3} (n = {})",
            self.mean, self.median, self.p90, self.max, self.count
        )
    }
}

/// Renders a per-cell scalar field (localization image, error map, fingerprint
/// row) as an ASCII heat map, one character per grid cell, brightest value `#`.
///
/// Rows are printed top-to-bottom (highest `y` first) so the output matches a
/// floor plan viewed from above. Returns the multi-line string.
pub fn ascii_heatmap(values: &[f64], grid: &taf_rfsim::grid::FloorGrid) -> Result<String> {
    if values.len() != grid.num_cells() {
        return Err(TaflocError::DimensionMismatch {
            op: "ascii_heatmap",
            expected: (grid.num_cells(), 1),
            actual: (values.len(), 1),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(TaflocError::InvalidConfig {
            field: "values",
            reason: "heat map values must be finite".into(),
        });
    }
    const RAMP: &[u8] = b" .:-=+*%@#";
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    let mut out = String::with_capacity((grid.nx() + 1) * grid.ny());
    for iy in (0..grid.ny()).rev() {
        for ix in 0..grid.nx() {
            let v = values[iy * grid.nx() + ix];
            let t = ((v - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[t.min(RAMP.len() - 1)] as char);
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_errors_absolute() {
        let truth = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let est = Matrix::from_rows(&[&[1.5, 1.0], &[3.0, 6.0]]).unwrap();
        let errs = reconstruction_errors(&est, &truth).unwrap();
        assert_eq!(errs, vec![0.5, 1.0, 0.0, 2.0]);
        assert!(reconstruction_errors(&est, &Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn cdf_of_reconstruction_errors() {
        let truth = Matrix::zeros(1, 4);
        let est = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]).unwrap();
        let cdf = reconstruction_error_cdf(&est, &truth).unwrap();
        assert_eq!(cdf.eval(2.0), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        let truth = Matrix::zeros(1, 4);
        let est = Matrix::from_rows(&[&[3.0, 4.0, 0.0, 0.0]]).unwrap();
        let rmse = reconstruction_rmse(&est, &truth).unwrap();
        assert!((rmse - (25.0f64 / 4.0).sqrt()).abs() < 1e-12);
        assert!(reconstruction_rmse(&est, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn localization_error_is_distance() {
        let e = localization_error(&Point::new(0.0, 0.0), &Point::new(3.0, 4.0));
        assert!((e - 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics() {
        let s = ErrorSummary::from_errors(&[1.0, 2.0, 3.0, 4.0, 10.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 10.0);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!(s.p90 > 4.0 && s.p90 <= 10.0);
        assert!(ErrorSummary::from_errors(&[]).is_err());
    }

    #[test]
    fn summary_display() {
        let s = ErrorSummary::from_errors(&[1.0, 1.0]).unwrap();
        let out = s.to_string();
        assert!(out.contains("median"));
        assert!(out.contains("n = 2"));
    }

    #[test]
    fn heatmap_renders_grid_shape() {
        use taf_rfsim::geometry::Point as P;
        let grid = taf_rfsim::grid::FloorGrid::new(P::new(0.0, 0.0), 1.0, 3, 2);
        // Max in cell 5 (top-right), min in cell 0 (bottom-left).
        let values = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let map = ascii_heatmap(&values, &grid).unwrap();
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 3);
        // Top row printed first contains the maximum marker '#'.
        assert!(lines[0].ends_with('#'), "{map}");
        // Bottom row starts with the minimum marker ' '.
        assert!(lines[1].starts_with(' '), "{map}");
    }

    #[test]
    fn heatmap_constant_field_and_errors() {
        use taf_rfsim::geometry::Point as P;
        let grid = taf_rfsim::grid::FloorGrid::new(P::new(0.0, 0.0), 1.0, 2, 2);
        let map = ascii_heatmap(&[3.0; 4], &grid).unwrap();
        // Constant field: all characters identical.
        let chars: Vec<char> = map.chars().filter(|c| *c != '\n').collect();
        assert!(chars.windows(2).all(|w| w[0] == w[1]));
        assert!(ascii_heatmap(&[1.0; 3], &grid).is_err());
        assert!(ascii_heatmap(&[f64::NAN, 0.0, 0.0, 0.0], &grid).is_err());
    }
}
