//! Reference-location selection.
//!
//! TafLoc refreshes the fingerprint database by measuring only `n ≪ N` reference
//! locations; everything hinges on choosing columns that span the fingerprint
//! matrix well. The paper selects *"locations with RSS measurements corresponding
//! to the maximum linearly independent vectors"* — numerically, the leading pivots
//! of a column-pivoted QR factorization. Two alternatives are provided for the
//! ablation study.

use crate::error::TaflocError;
use crate::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use taf_linalg::Matrix;

taf_wire::schema! {
    /// How to pick reference locations.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum ReferenceStrategy: external {
        /// Column-pivoted QR: greedy maximal linear independence (the paper's choice).
        QrPivot = 0 "QrPivot",
        /// Uniformly random distinct cells (ablation lower bound).
        Random = 1 "Random" {
            /// RNG seed for reproducibility.
            seed: u64,
        },
        /// Statistical leverage scores from the truncated SVD (a spectral
        /// alternative: columns with the largest projection onto the top right
        /// singular subspace).
        LeverageScore = 2 "LeverageScore",
    }
}

/// Selects `n` reference cells (column indices of `x`) using `strategy`.
///
/// Errors when `n` is zero or exceeds the number of columns.
pub fn select_references(x: &Matrix, n: usize, strategy: ReferenceStrategy) -> Result<Vec<usize>> {
    if n == 0 {
        return Err(TaflocError::InvalidConfig {
            field: "ref_count",
            reason: "must select at least one reference location".into(),
        });
    }
    if n > x.cols() {
        return Err(TaflocError::InsufficientReferences { requested: n, available: x.cols() });
    }
    match strategy {
        ReferenceStrategy::QrPivot => {
            let f = x.col_piv_qr()?;
            Ok(f.leading_columns(n)?)
        }
        ReferenceStrategy::Random { seed } => {
            let mut all: Vec<usize> = (0..x.cols()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            all.shuffle(&mut rng);
            all.truncate(n);
            Ok(all)
        }
        ReferenceStrategy::LeverageScore => {
            let k = n.min(x.rows());
            let svd = x.svd()?.truncate(k);
            // Leverage of column j: squared norm of row j of V (N x k).
            let mut scored: Vec<(usize, f64)> = (0..x.cols())
                .map(|j| {
                    let lev: f64 = (0..svd.v.cols()).map(|c| svd.v[(j, c)].powi(2)).sum();
                    (j, lev)
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite leverage"));
            Ok(scored.into_iter().take(n).map(|(j, _)| j).collect())
        }
    }
}

/// Quality diagnostic for a selection: the relative residual of projecting `x`
/// onto the span of the selected columns (`0` = selection spans the matrix,
/// `1` = selection explains nothing). Used by tests and the ablation bench.
pub fn selection_residual(x: &Matrix, selected: &[usize]) -> Result<f64> {
    let xr = x.select_cols(selected)?;
    // Least-squares fit of all columns on the selection: Z = (XrᵀXr + εI)⁻¹XrᵀX.
    let z = taf_linalg::solve::ridge_multi(&xr, x, 1e-8)?;
    let approx = xr.matmul(&z)?;
    let denom = x.frobenius_norm();
    if denom == 0.0 {
        return Ok(0.0);
    }
    Ok(x.sub(&approx)?.frobenius_norm() / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rank-3 matrix with clearly distinguishable column subsets.
    fn low_rank() -> Matrix {
        let u = Matrix::from_fn(6, 3, |i, j| ((i + 1) * (j + 2)) as f64 / 7.0);
        let v = Matrix::from_fn(3, 12, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
        u.matmul(&v).unwrap()
    }

    #[test]
    fn qr_pivot_selection_spans_low_rank_matrix() {
        let x = low_rank();
        let sel = select_references(&x, 3, ReferenceStrategy::QrPivot).unwrap();
        assert_eq!(sel.len(), 3);
        let res = selection_residual(&x, &sel).unwrap();
        assert!(res < 1e-6, "rank-3 matrix must be spanned by 3 QR pivots, residual {res}");
    }

    #[test]
    fn selected_indices_are_distinct_and_in_range() {
        let x = low_rank();
        for strat in [
            ReferenceStrategy::QrPivot,
            ReferenceStrategy::Random { seed: 1 },
            ReferenceStrategy::LeverageScore,
        ] {
            let sel = select_references(&x, 5, strat).unwrap();
            assert_eq!(sel.len(), 5);
            let mut s = sel.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 5, "{strat:?} returned duplicates: {sel:?}");
            assert!(sel.iter().all(|&j| j < x.cols()));
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let x = low_rank();
        let a = select_references(&x, 4, ReferenceStrategy::Random { seed: 9 }).unwrap();
        let b = select_references(&x, 4, ReferenceStrategy::Random { seed: 9 }).unwrap();
        assert_eq!(a, b);
        let c = select_references(&x, 4, ReferenceStrategy::Random { seed: 10 }).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn qr_pivot_beats_worst_case_random() {
        // On a matrix with many duplicate columns, QR pivoting avoids picking the
        // same direction twice.
        let base = low_rank();
        // Duplicate column 0 many times.
        let mut cols: Vec<usize> = vec![0; 9];
        cols.extend(0..base.cols());
        let x = base.select_cols(&cols).unwrap();
        let qr_sel = select_references(&x, 3, ReferenceStrategy::QrPivot).unwrap();
        let qr_res = selection_residual(&x, &qr_sel).unwrap();
        assert!(qr_res < 1e-6, "QR selection must still span, got {qr_res}");
    }

    #[test]
    fn leverage_score_spans_reasonably() {
        let x = low_rank();
        let sel = select_references(&x, 6, ReferenceStrategy::LeverageScore).unwrap();
        let res = selection_residual(&x, &sel).unwrap();
        assert!(res < 0.2, "leverage selection residual {res}");
    }

    #[test]
    fn rejects_bad_counts() {
        let x = low_rank();
        assert!(matches!(
            select_references(&x, 0, ReferenceStrategy::QrPivot),
            Err(TaflocError::InvalidConfig { .. })
        ));
        assert!(matches!(
            select_references(&x, 13, ReferenceStrategy::QrPivot),
            Err(TaflocError::InsufficientReferences { .. })
        ));
    }

    #[test]
    fn residual_bounds() {
        let x = low_rank();
        let all: Vec<usize> = (0..x.cols()).collect();
        assert!(selection_residual(&x, &all).unwrap() < 1e-6);
        let zero = Matrix::zeros(3, 3);
        assert_eq!(selection_residual(&zero, &[0]).unwrap(), 0.0);
    }
}
