//! Rank-minimization matrix completion (the poster's property-(i)-only scheme).
//!
//! The first formulation in the paper is plain matrix completion:
//! `min rank(X̂)  s.t.  B ∘ X̂ = X_I`. Its convex relaxation replaces rank with the
//! nuclear norm, solved here by the **soft-impute** iteration (a singular-value
//! thresholding method): alternately fill the missing entries from the current
//! estimate and shrink the singular values.
//!
//! This module exists (a) as the ablation baseline showing low-rank structure
//! alone is not enough — with only a few observed columns, completion without the
//! LRR prior is badly under-determined — and (b) as the initializer fallback for
//! LoLi-IR when no LRR prior is supplied.

use crate::error::TaflocError;
use crate::mask::Mask;
use crate::Result;
use taf_linalg::Matrix;

/// Soft-impute configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvtConfig {
    /// Singular-value shrinkage threshold `τ`. Larger values force lower rank.
    pub tau: f64,
    /// Maximum iterations.
    pub max_iters: usize,
    /// Relative-change stopping tolerance.
    pub tol: f64,
}

impl Default for SvtConfig {
    fn default() -> Self {
        SvtConfig { tau: 1.0, max_iters: 200, tol: 1e-6 }
    }
}

/// Result of a completion run.
#[derive(Debug, Clone)]
pub struct SvtResult {
    /// The completed matrix.
    pub matrix: Matrix,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration budget.
    pub converged: bool,
}

/// Completes `observed` (values valid where `mask` is true) by soft-impute.
///
/// Missing entries are initialized to the mean of each row's observed entries
/// (falling back to the global observed mean), which matters for RSS data where
/// entries sit around −40…−70 dBm rather than 0.
pub fn soft_impute(observed: &Matrix, mask: &Mask, config: &SvtConfig) -> Result<SvtResult> {
    if mask.shape() != observed.shape() {
        return Err(TaflocError::DimensionMismatch {
            op: "soft_impute",
            expected: observed.shape(),
            actual: mask.shape(),
        });
    }
    if mask.count() == 0 {
        return Err(TaflocError::InvalidConfig {
            field: "mask",
            reason: "no observed entries to complete from".into(),
        });
    }
    if !(config.tau > 0.0) || config.max_iters == 0 {
        return Err(TaflocError::InvalidConfig {
            field: "svt",
            reason: format!(
                "tau must be > 0 and max_iters > 0 (tau={}, iters={})",
                config.tau, config.max_iters
            ),
        });
    }

    let (m, n) = observed.shape();

    // Row-mean initialization of missing entries.
    let mut global_sum = 0.0;
    let mut global_cnt = 0usize;
    for (i, j) in mask.true_positions() {
        global_sum += observed[(i, j)];
        global_cnt += 1;
    }
    let global_mean = global_sum / global_cnt as f64;
    let mut row_mean = vec![global_mean; m];
    for i in 0..m {
        let mut s = 0.0;
        let mut c = 0usize;
        for j in 0..n {
            if mask.get(i, j) {
                s += observed[(i, j)];
                c += 1;
            }
        }
        if c > 0 {
            row_mean[i] = s / c as f64;
        }
    }
    let mut x =
        Matrix::from_fn(m, n, |i, j| if mask.get(i, j) { observed[(i, j)] } else { row_mean[i] });

    let mut converged = false;
    let mut iterations = 0;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Shrink singular values of the current filled matrix, then re-impose
        // the observed entries in place and fold the step-size norm into the
        // same pass — the shrunk matrix becomes the next iterate directly, so
        // the loop allocates nothing beyond the SVD's own scratch.
        let mut shrunk = x.svd()?.shrink(config.tau);
        for (i, j) in mask.true_positions() {
            shrunk[(i, j)] = observed[(i, j)];
        }
        let mut step_sq = 0.0;
        for i in 0..m {
            for j in 0..n {
                let d = shrunk[(i, j)] - x[(i, j)];
                step_sq += d * d;
            }
        }
        let denom = x.frobenius_norm().max(1e-12);
        let delta = step_sq.sqrt() / denom;
        x = shrunk;
        if delta < config.tol {
            converged = true;
            break;
        }
    }
    if x.has_non_finite() {
        return Err(TaflocError::SolverFailure {
            solver: "soft-impute",
            reason: "produced non-finite values".into(),
        });
    }
    Ok(SvtResult { matrix: x, iterations, converged })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank-2 test matrix (6 x 8).
    fn low_rank() -> Matrix {
        let u = Matrix::from_cols(&[
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
        ])
        .unwrap();
        let v = Matrix::from_rows(&[
            &[1.0, 0.5, -0.5, 2.0, 1.5, 0.0, -1.0, 0.3],
            &[0.0, 1.0, 1.0, -1.0, 0.5, 2.0, 0.7, -0.2],
        ])
        .unwrap();
        u.matmul(&v).unwrap()
    }

    /// Mask observing every entry except a scattered set.
    fn scattered_mask(m: usize, n: usize, holes: &[(usize, usize)]) -> Mask {
        let mut mask = Mask::trues(m, n);
        for &(i, j) in holes {
            mask.set(i, j, false);
        }
        mask
    }

    #[test]
    fn recovers_scattered_missing_entries() {
        let x = low_rank();
        let holes = [(0, 0), (1, 3), (2, 5), (4, 7), (5, 2), (3, 1)];
        let mask = scattered_mask(6, 8, &holes);
        let cfg = SvtConfig { tau: 0.05, max_iters: 2000, tol: 1e-9 };
        let res = soft_impute(&x, &mask, &cfg).unwrap();
        for &(i, j) in &holes {
            assert!(
                (res.matrix[(i, j)] - x[(i, j)]).abs() < 0.3,
                "hole ({i},{j}): {} vs {}",
                res.matrix[(i, j)],
                x[(i, j)]
            );
        }
    }

    #[test]
    fn observed_entries_exactly_preserved() {
        let x = low_rank();
        let mask = scattered_mask(6, 8, &[(0, 0)]);
        let res = soft_impute(&x, &mask, &SvtConfig::default()).unwrap();
        for (i, j) in mask.true_positions() {
            assert_eq!(res.matrix[(i, j)], x[(i, j)]);
        }
    }

    #[test]
    fn converges_on_easy_problem() {
        let x = low_rank();
        let mask = scattered_mask(6, 8, &[(2, 2)]);
        let cfg = SvtConfig { tau: 0.05, max_iters: 2000, tol: 1e-9 };
        let res = soft_impute(&x, &mask, &cfg).unwrap();
        assert!(res.converged, "failed after {} iterations", res.iterations);
    }

    #[test]
    fn column_only_observation_is_underdetermined() {
        // The motivating failure: observing whole columns only (TafLoc's update
        // pattern) leaves completion unable to pin down the unobserved columns —
        // which is why TafLoc needs the LRR prior. The reconstruction should be
        // noticeably worse than with scattered holes.
        let x = low_rank();
        let mask = Mask::from_columns(6, 8, &[0, 1, 2]).unwrap();
        let cfg = SvtConfig { tau: 0.05, max_iters: 500, tol: 1e-8 };
        let res = soft_impute(&x, &mask, &cfg).unwrap();
        let err: f64 = (0..6)
            .flat_map(|i| (3..8).map(move |j| (i, j)))
            .map(|(i, j)| (res.matrix[(i, j)] - x[(i, j)]).abs())
            .sum::<f64>()
            / 30.0;
        assert!(err > 0.5, "column-only completion should struggle, err = {err}");
    }

    #[test]
    fn validates_inputs() {
        let x = low_rank();
        let bad_mask = Mask::trues(2, 2);
        assert!(soft_impute(&x, &bad_mask, &SvtConfig::default()).is_err());
        let empty = Mask::falses(6, 8);
        assert!(soft_impute(&x, &empty, &SvtConfig::default()).is_err());
        let mask = Mask::trues(6, 8);
        let cfg = SvtConfig { tau: 0.0, ..Default::default() };
        assert!(soft_impute(&x, &mask, &cfg).is_err());
        let cfg = SvtConfig { max_iters: 0, ..Default::default() };
        assert!(soft_impute(&x, &mask, &cfg).is_err());
    }

    #[test]
    fn full_observation_returns_input() {
        let x = low_rank();
        let mask = Mask::trues(6, 8);
        let res = soft_impute(&x, &mask, &SvtConfig::default()).unwrap();
        assert!(res.matrix.approx_eq(&x, 1e-12));
    }

    #[test]
    fn larger_tau_lowers_rank() {
        let x = low_rank();
        let mask = scattered_mask(6, 8, &[(1, 1), (4, 4)]);
        let lo =
            soft_impute(&x, &mask, &SvtConfig { tau: 0.01, max_iters: 300, tol: 1e-8 }).unwrap();
        let hi =
            soft_impute(&x, &mask, &SvtConfig { tau: 50.0, max_iters: 300, tol: 1e-8 }).unwrap();
        let rank = |m: &Matrix| m.svd().unwrap().rank(1e-6);
        assert!(rank(&hi.matrix) <= rank(&lo.matrix));
    }
}
