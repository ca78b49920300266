//! Low-Rank Representation (LRR) of the fingerprint matrix.
//!
//! Property (ii) of the poster: the fingerprint matrix can be written as a linear
//! combination of its reference columns, `X = X_R · Z`. Crucially, the
//! *correlation matrix* `Z` encodes spatial propagation structure that is stable
//! over time, while the raw RSS in `X_R` drifts. TafLoc therefore:
//!
//! 1. learns `Z` once from the initial full calibration
//!    (`Z = (X_Rᵀ X_R + λI)⁻¹ X_Rᵀ X₀`, a ridge solve), and
//! 2. at update time plugs in the **freshly measured** reference columns:
//!    `X̂(t) ≈ X_R(t) · Z`.
//!
//! The prediction is the LRR prior inside LoLi-IR's objective
//! (`‖LRᵀ − X_R·Z‖²_F`) and is itself a decent reconstruction (the `+LRR`
//! ablation).

use crate::error::TaflocError;
use crate::Result;
use taf_linalg::{solve, Matrix};

/// A fitted low-rank-representation model.
#[derive(Debug, Clone)]
pub struct LrrModel {
    ref_cells: Vec<usize>,
    /// Correlation matrix, `n x N`.
    z: Matrix,
    lambda: f64,
}

impl LrrModel {
    /// Fits `Z` from a full fingerprint matrix `x0` and the chosen reference
    /// columns, with ridge regularizer `lambda > 0`.
    pub fn fit(x0: &Matrix, ref_cells: &[usize], lambda: f64) -> Result<Self> {
        if ref_cells.is_empty() {
            return Err(TaflocError::InvalidConfig {
                field: "ref_cells",
                reason: "LRR needs at least one reference column".into(),
            });
        }
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(TaflocError::InvalidConfig {
                field: "lambda",
                reason: format!("must be finite and > 0, got {lambda}"),
            });
        }
        for &c in ref_cells {
            if c >= x0.cols() {
                return Err(TaflocError::IndexOutOfBounds {
                    op: "LrrModel::fit",
                    index: c,
                    bound: x0.cols(),
                });
            }
        }
        let xr = x0.select_cols(ref_cells)?;
        let z = solve::ridge_multi(&xr, x0, lambda)?;
        Ok(LrrModel { ref_cells: ref_cells.to_vec(), z, lambda })
    }

    /// Reassembles a model from its stored parts (the persistence path:
    /// `taflocd`'s snapshot store round-trips `Z` without refitting it).
    /// Validates the same invariants [`LrrModel::fit`] establishes.
    pub fn from_parts(ref_cells: Vec<usize>, z: Matrix, lambda: f64) -> Result<Self> {
        if ref_cells.is_empty() {
            return Err(TaflocError::InvalidConfig {
                field: "ref_cells",
                reason: "LRR needs at least one reference column".into(),
            });
        }
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(TaflocError::InvalidConfig {
                field: "lambda",
                reason: format!("must be finite and > 0, got {lambda}"),
            });
        }
        if z.rows() != ref_cells.len() {
            return Err(TaflocError::DimensionMismatch {
                op: "LrrModel::from_parts",
                expected: (ref_cells.len(), z.cols()),
                actual: z.shape(),
            });
        }
        if z.has_non_finite() {
            return Err(TaflocError::InvalidConfig {
                field: "z",
                reason: "correlation matrix contains NaN or infinite values".into(),
            });
        }
        Ok(LrrModel { ref_cells, z, lambda })
    }

    /// The reference cells this model was fitted on.
    pub fn ref_cells(&self) -> &[usize] {
        &self.ref_cells
    }

    /// The learned correlation matrix (`n x N`).
    pub fn z(&self) -> &Matrix {
        &self.z
    }

    /// The ridge regularizer used at fit time.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Predicts the full fingerprint matrix from freshly measured reference
    /// columns (`M x n`, same column order as [`LrrModel::ref_cells`]).
    pub fn predict(&self, fresh_refs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(fresh_refs.rows(), self.z.cols());
        self.predict_into(fresh_refs, &mut out)?;
        Ok(out)
    }

    /// [`LrrModel::predict`] into a caller-owned `M x N` buffer — the
    /// allocation-free form for callers predicting every refresh (`out` is
    /// resized only when its shape is wrong, so a reused buffer settles after
    /// the first call).
    pub fn predict_into(&self, fresh_refs: &Matrix, out: &mut Matrix) -> Result<()> {
        if fresh_refs.cols() != self.ref_cells.len() {
            return Err(TaflocError::DimensionMismatch {
                op: "LrrModel::predict",
                expected: (fresh_refs.rows(), self.ref_cells.len()),
                actual: fresh_refs.shape(),
            });
        }
        if out.shape() != (fresh_refs.rows(), self.z.cols()) {
            *out = Matrix::zeros(fresh_refs.rows(), self.z.cols());
        }
        fresh_refs.matmul_into(&self.z, out)?;
        Ok(())
    }

    /// Re-estimates `Z` against a new full matrix (the optional `Z-refresh`
    /// ablation), keeping the same reference cells and regularizer.
    pub fn refit(&self, x_new: &Matrix) -> Result<Self> {
        LrrModel::fit(x_new, &self.ref_cells, self.lambda)
    }

    /// In-sample relative error of the representation on the matrix it would
    /// predict from `x`'s own reference columns — a diagnostic for how well
    /// property (ii) holds.
    pub fn representation_error(&self, x: &Matrix) -> Result<f64> {
        let xr = x.select_cols(&self.ref_cells)?;
        let approx = self.predict(&xr)?;
        if approx.shape() != x.shape() {
            return Err(TaflocError::DimensionMismatch {
                op: "LrrModel::representation_error",
                expected: x.shape(),
                actual: approx.shape(),
            });
        }
        let denom = x.frobenius_norm();
        if denom == 0.0 {
            return Ok(0.0);
        }
        Ok(x.sub(&approx)?.frobenius_norm() / denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact rank-2 matrix: LRR with 2 good references is exact.
    fn rank2() -> Matrix {
        let u = Matrix::from_cols(&[&[1.0, 2.0, -1.0, 0.5], &[0.0, 1.0, 1.0, -2.0]]).unwrap();
        let v = Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 1.0, -1.0, 3.0],
            &[0.0, 1.0, 1.0, -1.0, 2.0, 0.5],
        ])
        .unwrap();
        u.matmul(&v).unwrap()
    }

    #[test]
    fn exact_representation_of_low_rank() {
        let x = rank2();
        // Columns 0 and 1 are [u1 | u2] directions — independent.
        let model = LrrModel::fit(&x, &[0, 1], 1e-9).unwrap();
        let err = model.representation_error(&x).unwrap();
        assert!(err < 1e-5, "rank-2 matrix with 2 refs must be exact, err = {err}");
    }

    #[test]
    fn prediction_tracks_scaled_references() {
        // If the whole matrix doubles, predicting from doubled references doubles
        // the output (linearity).
        let x = rank2();
        let model = LrrModel::fit(&x, &[0, 1], 1e-9).unwrap();
        let xr = x.select_cols(&[0, 1]).unwrap();
        let pred = model.predict(&xr.scale(2.0)).unwrap();
        let expect = model.predict(&xr).unwrap().scale(2.0);
        assert!(pred.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn z_shape_and_accessors() {
        let x = rank2();
        let model = LrrModel::fit(&x, &[2, 4, 5], 1e-6).unwrap();
        assert_eq!(model.z().shape(), (3, 6));
        assert_eq!(model.ref_cells(), &[2, 4, 5]);
        assert_eq!(model.lambda(), 1e-6);
    }

    #[test]
    fn fit_validates_inputs() {
        let x = rank2();
        assert!(matches!(LrrModel::fit(&x, &[], 1e-6), Err(TaflocError::InvalidConfig { .. })));
        assert!(matches!(LrrModel::fit(&x, &[0], 0.0), Err(TaflocError::InvalidConfig { .. })));
        assert!(matches!(
            LrrModel::fit(&x, &[0], f64::NAN),
            Err(TaflocError::InvalidConfig { .. })
        ));
        assert!(matches!(
            LrrModel::fit(&x, &[99], 1e-6),
            Err(TaflocError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn predict_validates_shape() {
        let x = rank2();
        let model = LrrModel::fit(&x, &[0, 1], 1e-6).unwrap();
        assert!(model.predict(&Matrix::zeros(4, 3)).is_err());
    }

    #[test]
    fn refit_keeps_configuration() {
        let x = rank2();
        let model = LrrModel::fit(&x, &[0, 1], 1e-6).unwrap();
        let x2 = x.scale(1.5);
        let model2 = model.refit(&x2).unwrap();
        assert_eq!(model2.ref_cells(), model.ref_cells());
        assert!(model2.representation_error(&x2).unwrap() < 1e-5);
    }

    #[test]
    fn stable_z_predicts_drifted_matrix() {
        // The core TafLoc assumption: when the matrix drifts in a structured way
        // (here: global gain change), Z learned at t=0 still predicts X(t) from
        // fresh references.
        let x0 = rank2();
        let model = LrrModel::fit(&x0, &[0, 1], 1e-9).unwrap();
        let xt = x0.scale(1.3); // structured drift preserving column space
        let fresh = xt.select_cols(&[0, 1]).unwrap();
        let pred = model.predict(&fresh).unwrap();
        assert!(pred.approx_eq(&xt, 1e-6));
    }

    #[test]
    fn fit_solves_the_ridge_normal_equations() {
        // Z = (X_Rᵀ·X_R + λI)⁻¹·X_Rᵀ·X, checked through its normal equations.
        let x = Matrix::from_fn(5, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0 + 0.1 * j as f64);
        let model = LrrModel::fit(&x, &[1, 3], 0.25).unwrap();
        let xr = x.select_cols(&[1, 3]).unwrap();
        let mut lhs = xr.gram();
        lhs.add_diag(0.25).unwrap();
        let lhs = lhs.matmul(model.z()).unwrap();
        assert!(lhs.approx_eq(&xr.matmul_tn(&x).unwrap(), 1e-10));
    }

    #[test]
    fn from_parts_validates_what_it_restores() {
        let z = Matrix::from_rows(&[&[1.0, 0.5, 0.0]]).unwrap();
        let model = LrrModel::from_parts(vec![0], z.clone(), 0.1).unwrap();
        let fresh = Matrix::from_cols(&[&[2.0, -4.0]]).unwrap();
        assert!(model.predict(&fresh).unwrap().approx_eq(&fresh.matmul(&z).unwrap(), 0.0));
        assert!(LrrModel::from_parts(vec![], z.clone(), 0.1).is_err());
        assert!(LrrModel::from_parts(vec![0], z.clone(), 0.0).is_err());
        assert!(LrrModel::from_parts(vec![0, 1], z.clone(), 0.1).is_err());
        let mut bad = z;
        bad[(0, 1)] = f64::NAN;
        assert!(LrrModel::from_parts(vec![0], bad, 0.1).is_err());
    }

    #[test]
    fn predict_into_reshapes_a_mis_sized_buffer() {
        let z = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let model = LrrModel::from_parts(vec![0, 1], z, 0.1).unwrap();
        let fresh = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 2.0], &[-1.0, 0.5]]).unwrap();
        let mut out = Matrix::zeros(1, 7);
        model.predict_into(&fresh, &mut out).unwrap();
        assert!(out.approx_eq(&model.predict(&fresh).unwrap(), 0.0));
    }

    #[test]
    fn representation_error_of_zero_matrix() {
        let z = Matrix::zeros(3, 4);
        let model = LrrModel::fit(&z, &[0], 1e-6).unwrap();
        assert_eq!(model.representation_error(&z).unwrap(), 0.0);
    }
}
