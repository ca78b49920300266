//! Ridge regression with a matrix right-hand side.
//!
//! This is the LRR step of the TafLoc math: the correlation matrix `Z` that
//! predicts every cell's fingerprint from the reference columns is one shared
//! ridge solve.

use crate::{LinalgError, Matrix, Result};

/// Ridge regression with a matrix right-hand side: solves
/// `min ‖A·X − B‖_F² + λ‖X‖_F²`, i.e. one ridge problem per column of `B`,
/// sharing a single Cholesky factorization of `AᵀA + λI`.
///
/// This is exactly how the LRR correlation matrix is computed:
/// `Z = (X_Rᵀ·X_R + λI)⁻¹·X_Rᵀ·X`.
pub fn ridge_multi(a: &Matrix, b: &Matrix, lambda: f64) -> Result<Matrix> {
    if lambda < 0.0 || !lambda.is_finite() {
        return Err(LinalgError::InvalidArgument {
            op: "ridge_multi",
            reason: format!("lambda must be finite and >= 0, got {lambda}"),
        });
    }
    if b.rows() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "ridge_multi",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut gram = a.gram();
    gram.add_diag(lambda)?;
    let chol = gram.cholesky()?;
    let atb = a.matmul_tn(b)?;
    chol.solve_matrix(&atb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap()
    }

    #[test]
    fn ridge_multi_satisfies_normal_equations() {
        let a = tall();
        let b = Matrix::from_cols(&[&[1.0, 3.0, 5.0, 7.0], &[0.0, 1.0, 0.0, 1.0]]).unwrap();
        let lambda = 0.5;
        let x = ridge_multi(&a, &b, lambda).unwrap();
        // (AᵀA + λI)·X = AᵀB
        let mut lhs = a.gram();
        lhs.add_diag(lambda).unwrap();
        let lhs = lhs.matmul(&x).unwrap();
        assert!(lhs.approx_eq(&a.matmul_tn(&b).unwrap(), 1e-10));
        assert!(ridge_multi(&a, &Matrix::zeros(1, 1), 0.5).is_err());
        assert!(ridge_multi(&a, &b, -0.1).is_err());
    }

    /// `y = 1 + 2t` sampled at the rows of [`tall`].
    fn line() -> Matrix {
        Matrix::from_cols(&[&[1.0, 3.0, 5.0, 7.0]]).unwrap()
    }

    #[test]
    fn ridge_zero_lambda_fits_line() {
        let x = ridge_multi(&tall(), &line(), 0.0).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-10);
        assert!((x[(1, 0)] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let x0 = ridge_multi(&tall(), &line(), 0.0).unwrap();
        let x1 = ridge_multi(&tall(), &line(), 10.0).unwrap();
        assert!(
            x1.frobenius_norm() < x0.frobenius_norm(),
            "ridge with larger lambda must have smaller norm"
        );
    }

    #[test]
    fn ridge_handles_rank_deficiency() {
        // Two identical columns: AᵀA is singular, AᵀA + λI is not.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let b = Matrix::from_cols(&[&[2.0, 4.0, 6.0]]).unwrap();
        let x = ridge_multi(&a, &b, 1e-6).unwrap();
        // Symmetry: both coefficients equal.
        assert!((x[(0, 0)] - x[(1, 0)]).abs() < 1e-8);
        assert!((x[(0, 0)] + x[(1, 0)] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn ridge_validates_arguments() {
        assert!(matches!(
            ridge_multi(&tall(), &Matrix::zeros(3, 1), 1.0),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        for lambda in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ridge_multi(&tall(), &line(), lambda),
                Err(LinalgError::InvalidArgument { .. })
            ));
        }
    }
}
