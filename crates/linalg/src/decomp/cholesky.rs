//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! Every alternating-least-squares step of LoLi-IR, every ridge regression, and the
//! correlated-shadowing sampler in the simulator solve small SPD systems — this is
//! the routine they all share.

use crate::{LinalgError, Matrix, Result};

/// Column-panel width of the blocked factorization in [`Matrix::cholesky_into`].
///
/// Eight columns keep the in-panel factorization register-friendly while the
/// panel update streams whole rows of `L`; it also matches the solver's rank
/// (`r ≈ 8`), so the hot `r×r` ridge systems take exactly one panel.
const CHOL_PANEL: usize = 8;

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Matrix {
    /// Computes the Cholesky factorization of a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `self` is read; symmetry of the upper triangle is
    /// assumed, not verified. Returns [`LinalgError::NotPositiveDefinite`] when a
    /// pivot is non-positive.
    pub fn cholesky(&self) -> Result<Cholesky> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { op: "Matrix::cholesky", shape: self.shape() });
        }
        let mut l = Matrix::zeros(self.rows(), self.rows());
        self.cholesky_into(&mut l)?;
        Ok(Cholesky { l })
    }

    /// Like [`Matrix::cholesky`], but writes the lower-triangular factor into a
    /// caller-provided `n x n` buffer without allocating. The strict upper
    /// triangle of `l` is zeroed.
    ///
    /// The factorization is blocked by columns: for each panel of
    /// `CHOL_PANEL` columns, a *panel update* first subtracts the
    /// contribution of all previously factored columns (`k < j0`) row by row —
    /// each row of `L` is loaded once as a contiguous slice and reused across
    /// the whole panel — and the small in-panel factorization then finishes
    /// with `k` in `j0..j`. Per element `(i, j)` the subtractions still run in
    /// strictly increasing `k` order (`0..j0` then `j0..j`), the identical
    /// floating-point sequence of the textbook unblocked loop, so the blocked
    /// factor is bit-identical to the unblocked one (pinned by a test below).
    pub fn cholesky_into(&self, l: &mut Matrix) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { op: "Matrix::cholesky", shape: self.shape() });
        }
        let n = self.rows();
        if l.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::cholesky_into",
                lhs: (n, n),
                rhs: l.shape(),
            });
        }
        let a = self.as_slice();
        let data = l.as_mut_slice();
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + CHOL_PANEL).min(n);
            // Panel update: fold columns k < j0 into every panel entry on or
            // below the diagonal, streaming one row of L per outer step.
            if j0 > 0 {
                for i in j0..n {
                    let (head, tail) = data.split_at_mut(i * n);
                    let (ri_done, ri_panel) = tail[..n].split_at_mut(j0);
                    let ai = &a[i * n..(i + 1) * n];
                    for j in j0..j1.min(i + 1) {
                        let mut acc = ai[j];
                        let rj_done = if j < i { &head[j * n..j * n + j0] } else { &ri_done[..] };
                        for (&lik, &ljk) in ri_done.iter().zip(rj_done) {
                            acc -= lik * ljk;
                        }
                        ri_panel[j - j0] = acc;
                    }
                }
            } else {
                for i in 0..n {
                    let w = j1.min(i + 1);
                    data[i * n..i * n + w].copy_from_slice(&a[i * n..i * n + w]);
                }
            }
            // In-panel factorization: at most CHOL_PANEL lagging columns per
            // element, same increasing-k order as the unblocked loop.
            for j in j0..j1 {
                let (upto, below) = data.split_at_mut((j + 1) * n);
                let rj = &mut upto[j * n..];
                let mut diag = rj[j];
                for &ljk in &rj[j0..j] {
                    diag -= ljk * ljk;
                }
                if diag <= 0.0 || !diag.is_finite() {
                    return Err(LinalgError::NotPositiveDefinite { pivot: j, value: diag });
                }
                let ljj = diag.sqrt();
                rj[j] = ljj;
                let rj = &rj[j0..j];
                for ri in below.chunks_exact_mut(n) {
                    let mut acc = ri[j];
                    for (&lik, &ljk) in ri[j0..j].iter().zip(rj) {
                        acc -= lik * ljk;
                    }
                    ri[j] = acc / ljj;
                }
            }
            j0 = j1;
        }
        // Zero the strict upper triangle (the factor may land in a reused
        // scratch buffer holding a previous factorization).
        for i in 0..n {
            data[i * n + i + 1..(i + 1) * n].fill(0.0);
        }
        Ok(())
    }
}

/// Solves `A·x = b` in place given a lower-triangular Cholesky factor of `A`
/// (as produced by [`Matrix::cholesky_into`]); `x` holds `b` on entry and the
/// solution on return. The allocation-free twin of [`Cholesky::solve`].
pub fn solve_in_place(l: &Matrix, x: &mut [f64]) -> Result<()> {
    let n = l.rows();
    if !l.is_square() || x.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky::solve_in_place",
            lhs: l.shape(),
            rhs: (x.len(), 1),
        });
    }
    let d = l.as_slice();
    // Forward: L·y = b
    for i in 0..n {
        let (done, rest) = x.split_at_mut(i);
        let row = &d[i * n..i * n + i + 1];
        let mut acc = rest[0];
        for (&lij, &xj) in row.iter().zip(done.iter()) {
            acc -= lij * xj;
        }
        rest[0] = acc / row[i];
    }
    // Backward: Lᵀ·x = y, walking column i of L down from the diagonal.
    for i in (0..n).rev() {
        let (head, later) = x.split_at_mut(i + 1);
        let mut acc = head[i];
        for (&lji, &xj) in d[i * n + i..].iter().step_by(n).skip(1).zip(later.iter()) {
            acc -= lji * xj;
        }
        head[i] = acc / d[i * n + i];
    }
    Ok(())
}

impl Cholesky {
    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` with the stored factor (`L·Lᵀ·x = b`).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky::solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        solve_in_place(&self.l, &mut x)?;
        Ok(x)
    }

    /// Solves `A·X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky::solve_matrix",
                lhs: (self.dim(), self.dim()),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            out.set_col(j, &self.solve(&b.col(j))?)?;
        }
        Ok(out)
    }

    /// Samples `L·z` where `z` is the provided standard-normal vector; the result has
    /// covariance `A`. Used by the correlated-shadowing sampler.
    pub fn correlate(&self, z: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if z.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky::correlate",
                lhs: (n, n),
                rhs: (z.len(), 1),
            });
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..=i {
                acc += self.l[(i, j)] * z[j];
            }
            out[i] = acc;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Matrix {
        // A = Bᵀ·B + I is SPD for any B.
        let b =
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]).unwrap();
        let mut a = b.gram();
        a.add_diag(1.0).unwrap();
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd();
        let chol = a.cholesky().unwrap();
        let l = chol.factor();
        let back = l.matmul_nt(l).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        for (c, t) in x.iter().zip(&x_true) {
            assert!((c - t).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(a.cholesky(), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(Matrix::zeros(2, 3).cholesky(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_checks_length() {
        let chol = spd().cholesky().unwrap();
        assert!(chol.solve(&[1.0]).is_err());
        assert!(chol.solve_matrix(&Matrix::zeros(2, 2)).is_err());
        assert!(chol.correlate(&[1.0]).is_err());
    }

    #[test]
    fn solve_matrix_round_trip() {
        let a = spd();
        let chol = a.cholesky().unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[3.0, -1.0]]).unwrap();
        let x = chol.solve_matrix(&b).unwrap();
        assert!(a.matmul(&x).unwrap().approx_eq(&b, 1e-9));
    }

    #[test]
    fn correlate_applies_factor() {
        let a = spd();
        let chol = a.cholesky().unwrap();
        let z = [1.0, 0.0, 0.0];
        let v = chol.correlate(&z).unwrap();
        // L·e1 is the first column of L.
        let l = chol.factor();
        for i in 0..3 {
            assert!((v[i] - l[(i, 0)]).abs() < 1e-14);
        }
    }

    #[test]
    fn in_place_paths_match_allocating_ones() {
        let a = spd();
        let chol = a.cholesky().unwrap();
        let mut l = Matrix::zeros(3, 3);
        a.cholesky_into(&mut l).unwrap();
        assert!(l.approx_eq(chol.factor(), 0.0));

        let b = [1.0, -2.0, 0.5];
        let mut x = b;
        solve_in_place(&l, &mut x).unwrap();
        let reference = chol.solve(&b).unwrap();
        assert_eq!(x.to_vec(), reference);

        assert!(a.cholesky_into(&mut Matrix::zeros(2, 2)).is_err());
        assert!(solve_in_place(&l, &mut [1.0]).is_err());
    }

    #[test]
    fn cholesky_into_zeroes_stale_upper_triangle() {
        let a = spd();
        let mut l = Matrix::from_fn(3, 3, |_, _| 42.0);
        a.cholesky_into(&mut l).unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    /// Textbook unblocked factorization — the bit-compat reference for the
    /// blocked `cholesky_into`. Same per-element subtraction order, no panels.
    fn unblocked_reference(a: &Matrix) -> Matrix {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut acc = a[(i, j)];
                for k in 0..j {
                    acc -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = acc / ljj;
            }
        }
        l
    }

    #[test]
    fn blocked_factor_bit_identical_to_unblocked_reference() {
        // Sizes below, at, straddling, and well past the panel width.
        for n in [1usize, 3, 7, 8, 9, 16, 17, 29, 40] {
            let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.13 - 1.1);
            let mut a = b.gram();
            a.add_diag(n as f64).unwrap();
            let mut l = Matrix::from_fn(n, n, |_, _| 42.0); // stale scratch
            a.cholesky_into(&mut l).unwrap();
            let reference = unblocked_reference(&a);
            for i in 0..n {
                for j in 0..=i {
                    assert_eq!(
                        l[(i, j)].to_bits(),
                        reference[(i, j)].to_bits(),
                        "n={n} element ({i},{j})"
                    );
                }
                for j in (i + 1)..n {
                    assert_eq!(l[(i, j)], 0.0);
                }
            }
        }
    }

    /// Textbook forward and back substitution through `Matrix` indexing —
    /// the bit-compat reference for the slice-walking `solve_in_place`.
    fn substitution_reference(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = b.to_vec();
        for i in 0..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= l[(i, j)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= l[(j, i)] * x[j];
            }
            x[i] = acc / l[(i, i)];
        }
        x
    }

    #[test]
    fn solve_bit_identical_to_substitution_reference() {
        // Sizes below, at and past the panel width.
        for n in [1usize, 2, 8, 9, 17] {
            let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) % 19) as f64 * 0.21 - 1.7);
            let mut a = b.gram();
            a.add_diag(0.5).unwrap();
            let chol = a.cholesky().unwrap();
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.2).collect();
            let x = chol.solve(&rhs).unwrap();
            let reference = substitution_reference(chol.factor(), &rhs);
            for (i, (got, want)) in x.iter().zip(&reference).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} entry {i}");
            }
        }
    }

    #[test]
    fn blocked_factor_reports_same_indefinite_pivot() {
        // Indefinite matrix whose failure lands past the first panel.
        let n = 12;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 5) % 11) as f64 * 0.3);
        let mut a = b.gram();
        a.add_diag(1.0).unwrap();
        a[(10, 10)] = -50.0; // column 10 is in the second panel
        match a.cholesky() {
            Err(LinalgError::NotPositiveDefinite { pivot, .. }) => assert_eq!(pivot, 10),
            other => panic!("expected NotPositiveDefinite at pivot 10, got {other:?}"),
        }
    }

    #[test]
    fn identity_factor_is_identity() {
        let i = Matrix::identity(4);
        let chol = i.cholesky().unwrap();
        assert!(chol.factor().approx_eq(&i, 1e-14));
    }
}
