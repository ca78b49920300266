//! Cholesky decomposition of symmetric positive-definite matrices.
//!
//! Every alternating-least-squares step of LoLi-IR, every ridge regression, and the
//! correlated-shadowing sampler in the simulator solve small SPD systems — this is
//! the routine they all share.
//!
//! One factorization loop and one substitution loop serve two layouts of a
//! lower triangle, told apart only by where row `i` starts: a dense row-major
//! `n x n` matrix (row `i` at `i·n`, [`Matrix::cholesky_into`] and
//! [`solve_in_place`]) and a packed triangle whose row `i` holds its entries
//! `0..=i` (row `i` at `i(i+1)/2`, [`cholesky_packed_in_place`] and
//! [`solve_packed_in_place`]). Both factor in place, column by column, each
//! entry `(i, j)` subtracting `L[i][k]·L[j][k]` in increasing `k` before its
//! division, so the two layouts give bit-identical factors and solutions.

use crate::{LinalgError, Matrix, Result};

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
    /// Copies the lower triangle of `self` into `l` and factors it there with
    /// the loop that also factors packed triangles
    /// ([`cholesky_packed_in_place`]).
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
        // The strict upper triangle is zeroed because the factor may land in
        // a reused scratch buffer holding a previous factorization.
        for i in 0..n {
            let row = i * n..(i + 1) * n;
            data[row.start..=row.start + i].copy_from_slice(&a[row.start..=row.start + i]);
            data[row.start + i + 1..row.end].fill(0.0);
        }
        factor_lower(data, n, |i| i * n)
    }
}

/// Start of row `i` in a packed lower triangle; `packed_row(n)` is the
/// length of an `n x n` one.
fn packed_row(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Factors in place the lower triangle whose row `i` starts at `row(i)` in
/// `data` and holds entries `0..=i` there: on return each entry holds `L`.
///
/// Column `j` takes its pivot from row `j`, then every row `i > j`
/// subtracts `L[i][k]·L[j][k]` for `k` in `0..j`, in that order, and divides
/// by the pivot. Rows are ordered in memory (`row(j) + j < row(i)` for
/// `j < i`), which lets row `j` be read while the rows below it are written.
/// The rows below go two at a time: their sums are independent, so the two
/// chains of subtractions overlap, and each keeps its own order.
fn factor_lower(data: &mut [f64], n: usize, row: impl Fn(usize) -> usize) -> Result<()> {
    for j in 0..n {
        let below_start = row(j) + j + 1;
        let (upto, below) = data.split_at_mut(below_start);
        let (rj, pivot) = upto[row(j)..].split_at_mut(j);
        let mut diag = pivot[0];
        for &ljk in rj.iter() {
            diag -= ljk * ljk;
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j, value: diag });
        }
        let ljj = diag.sqrt();
        pivot[0] = ljj;
        let rj = &*rj;
        let mut i = j + 1;
        while i + 1 < n {
            let (r0, r1) = below[row(i) - below_start..].split_at_mut(row(i + 1) - row(i));
            let (r0, r1) = (&mut r0[..=j], &mut r1[..=j]);
            let (mut acc0, mut acc1) = (r0[j], r1[j]);
            for ((&l0, &l1), &ljk) in r0[..j].iter().zip(&r1[..j]).zip(rj) {
                acc0 -= l0 * ljk;
                acc1 -= l1 * ljk;
            }
            r0[j] = acc0 / ljj;
            r1[j] = acc1 / ljj;
            i += 2;
        }
        if i < n {
            let ri = &mut below[row(i) - below_start..][..=j];
            let mut acc = ri[j];
            for (&lik, &ljk) in ri[..j].iter().zip(rj) {
                acc -= lik * ljk;
            }
            ri[j] = acc / ljj;
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place for the lower triangle `l` laid out as in
/// [`factor_lower`]: forward substitution along the rows of `L`, then back
/// substitution down its columns.
fn substitute(l: &[f64], row: impl Fn(usize) -> usize, x: &mut [f64]) {
    let n = x.len();
    // Forward: L·y = b
    for i in 0..n {
        let (done, rest) = x.split_at_mut(i);
        let ri = &l[row(i)..=row(i) + i];
        let mut acc = rest[0];
        for (&lij, &xj) in ri.iter().zip(done.iter()) {
            acc -= lij * xj;
        }
        rest[0] = acc / ri[i];
    }
    // Backward: Lᵀ·x = y, walking column i of L down from the diagonal.
    for i in (0..n).rev() {
        let (head, later) = x.split_at_mut(i + 1);
        let mut acc = head[i];
        for (k, &xk) in (i + 1..n).zip(later.iter()) {
            acc -= l[row(k) + i] * xk;
        }
        head[i] = acc / l[row(i) + i];
    }
}

/// Factors in place the packed lower triangle `tri` of an `n x n` SPD
/// matrix (row `i` holds its entries `0..=i`, `n(n+1)/2` in all): on return
/// `tri` holds the packed factor `L`, bit-identical to the lower triangle
/// [`Matrix::cholesky_into`] writes for the same matrix. Returns
/// [`LinalgError::NotPositiveDefinite`] at the same pivot, with the same value.
pub fn cholesky_packed_in_place(tri: &mut [f64], n: usize) -> Result<()> {
    if tri.len() != packed_row(n) {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky::cholesky_packed_in_place",
            lhs: (n, n),
            rhs: (tri.len(), 1),
        });
    }
    factor_lower(tri, n, packed_row)
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
    substitute(l.as_slice(), |i| i * n, x);
    Ok(())
}

/// [`solve_in_place`] for a packed factor (as produced by
/// [`cholesky_packed_in_place`]); bit-identical to it on the same factor.
pub fn solve_packed_in_place(l: &[f64], x: &mut [f64]) -> Result<()> {
    let n = x.len();
    if l.len() != packed_row(n) {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky::solve_packed_in_place",
            lhs: (n, n),
            rhs: (l.len(), 1),
        });
    }
    substitute(l, packed_row, x);
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

    /// Textbook factorization through `Matrix` indexing — the bit-compat
    /// reference for the in-place loop. Same per-element subtraction order.
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

    /// The lower triangle of `a`, packed row by row.
    fn pack(a: &Matrix) -> Vec<f64> {
        (0..a.rows()).flat_map(|i| a.row(i)[..=i].to_vec()).collect()
    }

    #[test]
    fn factor_bit_identical_to_unblocked_reference() {
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
    fn packed_factor_and_solve_bit_identical_to_dense() {
        for n in [1usize, 2, 8, 9, 17] {
            let b = Matrix::from_fn(n, n, |i, j| ((i * 29 + j * 11) % 17) as f64 * 0.17 - 1.3);
            let mut a = b.gram();
            a.add_diag(0.25).unwrap();
            let mut tri = pack(&a);
            cholesky_packed_in_place(&mut tri, n).unwrap();
            let reference = unblocked_reference(&a);
            for (k, (got, want)) in tri.iter().zip(pack(&reference)).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} packed entry {k}");
            }

            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() + 0.3).collect();
            let mut dense = rhs.clone();
            solve_in_place(&reference, &mut dense).unwrap();
            let mut packed = rhs;
            solve_packed_in_place(&tri, &mut packed).unwrap();
            for (i, (got, want)) in packed.iter().zip(&dense).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "n={n} entry {i}");
            }
        }
        assert!(cholesky_packed_in_place(&mut [1.0, 0.0], 2).is_err());
        assert!(solve_packed_in_place(&[1.0, 0.0, 1.0], &mut [1.0]).is_err());
    }

    #[test]
    fn both_layouts_report_same_indefinite_pivot() {
        // Indefinite matrices failing at the first, a middle and the last pivot.
        let n = 12;
        for bad in [0, 10, n - 1] {
            let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 5) % 11) as f64 * 0.3);
            let mut a = b.gram();
            a.add_diag(1.0).unwrap();
            a[(bad, bad)] = -50.0;
            let dense = match a.cholesky() {
                Err(LinalgError::NotPositiveDefinite { pivot, value }) => (pivot, value),
                other => panic!("expected NotPositiveDefinite at pivot {bad}, got {other:?}"),
            };
            let packed = match cholesky_packed_in_place(&mut pack(&a), n) {
                Err(LinalgError::NotPositiveDefinite { pivot, value }) => (pivot, value),
                other => panic!("expected NotPositiveDefinite at pivot {bad}, got {other:?}"),
            };
            assert_eq!(dense.0, bad);
            assert_eq!((packed.0, packed.1.to_bits()), (dense.0, dense.1.to_bits()));
        }
    }

    #[test]
    fn identity_factor_is_identity() {
        let i = Matrix::identity(4);
        let chol = i.cholesky().unwrap();
        assert!(chol.factor().approx_eq(&i, 1e-14));
    }
}
