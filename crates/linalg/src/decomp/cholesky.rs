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
//!
//! The same two loops also run on lanes: `N` independent packed systems
//! interleaved entry by entry, entry `k` of system `w` at `[k][w]`
//! ([`cholesky_packed_lanes_in_place`] and [`solve_packed_lanes_in_place`]).
//! Each lane does its own system's operations in the one-system order, so it
//! gets the same bits, while the `N` chains of dependent subtractions,
//! divisions and square roots run side by side instead of one after another.

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
        factor_lower(data, n, 1, |i| i * n)
    }
}

/// Start of row `i` in a packed lower triangle; `packed_row(n)` is the
/// length of an `n x n` one.
fn packed_row(i: usize) -> usize {
    i * (i + 1) / 2
}

/// The element the factorization and substitution loops run on: one `f64`
/// system, or `N` systems interleaved lane by lane as `[f64; N]`. Every
/// operation acts on each lane alone and rounds as the `f64` one does.
trait Elem: Copy {
    /// `self − a·b`, the product rounded before the subtraction.
    fn sub_mul(self, a: Self, b: Self) -> Self;
    fn div(self, d: Self) -> Self;
    fn sqrt(self) -> Self;
    /// The value in lane `w`.
    fn lane(self, w: usize) -> f64;
}

impl Elem for f64 {
    #[inline(always)]
    fn sub_mul(self, a: f64, b: f64) -> f64 {
        self - a * b
    }

    #[inline(always)]
    fn div(self, d: f64) -> f64 {
        self / d
    }

    #[inline(always)]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }

    #[inline(always)]
    fn lane(self, _: usize) -> f64 {
        self
    }
}

impl<const N: usize> Elem for [f64; N] {
    #[inline(always)]
    fn sub_mul(mut self, a: Self, b: Self) -> Self {
        for w in 0..N {
            self[w] -= a[w] * b[w];
        }
        self
    }

    #[inline(always)]
    fn div(mut self, d: Self) -> Self {
        for w in 0..N {
            self[w] /= d[w];
        }
        self
    }

    #[inline(always)]
    fn sqrt(mut self) -> Self {
        for v in &mut self {
            *v = v.sqrt();
        }
        self
    }

    #[inline(always)]
    fn lane(self, w: usize) -> f64 {
        self[w]
    }
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
///
/// Lanes `0..used` are checked: the error is the first failing pivot of the
/// lowest failing lane, which is what factoring the lanes one by one would
/// report first. Factoring goes on past a failed lane (its entries turn
/// non-finite), since a lower lane may still fail at a later pivot, and
/// stops as soon as lane 0 fails; lanes from `used` on are never checked.
fn factor_lower<T: Elem>(
    data: &mut [T],
    n: usize,
    used: usize,
    row: impl Fn(usize) -> usize,
) -> Result<()> {
    let mut failed: Option<(usize, LinalgError)> = None;
    for j in 0..n {
        let below_start = row(j) + j + 1;
        let (upto, below) = data.split_at_mut(below_start);
        let (rj, pivot) = upto[row(j)..].split_at_mut(j);
        let mut diag = pivot[0];
        for &ljk in rj.iter() {
            diag = diag.sub_mul(ljk, ljk);
        }
        let bad = |d: f64| d <= 0.0 || !d.is_finite();
        let lanes = failed.as_ref().map_or(used, |(w, _)| *w);
        if let Some(w) = (0..lanes).find(|&w| bad(diag.lane(w))) {
            let value = diag.lane(w);
            if w == 0 {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value });
            }
            failed = Some((w, LinalgError::NotPositiveDefinite { pivot: j, value }));
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
                acc0 = acc0.sub_mul(l0, ljk);
                acc1 = acc1.sub_mul(l1, ljk);
            }
            r0[j] = acc0.div(ljj);
            r1[j] = acc1.div(ljj);
            i += 2;
        }
        if i < n {
            let ri = &mut below[row(i) - below_start..][..=j];
            let mut acc = ri[j];
            for (&lik, &ljk) in ri[..j].iter().zip(rj) {
                acc = acc.sub_mul(lik, ljk);
            }
            ri[j] = acc.div(ljj);
        }
    }
    failed.map_or(Ok(()), |(_, e)| Err(e))
}

/// Solves `L·Lᵀ·x = b` in place for the lower triangle `l` laid out as in
/// [`factor_lower`]: forward substitution along the rows of `L`, then back
/// substitution down its columns.
fn substitute<T: Elem>(l: &[T], row: impl Fn(usize) -> usize, x: &mut [T]) {
    let n = x.len();
    // Forward: L·y = b
    for i in 0..n {
        let (done, rest) = x.split_at_mut(i);
        let ri = &l[row(i)..=row(i) + i];
        let mut acc = rest[0];
        for (&lij, &xj) in ri.iter().zip(done.iter()) {
            acc = acc.sub_mul(lij, xj);
        }
        rest[0] = acc.div(ri[i]);
    }
    // Backward: Lᵀ·x = y, walking column i of L down from the diagonal.
    for i in (0..n).rev() {
        let (head, later) = x.split_at_mut(i + 1);
        let mut acc = head[i];
        for (k, &xk) in (i + 1..n).zip(later.iter()) {
            acc = acc.sub_mul(l[row(k) + i], xk);
        }
        head[i] = acc.div(l[row(i) + i]);
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
    factor_lower(tri, n, 1, packed_row)
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

/// Factors in place `N` packed lower triangles of `n x n` SPD matrices,
/// interleaved lane by lane in `tri`: entry `k` of system `w` sits at
/// `tri[k][w]`, `n(n+1)/2` entries per system. On return lane `w` holds the
/// packed factor of system `w`, bit-identical to what
/// [`cholesky_packed_in_place`] writes for that system alone.
///
/// Lanes `0..used` hold systems; the rest are padding, whatever they hold.
/// When a used lane is not positive definite, the error is
/// [`LinalgError::NotPositiveDefinite`] of the lowest such lane, with the
/// pivot and value [`cholesky_packed_in_place`] reports for it; a padding
/// lane reports nothing.
pub fn cholesky_packed_lanes_in_place<const N: usize>(
    tri: &mut [[f64; N]],
    n: usize,
    used: usize,
) -> Result<()> {
    if tri.len() != packed_row(n) || used > N {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky::cholesky_packed_lanes_in_place",
            lhs: (packed_row(n), N),
            rhs: (tri.len(), used),
        });
    }
    factor_lower(tri, n, used, packed_row)
}

/// [`solve_packed_in_place`] for `N` packed factors interleaved lane by
/// lane (as produced by [`cholesky_packed_lanes_in_place`]) and their `N`
/// right-hand sides, entry `k` of lane `w` at `x[k][w]`; each lane's
/// solution is bit-identical to [`solve_packed_in_place`] on its factor.
pub fn solve_packed_lanes_in_place<const N: usize>(
    l: &[[f64; N]],
    x: &mut [[f64; N]],
) -> Result<()> {
    let n = x.len();
    if l.len() != packed_row(n) {
        return Err(LinalgError::DimensionMismatch {
            op: "cholesky::solve_packed_lanes_in_place",
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A seeded SPD matrix of order `n`: `BᵀB + I` for a random `B`.
    fn seeded_spd(rng: &mut StdRng, n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let mut a = b.gram();
        a.add_diag(1.0).unwrap();
        a
    }

    /// Interleaves equal-length packed systems into lanes, entry `k` of
    /// system `w` at `[k][w]`; lanes past `systems.len()` hold `pad`.
    fn interleave(systems: &[Vec<f64>], pad: &[f64]) -> Vec<[f64; 4]> {
        (0..pad.len())
            .map(|k| std::array::from_fn(|w| systems.get(w).map_or(pad[k], |s| s[k])))
            .collect()
    }

    fn lane(lanes: &[[f64; 4]], w: usize) -> Vec<f64> {
        lanes.iter().map(|e| e[w]).collect()
    }

    fn npd(r: Result<()>) -> (usize, u64) {
        match r {
            Err(LinalgError::NotPositiveDefinite { pivot, value }) => (pivot, value.to_bits()),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn lanes_bit_identical_to_one_system_at_a_time() {
        let mut rng = StdRng::seed_from_u64(0x1a4e5);
        for n in 1..=10 {
            for used in 1..=4 {
                let dense: Vec<Matrix> = (0..used).map(|_| seeded_spd(&mut rng, n)).collect();
                let rhs: Vec<Vec<f64>> = (0..used)
                    .map(|_| (0..n).map(|_| rng.random_range(-2.0..2.0)).collect())
                    .collect();
                // Padding lanes hold an indefinite matrix: it must not matter.
                let mut pad = pack(&seeded_spd(&mut rng, n));
                pad[0] = -1.0;
                let packed: Vec<Vec<f64>> = dense.iter().map(pack).collect();
                let mut tri = interleave(&packed, &pad);
                cholesky_packed_lanes_in_place(&mut tri, n, used).unwrap();
                let mut x = interleave(&rhs, &vec![0.5; n]);
                solve_packed_lanes_in_place(&tri, &mut x).unwrap();
                for w in 0..used {
                    let mut l = Matrix::zeros(n, n);
                    dense[w].cholesky_into(&mut l).unwrap();
                    let mut want = rhs[w].clone();
                    solve_in_place(&l, &mut want).unwrap();
                    let got = lane(&tri, w);
                    for (k, (g, e)) in got.iter().zip(pack(&l)).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            e.to_bits(),
                            "n={n} used={used} lane {w} entry {k}"
                        );
                    }
                    for (k, (g, e)) in lane(&x, w).iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), e.to_bits(), "n={n} used={used} lane {w} x[{k}]");
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_report_the_first_failing_used_lane() {
        let n = 9;
        let mut rng = StdRng::seed_from_u64(0xfa11);
        let good: Vec<Vec<f64>> = (0..4).map(|_| pack(&seeded_spd(&mut rng, n))).collect();
        // `bad(p)` fails at pivot `p`, as the one-system routine reports it.
        let bad = |p: usize| {
            let mut a = seeded_spd(&mut StdRng::seed_from_u64(p as u64), n);
            a[(p, p)] = -30.0;
            let one = npd(cholesky_packed_in_place(&mut pack(&a), n));
            assert_eq!(one.0, p);
            (pack(&a), one)
        };
        let run = |systems: &[Vec<f64>], used: usize| {
            let mut tri = interleave(systems, &good[0]);
            cholesky_packed_lanes_in_place(&mut tri, n, used)
        };
        for used in 1..=4 {
            // Lane 0, a middle lane and the last used lane.
            for w in [0, used / 2, used - 1] {
                let (sys, want) = bad(1 + w);
                let mut systems = good.clone();
                systems[w] = sys;
                assert_eq!(npd(run(&systems[..used], used)), want, "used={used} lane {w}");
            }
        }
        // Lanes 1 and 3 fail; lane 1 wins though lane 3 fails at an earlier pivot.
        let (early, _) = bad(2);
        let (late, want) = bad(7);
        let mut systems = good.clone();
        systems[3] = early.clone();
        systems[1] = late;
        assert_eq!(npd(run(&systems, 4)), want);
        // A failing padding lane reports nothing.
        for used in 1..4 {
            let mut systems = good.clone();
            systems[used] = early.clone();
            let mut tri = interleave(&systems, &good[0]);
            cholesky_packed_lanes_in_place(&mut tri, n, used).unwrap();
        }
        assert!(cholesky_packed_lanes_in_place(&mut interleave(&good, &good[0]), n, 5).is_err());
        assert!(cholesky_packed_lanes_in_place(&mut [[1.0; 4]; 2], 2, 1).is_err());
        assert!(solve_packed_lanes_in_place(&[[1.0; 4]; 2], &mut [[1.0; 4]; 2]).is_err());
    }

    #[test]
    fn identity_factor_is_identity() {
        let i = Matrix::identity(4);
        let chol = i.cholesky().unwrap();
        assert!(chol.factor().approx_eq(&i, 1e-14));
    }
}
