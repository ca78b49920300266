//! Householder QR decomposition, with and without column pivoting.
//!
//! Column-pivoted QR is the numerical workhorse behind TafLoc's reference-location
//! selection: the first `n` pivot columns of the fingerprint matrix are its "most
//! linearly independent" columns, exactly the property the paper asks for.

use crate::{axpy_slice, LinalgError, Matrix, Result};

/// Fixed row-block size for the reflector-application reduction. The partial
/// sums are combined in block order, so this size fixes the summation order —
/// and with it every bit of `R` and `Q`.
const REFLECT_ROW_BLOCK: usize = 64;

/// Thin QR decomposition `A = Q·R` with `Q` of shape `m x k`, `R` of shape `k x n`,
/// `k = min(m, n)`; `Q` has orthonormal columns and `R` is upper trapezoidal.
#[derive(Debug, Clone)]
pub struct Qr {
    q: Matrix,
    r: Matrix,
}

/// Column-pivoted QR decomposition `A·P = Q·R`.
///
/// The permutation orders columns by decreasing residual norm, so the leading
/// pivots identify a well-conditioned column subset — see
/// [`ColPivQr::pivots`] and [`ColPivQr::rank`].
#[derive(Debug, Clone)]
pub struct ColPivQr {
    q: Matrix,
    r: Matrix,
    /// `pivots[k]` = original column index moved to position `k`.
    pivots: Vec<usize>,
}

/// Shared Householder core: factors `work` in place (columns permuted when
/// `pivoting`), keeping each reflector for the thin Q built at the end.
fn householder(
    a: &Matrix,
    pivoting: bool,
) -> (Matrix /* q thin */, Matrix /* r */, Vec<usize> /* pivots */) {
    let (m, n) = a.shape();
    let k = m.min(n);
    let mut work = a.clone();
    let mut pivots: Vec<usize> = (0..n).collect();
    // Reflector `(step, vᵀv)` pairs, and their vectors back to back in `vs`,
    // each covering rows step..m.
    let mut reflectors: Vec<(usize, f64)> = Vec::with_capacity(k);
    let mut vs: Vec<f64> = Vec::with_capacity(k * m);

    // Running squared column norms for pivot selection (row-major traversal).
    let mut col_norms: Vec<f64> = vec![0.0; n];
    for row in work.rows_iter() {
        for (j, &x) in row.iter().enumerate() {
            col_norms[j] += x * x;
        }
    }
    // Scratch reused across steps by the panel updates.
    let mut s = vec![0.0; n];
    let mut partials = vec![0.0; m.div_ceil(REFLECT_ROW_BLOCK) * n];

    for step in 0..k {
        if pivoting {
            // Pick the remaining column with the largest residual norm.
            let (best_j, _) = col_norms
                .iter()
                .enumerate()
                .skip(step)
                .fold((step, -1.0), |acc, (j, &v)| if v > acc.1 { (j, v) } else { acc });
            if best_j != step {
                work.swap_cols(best_j, step);
                pivots.swap(best_j, step);
                col_norms.swap(best_j, step);
            }
        }

        // Householder vector for column `step`, rows step..m.
        let start = vs.len();
        vs.extend((step..m).map(|i| work[(i, step)]));
        let v = &mut vs[start..];
        let alpha = {
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if v[0] >= 0.0 {
                -norm
            } else {
                norm
            }
        };
        if alpha.abs() < f64::EPSILON {
            // Column already zero below the diagonal; nothing to reflect.
            vs.truncate(start);
            continue;
        }
        v[0] -= alpha;
        let v_norm_sq: f64 = v.iter().map(|x| x * x).sum();
        if v_norm_sq < f64::EPSILON * f64::EPSILON {
            vs.truncate(start);
            continue;
        }
        reflectors.push((step, v_norm_sq));
        reflect(work.as_mut_slice(), n, step, &vs[start..], v_norm_sq, &mut s, &mut partials);
        // Update running column norms (cheap downdate + occasional refresh).
        if pivoting {
            for j in (step + 1)..n {
                let w = work[(step, j)];
                col_norms[j] = (col_norms[j] - w * w).max(0.0);
            }
        }
    }

    // Thin Q = H₀·H₁⋯H_{k−1}·[I_k; 0], accumulated backwards as in LAPACK's
    // `dorgqr`: the last reflector is applied first, straight to the m x k
    // buffer. When `H_step` is applied, columns left of `step` are still unit
    // vectors with zeros in rows step..m, so it touches only the trailing
    // (m − step) x (k − step) block, and the whole product costs O(m·k²).
    let mut q = Matrix::zeros(m, k);
    for d in 0..k {
        q[(d, d)] = 1.0;
    }
    let mut end = vs.len();
    for &(step, v_norm_sq) in reflectors.iter().rev() {
        let v = &vs[end - (m - step)..end];
        end -= m - step;
        reflect(q.as_mut_slice(), k, step, v, v_norm_sq, &mut s, &mut partials);
    }

    let mut r = Matrix::zeros(k, n);
    for i in 0..k {
        for j in i..n {
            r[(i, j)] = work[(i, j)];
        }
    }
    (q, r, pivots)
}

/// Applies `H = I − 2vvᵀ/(vᵀv)` from the left to the trailing block (rows
/// and columns `step..`) of the row-major matrix `data`, `cols` wide, with
/// `v` covering rows `step..`. Row-major and in two phases: `s = vᵀ·W`, then
/// `W −= (2/vᵀv)·v·s`. Phase one reduces over rows in fixed-size blocks whose
/// partials are combined in block order.
fn reflect(
    data: &mut [f64],
    cols: usize,
    step: usize,
    v: &[f64],
    v_norm_sq: f64,
    s: &mut [f64],
    partials: &mut [f64],
) {
    let width = cols - step;
    let blocks = v.len().div_ceil(REFLECT_ROW_BLOCK);
    let pbuf = &mut partials[..blocks * width];
    let rows = &data[step * cols..];
    for (buf, (vb, rb)) in pbuf
        .chunks_mut(width)
        .zip(v.chunks(REFLECT_ROW_BLOCK).zip(rows.chunks(REFLECT_ROW_BLOCK * cols)))
    {
        buf.fill(0.0);
        for (&vi, row) in vb.iter().zip(rb.chunks(cols)) {
            axpy_slice(buf, vi, &row[step..]);
        }
    }
    let s = &mut s[..width];
    s.fill(0.0);
    for buf in pbuf.chunks(width) {
        for (sj, pj) in s.iter_mut().zip(buf) {
            *sj += pj;
        }
    }
    for (&vi, row) in v.iter().zip(data[step * cols..].chunks_mut(cols)) {
        axpy_slice(&mut row[step..], -2.0 * vi / v_norm_sq, s);
    }
}

impl Matrix {
    /// Computes the thin Householder QR decomposition `A = Q·R`.
    pub fn qr(&self) -> Result<Qr> {
        if self.is_empty() {
            return Err(LinalgError::EmptyInput { op: "Matrix::qr" });
        }
        let (q, r, _) = householder(self, false);
        Ok(Qr { q, r })
    }

    /// Computes the column-pivoted QR decomposition `A·P = Q·R`.
    pub fn col_piv_qr(&self) -> Result<ColPivQr> {
        if self.is_empty() {
            return Err(LinalgError::EmptyInput { op: "Matrix::col_piv_qr" });
        }
        let (q, r, pivots) = householder(self, true);
        Ok(ColPivQr { q, r, pivots })
    }
}

impl Qr {
    /// Orthonormal factor `Q` (`m x min(m,n)`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Upper-trapezoidal factor `R` (`min(m,n) x n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Least-squares solve `min ‖A·x − b‖₂` for a full-column-rank `A` (`m ≥ n`).
    ///
    /// Returns [`LinalgError::Singular`] when `R` has a (numerically) zero diagonal.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.q.rows();
        let n = self.r.cols();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "Qr::solve_least_squares",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        if m < n {
            return Err(LinalgError::InvalidArgument {
                op: "Qr::solve_least_squares",
                reason: format!("underdetermined system ({m} rows < {n} cols)"),
            });
        }
        let y = self.q.tr_matvec(b); // Qᵀ·b, length min(m,n) = n
        let mut x = y;
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.r[(i, j)] * x[j];
            }
            let rii = self.r[(i, i)];
            if rii.abs() < 1e-13 {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = acc / rii;
        }
        Ok(x)
    }
}

impl ColPivQr {
    /// Orthonormal factor `Q`.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// Upper-trapezoidal factor `R` of the permuted matrix.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Pivot order: `pivots()[k]` is the original column index chosen at step `k`.
    /// The leading entries are the "most linearly independent" columns.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Numerical rank: number of diagonal entries of `R` with magnitude above
    /// `tol * |R[0,0]|`. Returns 0 for an all-zero matrix.
    pub fn rank(&self, tol: f64) -> usize {
        let k = self.r.rows().min(self.r.cols());
        if k == 0 {
            return 0;
        }
        let r00 = self.r[(0, 0)].abs();
        if r00 == 0.0 {
            return 0;
        }
        (0..k).take_while(|&i| self.r[(i, i)].abs() > tol * r00).count()
    }

    /// The first `k` pivot column indices — TafLoc's reference-location selection.
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] when `k` exceeds the column count.
    pub fn leading_columns(&self, k: usize) -> Result<Vec<usize>> {
        if k > self.pivots.len() {
            return Err(LinalgError::IndexOutOfBounds {
                op: "ColPivQr::leading_columns",
                index: k,
                bound: self.pivots.len() + 1,
            });
        }
        Ok(self.pivots[..k].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]).unwrap()
    }

    fn permutation_matrix(pivots: &[usize]) -> Matrix {
        let n = pivots.len();
        let mut p = Matrix::zeros(n, n);
        for (k, &j) in pivots.iter().enumerate() {
            p[(j, k)] = 1.0;
        }
        p
    }

    #[test]
    fn qr_reconstructs() {
        let a = tall();
        let qr = a.qr().unwrap();
        let back = qr.q().matmul(qr.r()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = tall();
        let qr = a.qr().unwrap();
        let qtq = qr.q().gram();
        assert!(qtq.approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = tall();
        let qr = a.qr().unwrap();
        for i in 0..qr.r().rows() {
            for j in 0..i.min(qr.r().cols()) {
                assert!(qr.r()[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = tall();
        let b = [1.0, 0.0, 2.0, 1.0];
        let x = a.qr().unwrap().solve_least_squares(&b).unwrap();
        // Normal equations: AᵀA x = Aᵀ b
        let atb = a.tr_matvec(&b);
        let x_ne = a.gram().solve(&atb).unwrap();
        for (u, v) in x.iter().zip(&x_ne) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn least_squares_exact_on_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let x = a.qr().unwrap().solve_least_squares(&[4.0, 9.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_rejects_bad_shapes() {
        let a = tall();
        let qr = a.qr().unwrap();
        assert!(qr.solve_least_squares(&[1.0]).is_err());
        let wide = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        assert!(wide.qr().unwrap().solve_least_squares(&[1.0]).is_err());
    }

    #[test]
    fn col_piv_reconstructs_with_permutation() {
        let a =
            Matrix::from_rows(&[&[1.0, 10.0, 2.0], &[0.5, -3.0, 1.0], &[2.0, 4.0, 0.0]]).unwrap();
        let f = a.col_piv_qr().unwrap();
        let ap = a.matmul(&permutation_matrix(f.pivots())).unwrap();
        let qr = f.q().matmul(f.r()).unwrap();
        assert!(qr.approx_eq(&ap, 1e-10));
    }

    #[test]
    fn col_piv_picks_dominant_column_first() {
        let a =
            Matrix::from_rows(&[&[0.1, 100.0, 1.0], &[0.2, 50.0, 0.0], &[0.1, 75.0, 2.0]]).unwrap();
        let f = a.col_piv_qr().unwrap();
        assert_eq!(f.pivots()[0], 1, "largest-norm column should be the first pivot");
    }

    #[test]
    fn rank_detects_deficiency() {
        // Third column = first + second -> rank 2.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 2.0],
            &[2.0, 0.0, 2.0],
        ])
        .unwrap();
        let f = a.col_piv_qr().unwrap();
        assert_eq!(f.rank(1e-10), 2);
    }

    #[test]
    fn rank_of_zero_matrix_is_zero() {
        let f = Matrix::zeros(3, 3).col_piv_qr().unwrap();
        assert_eq!(f.rank(1e-10), 0);
    }

    #[test]
    fn full_rank_reported() {
        let f = tall().col_piv_qr().unwrap();
        assert_eq!(f.rank(1e-10), 2);
    }

    #[test]
    fn leading_columns_selection() {
        let f = tall().col_piv_qr().unwrap();
        let sel = f.leading_columns(1).unwrap();
        assert_eq!(sel.len(), 1);
        assert!(f.leading_columns(3).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Matrix::zeros(0, 0).qr().is_err());
        assert!(Matrix::zeros(0, 0).col_piv_qr().is_err());
    }

    #[test]
    fn wide_matrix_factors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let qr = a.qr().unwrap();
        assert_eq!(qr.q().shape(), (2, 2));
        assert_eq!(qr.r().shape(), (2, 3));
        let back = qr.q().matmul(qr.r()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn tall_matrix_spanning_several_reflector_row_blocks_factors() {
        // Two full reflector row blocks plus a partial third, so every
        // reflector's `vᵀ·W` combines several block partials; and 400 x 10,
        // the transpose of a refresh's LRR prior that the SVD seed factors.
        for (m, n) in [(2 * REFLECT_ROW_BLOCK + 22, 12), (400, 10)] {
            let mut state = 0x9e37_79b9_u64;
            let a = Matrix::from_fn(m, n, |_, _| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f64 / 100.0 - 10.0
            });

            let qr = a.qr().unwrap();
            assert_eq!(qr.q().shape(), (m, n));
            assert!(qr.q().gram().approx_eq(&Matrix::identity(n), 1e-10));
            assert!(qr.q().matmul(qr.r()).unwrap().approx_eq(&a, 1e-9));

            let f = a.col_piv_qr().unwrap();
            assert_eq!(f.q().shape(), (m, n));
            assert!(f.q().gram().approx_eq(&Matrix::identity(n), 1e-10));
            let ap = a.matmul(&permutation_matrix(f.pivots())).unwrap();
            assert!(f.q().matmul(f.r()).unwrap().approx_eq(&ap, 1e-9));
            assert_eq!(f.rank(1e-10), n);

            for r in [qr.r(), f.r()] {
                for i in 0..n {
                    for j in 0..i {
                        assert!(r[(i, j)].abs() < 1e-12, "R[{i},{j}] = {}", r[(i, j)]);
                    }
                }
            }
        }
    }
}
