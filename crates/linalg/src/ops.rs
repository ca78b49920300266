//! Matrix arithmetic: products, sums, scaling, and the operator overloads.
//!
//! The three dense products (`matmul`, `matmul_nt`, `matmul_tn`) run
//! cache-blocked microkernels: output rows are grouped into small blocks (sizes
//! from the compile-time [`TUNING`] table) so every right-hand-side row brought
//! into L1 is reused across the whole block, and `matmul_nt` additionally
//! register-tiles 2×2 output tiles over the shared dimension. Each output
//! element is still accumulated by the exact sequence of the unblocked kernels
//! (the shared-dimension order per element never changes, and the tiled kernel
//! replicates [`dot`]'s four-lane reduction), so blocking changes no bits.
//! Fingerprint matrices are dense, so there is deliberately no zero-skip
//! branch here.

use crate::{LinalgError, Matrix, Result};

/// Compile-time kernel tuning table: `(k ceiling, rows per block)` — the first
/// row whose ceiling covers the shared dimension `k` wins.
///
/// The row block is the unit of right-hand-side reuse: one B row loaded into
/// L1 feeds `mr` output rows, so larger blocks cut memory traffic — until the
/// block of output rows itself falls out of L1. Short shared dimensions mean
/// cheap passes over B, so they can afford wide blocks; long ones keep the
/// block modest so `mr` output rows plus one operand row stay resident. The
/// numbers are coarse on purpose: for the shapes this crate sees (ranks ≈ 8,
/// panels ≤ a few hundred) being within 2× of cache capacity is what matters.
const TUNING: &[(usize, usize)] = &[(32, 8), (256, 6), (usize::MAX, 4)];

/// Output rows per microkernel block for a product with shared dimension `k`.
fn rows_per_block(k: usize) -> usize {
    for &(ceiling, mr) in TUNING {
        if k <= ceiling {
            return mr;
        }
    }
    unreachable!("TUNING ends with a usize::MAX ceiling")
}

impl Matrix {
    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Like [`Matrix::matmul`], but writes into a caller-provided output
    /// matrix of shape `(self.rows, other.cols)` without allocating.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols() != other.rows() {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows(), self.cols(), other.cols());
        if out.shape() != (m, n) {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul_into",
                lhs: (m, n),
                rhs: out.shape(),
            });
        }
        let row_len = n.max(1);
        let mr = rows_per_block(k);
        for (b, block) in out.as_mut_slice().chunks_mut(row_len * mr).enumerate() {
            let i0 = b * mr;
            block.fill(0.0);
            // B-row reuse: each `other` row is loaded once and feeds every row
            // of the block; per output element the accumulation still walks
            // `p` in increasing order, exactly like the unblocked kernel.
            for p in 0..k {
                let b_row = other.row(p);
                for (r, o_row) in block.chunks_mut(row_len).enumerate() {
                    axpy_slice(o_row, self.row(i0 + r)[p], b_row);
                }
            }
        }
        Ok(())
    }

    /// Product with the transpose of the right operand: `self * otherᵀ`.
    ///
    /// Both operands are traversed row-wise, which makes this noticeably faster than
    /// `self.matmul(&other.transpose())` and avoids the intermediate allocation.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_nt_into(other, &mut out)?;
        Ok(out)
    }

    /// Like [`Matrix::matmul_nt`], but writes into a caller-provided output
    /// matrix of shape `(self.rows, other.rows)` without allocating.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols() != other.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows(), self.cols(), other.rows());
        if out.shape() != (m, n) {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul_nt_into",
                lhs: (m, n),
                rhs: out.shape(),
            });
        }
        let row_len = n.max(1);
        let mr = rows_per_block(k);
        for (b, block) in out.as_mut_slice().chunks_mut(row_len * mr).enumerate() {
            let i0 = b * mr;
            // 2×2 register tiles inside the row block: four dot products share
            // their operand loads, and the B rows of a tile stay hot across
            // the block's rows. Each element is still the exact [`dot`]
            // reduction, so tiling cannot change a single bit.
            let rows = block.len() / row_len;
            let mut r = 0;
            while r + 2 <= rows {
                let (row0, rest) = block[r * row_len..].split_at_mut(row_len);
                let row1 = &mut rest[..row_len];
                let (a0, a1) = (self.row(i0 + r), self.row(i0 + r + 1));
                let mut j = 0;
                while j + 2 <= n {
                    let t = dot_2x2(a0, a1, other.row(j), other.row(j + 1));
                    row0[j] = t[0];
                    row0[j + 1] = t[1];
                    row1[j] = t[2];
                    row1[j + 1] = t[3];
                    j += 2;
                }
                while j < n {
                    let b_row = other.row(j);
                    row0[j] = dot(a0, b_row);
                    row1[j] = dot(a1, b_row);
                    j += 1;
                }
                r += 2;
            }
            if r < rows {
                let o_row = &mut block[r * row_len..(r + 1) * row_len];
                let a_row = self.row(i0 + r);
                for (j, o) in o_row.iter_mut().enumerate().take(n) {
                    *o = dot(a_row, other.row(j));
                }
            }
        }
        Ok(())
    }

    /// Product with the transpose of the left operand: `selfᵀ * other`.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.cols(), other.cols());
        self.matmul_tn_into(other, &mut out)?;
        Ok(out)
    }

    /// Like [`Matrix::matmul_tn`], but writes into a caller-provided output
    /// matrix of shape `(self.cols, other.cols)` without allocating.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.rows() != other.rows() {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (k, m, n) = (self.rows(), self.cols(), other.cols());
        if out.shape() != (m, n) {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul_tn_into",
                lhs: (m, n),
                rhs: out.shape(),
            });
        }
        let row_len = n.max(1);
        let mr = rows_per_block(k);
        for (b, block) in out.as_mut_slice().chunks_mut(row_len * mr).enumerate() {
            let i0 = b * mr;
            block.fill(0.0);
            // Both operands stream row-wise exactly once per block; each
            // `other` row is reused across the block (output rows are columns
            // of `self`), with per-element `p` order identical to the
            // unblocked kernel.
            for p in 0..k {
                let a_row = self.row(p);
                let b_row = other.row(p);
                for (r, o_row) in block.chunks_mut(row_len).enumerate() {
                    axpy_slice(o_row, a_row[i0 + r], b_row);
                }
            }
        }
        Ok(())
    }

    /// Gram matrix `selfᵀ * self` (always square, `cols x cols`).
    pub fn gram(&self) -> Matrix {
        self.matmul_tn(self).expect("gram: shapes always agree")
    }

    /// Like [`Matrix::gram`], but writes into a caller-provided `cols x cols`
    /// output matrix without allocating.
    pub fn gram_into(&self, out: &mut Matrix) -> Result<()> {
        self.matmul_tn_into(self, out)
    }

    /// Matrix-vector product `self * v`. Panics if `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.cols(),
            "matvec: vector length {} != cols {}",
            v.len(),
            self.cols()
        );
        self.rows_iter().map(|row| dot(row, v)).collect()
    }

    /// Transposed matrix-vector product `selfᵀ * v`. Panics if `v.len() != rows`.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.rows(),
            "tr_matvec: vector length {} != rows {}",
            v.len(),
            self.rows()
        );
        let mut out = vec![0.0; self.cols()];
        for (i, row) in self.rows_iter().enumerate() {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (o, &r) in out.iter_mut().zip(row) {
                *o += vi * r;
            }
        }
        out
    }

    /// Elementwise sum. Errors on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference. Errors on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Returns `self * s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// In-place `self += alpha * other`. Errors on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Adds `value` to each diagonal element in place. Errors unless square.
    pub fn add_diag(&mut self, value: f64) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare { op: "Matrix::add_diag", shape: self.shape() });
        }
        let n = self.rows();
        for i in 0..n {
            self[(i, i)] += value;
        }
        Ok(())
    }
}

/// Dot product of two equal-length slices. Panics on length mismatch.
///
/// Accumulates in four independent lanes so the compiler can keep the partial
/// sums in registers; the lane structure (and therefore the rounding) is fixed.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4 * 4;
    for (ca, cb) in a[..chunks].chunks_exact(4).zip(b[..chunks].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    for (x, y) in a[chunks..].iter().zip(&b[chunks..]) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Four dot products of a 2×2 register tile: `[a0·b0, a0·b1, a1·b0, a1·b1]`.
///
/// Every operand chunk is loaded once and used twice, halving memory traffic
/// against four independent [`dot`] calls. Each of the four accumulations
/// replicates `dot` exactly — the same four lanes over the same 4-long chunks,
/// the same tail, the same `(l0+l1)+(l2+l3)+tail` reduction — so the results
/// are bit-identical to the untiled kernel. All slices must share one length.
fn dot_2x2(a0: &[f64], a1: &[f64], b0: &[f64], b1: &[f64]) -> [f64; 4] {
    let k = a0.len();
    assert!(
        a1.len() == k && b0.len() == k && b1.len() == k,
        "dot_2x2: length mismatch ({}, {}, {}, {})",
        k,
        a1.len(),
        b0.len(),
        b1.len()
    );
    let chunks = k / 4 * 4;
    let mut acc = [[0.0f64; 4]; 4];
    let mut p = 0;
    while p < chunks {
        let (ca0, ca1) = (&a0[p..p + 4], &a1[p..p + 4]);
        let (cb0, cb1) = (&b0[p..p + 4], &b1[p..p + 4]);
        for lane in 0..4 {
            acc[0][lane] += ca0[lane] * cb0[lane];
            acc[1][lane] += ca0[lane] * cb1[lane];
            acc[2][lane] += ca1[lane] * cb0[lane];
            acc[3][lane] += ca1[lane] * cb1[lane];
        }
        p += 4;
    }
    let mut tail = [0.0f64; 4];
    for p in chunks..k {
        tail[0] += a0[p] * b0[p];
        tail[1] += a0[p] * b1[p];
        tail[2] += a1[p] * b0[p];
        tail[3] += a1[p] * b1[p];
    }
    let mut out = [0.0f64; 4];
    for t in 0..4 {
        out[t] = (acc[t][0] + acc[t][1]) + (acc[t][2] + acc[t][3]) + tail[t];
    }
    out
}

/// In-place `out += alpha * src` over equal-length slices, unrolled to match
/// [`dot`]'s chunking. Panics on length mismatch.
#[inline]
pub fn axpy_slice(out: &mut [f64], alpha: f64, src: &[f64]) {
    assert_eq!(out.len(), src.len(), "axpy: length mismatch {} vs {}", out.len(), src.len());
    let chunks = out.len() / 4 * 4;
    for (co, cs) in out[..chunks].chunks_exact_mut(4).zip(src[..chunks].chunks_exact(4)) {
        co[0] += alpha * cs[0];
        co[1] += alpha * cs[1];
        co[2] += alpha * cs[2];
        co[3] += alpha * cs[3];
    }
    for (o, s) in out[chunks..].iter_mut().zip(&src[chunks..]) {
        *o += alpha * s;
    }
}

/// Outer product `a * bᵀ` of two slices.
pub fn outer(a: &[f64], b: &[f64]) -> Matrix {
    Matrix::from_fn(a.len(), b.len(), |i, j| a[i] * b[j])
}

impl std::ops::Add for &Matrix {
    type Output = Matrix;
    /// Panics on shape mismatch; use [`Matrix::add`] for a fallible version.
    fn add(self, rhs: &Matrix) -> Matrix {
        Matrix::add(self, rhs).expect("Matrix + Matrix: shape mismatch")
    }
}

impl std::ops::Sub for &Matrix {
    type Output = Matrix;
    /// Panics on shape mismatch; use [`Matrix::sub`] for a fallible version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        Matrix::sub(self, rhs).expect("Matrix - Matrix: shape mismatch")
    }
}

impl std::ops::Mul for &Matrix {
    type Output = Matrix;
    /// Panics on shape mismatch; use [`Matrix::matmul`] for a fallible version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        Matrix::matmul(self, rhs).expect("Matrix * Matrix: shape mismatch")
    }
}

impl std::ops::Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl std::ops::Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    fn b() -> Matrix {
        Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]]).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let c = a().matmul(&b()).unwrap();
        let expected =
            Matrix::from_rows(&[&[27.0, 30.0, 33.0], &[61.0, 68.0, 75.0], &[95.0, 106.0, 117.0]])
                .unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_shape_check() {
        assert!(a().matmul(&a()).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = a();
        let i = Matrix::identity(2);
        assert!(m.matmul(&i).unwrap().approx_eq(&m, 1e-12));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let m = a(); // 3x2
        let n = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[0.0, 3.0], &[4.0, 4.0]]).unwrap(); // 4x2
        let fast = m.matmul_nt(&n).unwrap();
        let slow = m.matmul(&n.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(m.matmul_nt(&b()).is_err());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let m = a(); // 3x2
        let n = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]).unwrap(); // 3x1
        let fast = m.matmul_tn(&n).unwrap();
        let slow = m.transpose().matmul(&n).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(m.matmul_tn(&b()).is_err());
    }

    #[test]
    fn gram_is_symmetric() {
        let g = a().gram();
        assert_eq!(g.shape(), (2, 2));
        assert!((g[(0, 1)] - g[(1, 0)]).abs() < 1e-12);
        assert!((g[(0, 0)] - 35.0).abs() < 1e-12); // 1 + 9 + 25
    }

    #[test]
    fn matvec_and_tr_matvec() {
        let m = a();
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0, 11.0]);
        assert_eq!(m.tr_matvec(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    #[should_panic]
    fn matvec_length_checked() {
        a().matvec(&[1.0]);
    }

    #[test]
    fn add_sub_scale_axpy() {
        let m = a();
        let s = m.add(&m).unwrap();
        assert!(s.approx_eq(&m.scale(2.0), 1e-12));
        let d = s.sub(&m).unwrap();
        assert!(d.approx_eq(&m, 1e-12));
        let mut x = m.clone();
        x.axpy(-1.0, &m).unwrap();
        assert_eq!(x.max_abs(), 0.0);
        assert!(x.axpy(1.0, &Matrix::zeros(1, 1)).is_err());
        assert!(m.add(&Matrix::zeros(1, 1)).is_err());
        assert!(m.sub(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn add_diag() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diag(2.5).unwrap();
        assert!(m.approx_eq(&Matrix::from_diag(&[2.5, 2.5, 2.5]), 0.0));
        let mut r = Matrix::zeros(2, 3);
        assert!(r.add_diag(1.0).is_err());
    }

    #[test]
    fn free_functions() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let o = outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(o[(1, 0)], 6.0);
    }

    #[test]
    fn dot_covers_every_tail_length() {
        // Lengths 0..=9 hit zero, one and two full 4-lane chunks with every
        // tail; small integers keep the sums exact.
        for n in 0..=9 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b), naive, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_panics_on_length_mismatch() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn empty_inner_dimension_gives_zero_products() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        assert!(a.matmul(&b).unwrap().approx_eq(&Matrix::zeros(2, 3), 0.0));
        assert!(a.matmul_nt(&b.transpose()).unwrap().approx_eq(&Matrix::zeros(2, 3), 0.0));
        assert!(a.gram().approx_eq(&Matrix::zeros(0, 0), 0.0));
        assert_eq!(a.matvec(&[]), vec![0.0, 0.0]);
        assert_eq!(b.tr_matvec(&[]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn operator_overloads() {
        let m = a();
        let sum = &m + &m;
        assert!(sum.approx_eq(&m.scale(2.0), 1e-12));
        let diff = &sum - &m;
        assert!(diff.approx_eq(&m, 1e-12));
        let prod = &m * &b();
        assert_eq!(prod.shape(), (3, 3));
        let scaled = &m * 2.0;
        assert!(scaled.approx_eq(&sum, 1e-12));
        let neg = -&m;
        assert!((&neg + &m).max_abs() < 1e-15);
    }

    #[test]
    fn matmul_with_zero_blocks() {
        let sparse_ish = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let c = sparse_ish.matmul(&Matrix::identity(2)).unwrap();
        assert!(c.approx_eq(&sparse_ish, 0.0));
    }

    #[test]
    fn into_variants_match_and_check_shapes() {
        let m = a(); // 3x2
        let n = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5], &[0.0, 3.0], &[4.0, 4.0]]).unwrap();
        let mut out = Matrix::zeros(3, 4);
        m.matmul_nt_into(&n, &mut out).unwrap();
        assert!(out.approx_eq(&m.matmul_nt(&n).unwrap(), 0.0));
        assert!(m.matmul_nt_into(&n, &mut Matrix::zeros(2, 2)).is_err());

        let mut g = Matrix::zeros(2, 2);
        m.gram_into(&mut g).unwrap();
        assert!(g.approx_eq(&m.gram(), 0.0));
        assert!(m.gram_into(&mut Matrix::zeros(3, 3)).is_err());

        let mut tn = Matrix::zeros(2, 2);
        m.matmul_tn_into(&a(), &mut tn).unwrap();
        assert!(tn.approx_eq(&m.matmul_tn(&a()).unwrap(), 0.0));
    }

    #[test]
    fn matmul_into_matches_allocating_path_and_checks_shapes() {
        let m = a(); // 3x2
        let mut out = Matrix::from_fn(3, 3, |_, _| 42.0); // stale values must be overwritten
        m.matmul_into(&b(), &mut out).unwrap();
        assert!(out.approx_eq(&m.matmul(&b()).unwrap(), 0.0));
        assert!(m.matmul_into(&b(), &mut Matrix::zeros(2, 2)).is_err());
        assert!(m.matmul_into(&a(), &mut Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn dot_2x2_bit_identical_to_four_dots() {
        for k in [0usize, 1, 3, 4, 5, 8, 13, 31, 64] {
            let v = |seed: usize| -> Vec<f64> {
                (0..k).map(|i| ((i * 7 + seed * 13) % 23) as f64 * 0.37 - 3.1).collect()
            };
            let (a0, a1, b0, b1) = (v(1), v(2), v(3), v(4));
            let t = dot_2x2(&a0, &a1, &b0, &b1);
            assert_eq!(t[0].to_bits(), dot(&a0, &b0).to_bits());
            assert_eq!(t[1].to_bits(), dot(&a0, &b1).to_bits());
            assert_eq!(t[2].to_bits(), dot(&a1, &b0).to_bits());
            assert_eq!(t[3].to_bits(), dot(&a1, &b1).to_bits());
        }
    }

    #[test]
    fn blocked_products_bit_identical_to_unblocked_reference() {
        // Shapes straddling the row-block sizes (4/6/8) and the 2x2 nt tile,
        // including odd remainders in every dimension.
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (5, 3, 7), (7, 40, 9), (9, 300, 11), (13, 8, 400)]
        {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 19) as f64 * 0.21 - 1.7);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 23) as f64 * 0.11 - 1.2);
            let bt = b.transpose();

            // Unblocked per-element references with the same primitive order.
            let mut nn_ref = Matrix::zeros(m, n);
            for i in 0..m {
                for p in 0..k {
                    axpy_slice(&mut nn_ref.as_mut_slice()[i * n..(i + 1) * n], a[(i, p)], b.row(p));
                }
            }
            let nn = a.matmul(&b).unwrap();
            assert!(nn
                .as_slice()
                .iter()
                .zip(nn_ref.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));

            let nt = a.matmul_nt(&bt).unwrap();
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(nt[(i, j)].to_bits(), dot(a.row(i), bt.row(j)).to_bits());
                }
            }

            let mut tn_ref = Matrix::zeros(k, n);
            for i in 0..k {
                for p in 0..m {
                    axpy_slice(
                        &mut tn_ref.as_mut_slice()[i * n..(i + 1) * n],
                        a[(p, i)],
                        nn_ref.row(p),
                    );
                }
            }
            let tn = a.matmul_tn(&nn).unwrap();
            assert!(tn
                .as_slice()
                .iter()
                .zip(tn_ref.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn axpy_slice_matches_scalar_loop() {
        let src: Vec<f64> = (0..11).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut fast = vec![1.0; 11];
        let mut slow = fast.clone();
        axpy_slice(&mut fast, -0.7, &src);
        for (o, s) in slow.iter_mut().zip(&src) {
            *o += -0.7 * s;
        }
        assert_eq!(fast, slow);
    }
}
