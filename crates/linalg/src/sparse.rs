//! Compressed sparse row (CSR) matrices.
//!
//! The continuity operator `G` and similarity operator `H` from the TafLoc
//! objective are sparse difference operators (two non-zeros per row); storing them
//! densely would waste both memory and the inner loops of the LoLi-IR solver.

use crate::{LinalgError, Matrix, Result};

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (enforced by [`Csr::from_triplets`] and checked in debug builds):
/// `indptr.len() == rows + 1`, `indptr` non-decreasing,
/// `indices[k] < cols`, and within each row the column indices are strictly
/// increasing.
///
/// ```
/// use taf_linalg::sparse::Csr;
/// // A 2x3 difference operator: row 0 computes x0 - x1, row 1 computes x1 - x2.
/// let g = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 1, -1.0), (1, 1, 1.0), (1, 2, -1.0)]).unwrap();
/// assert_eq!(g.matvec(&[3.0, 1.0, 0.0]).unwrap(), vec![2.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate positions are summed; explicit zeros are dropped. Out-of-range
    /// triplets yield [`LinalgError::IndexOutOfBounds`].
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Csr> {
        for &(i, j, _) in triplets {
            if i >= rows {
                return Err(LinalgError::IndexOutOfBounds {
                    op: "Csr::from_triplets(row)",
                    index: i,
                    bound: rows,
                });
            }
            if j >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    op: "Csr::from_triplets(col)",
                    index: j,
                    bound: cols,
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));

        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());

        let mut k = 0;
        while k < sorted.len() {
            let (i, j, mut v) = sorted[k];
            k += 1;
            while k < sorted.len() && sorted[k].0 == i && sorted[k].1 == j {
                v += sorted[k].2;
                k += 1;
            }
            if v != 0.0 {
                indices.push(j);
                values.push(v);
                indptr[i + 1] += 1;
            }
        }
        for i in 0..rows {
            indptr[i + 1] += indptr[i];
        }
        Ok(Csr { rows, cols, indptr, indices, values })
    }

    /// Converts a dense matrix to CSR, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Csr {
        let triplets: Vec<(usize, usize, f64)> =
            m.indexed_iter().filter(|&(_, _, v)| v != 0.0).collect();
        Csr::from_triplets(m.rows(), m.cols(), &triplets).expect("indices from a valid matrix")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over the stored entries of row `i` as `(col, value)` pairs.
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix - dense vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Csr::matvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            out[i] = self.row(i).map(|(j, val)| val * v[j]).sum();
        }
        Ok(out)
    }

    /// Transposed product `selfᵀ * v`.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Csr::tr_matvec",
                lhs: (self.cols, self.rows),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (j, val) in self.row(i) {
                out[j] += val * vi;
            }
        }
        Ok(out)
    }

    /// Sparse - dense product `self * d`.
    pub fn matmul_dense(&self, d: &Matrix) -> Result<Matrix> {
        if d.rows() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Csr::matmul_dense",
                lhs: (self.rows, self.cols),
                rhs: d.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, d.cols());
        for i in 0..self.rows {
            for (j, val) in self.row(i) {
                let d_row = d.row(j);
                let o_row = out.row_mut(i);
                for (o, &dv) in o_row.iter_mut().zip(d_row) {
                    *o += val * dv;
                }
            }
        }
        Ok(out)
    }

    /// Dense - sparse product `d * self`.
    pub fn rmatmul_dense(&self, d: &Matrix) -> Result<Matrix> {
        if d.cols() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Csr::rmatmul_dense",
                lhs: d.shape(),
                rhs: (self.rows, self.cols),
            });
        }
        let mut out = Matrix::zeros(d.rows(), self.cols);
        for i in 0..self.rows {
            for (j, val) in self.row(i) {
                for r in 0..d.rows() {
                    out[(r, j)] += d[(r, i)] * val;
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> Csr {
        let triplets: Vec<(usize, usize, f64)> =
            (0..self.rows).flat_map(|i| self.row(i).map(move |(j, v)| (j, i, v))).collect();
        Csr::from_triplets(self.cols, self.rows, &triplets).expect("transpose indices valid")
    }

    /// Normal-equations matrix `selfᵀ·self` as a dense matrix.
    ///
    /// The Laplacians of the continuity/similarity graphs are `GᵀG` and `HᵀH`; at
    /// our scale they are small enough to hold densely.
    pub fn gram_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let entries: Vec<(usize, f64)> = self.row(i).collect();
            for &(j1, v1) in &entries {
                for &(j2, v2) in &entries {
                    out[(j1, j2)] += v1 * v2;
                }
            }
        }
        out
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                out[(i, j)] = v;
            }
        }
        out
    }

    /// Frobenius norm of the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        Csr::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let c = sample();
        assert_eq!((c.rows(), c.cols()), (3, 3));
        assert_eq!(c.nnz(), 4);
    }

    #[test]
    fn duplicates_summed_zeros_dropped() {
        let c = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)]).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.to_dense()[(0, 0)], 3.0);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Csr::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(Csr::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[&[0.0, 1.5], &[-2.0, 0.0]]).unwrap();
        let c = Csr::from_dense(&d);
        assert_eq!(c.nnz(), 2);
        assert!(c.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn matvec_matches_dense() {
        let c = sample();
        let d = c.to_dense();
        let v = [1.0, -1.0, 0.5];
        let sv = c.matvec(&v).unwrap();
        let dv = d.matvec(&v);
        assert_eq!(sv, dv);
        assert!(c.matvec(&[1.0]).is_err());
    }

    #[test]
    fn tr_matvec_matches_dense() {
        let c = sample();
        let d = c.to_dense().transpose();
        let v = [1.0, 2.0, 3.0];
        assert_eq!(c.tr_matvec(&v).unwrap(), d.matvec(&v));
        assert!(c.tr_matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_dense_matches_dense() {
        let c = sample();
        let d = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let fast = c.matmul_dense(&d).unwrap();
        let slow = c.to_dense().matmul(&d).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(c.matmul_dense(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn rmatmul_dense_matches_dense() {
        let c = sample();
        let d = Matrix::from_fn(2, 3, |i, j| (1 + i * 3 + j) as f64);
        let fast = c.rmatmul_dense(&d).unwrap();
        let slow = d.matmul(&c.to_dense()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(c.rmatmul_dense(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let c = sample();
        let t = c.transpose();
        assert!(t.to_dense().approx_eq(&c.to_dense().transpose(), 0.0));
        assert!(t.transpose().to_dense().approx_eq(&c.to_dense(), 0.0));
    }

    #[test]
    fn gram_dense_matches_dense_gram() {
        let c = sample();
        let g = c.gram_dense();
        let expected = c.to_dense().gram();
        assert!(g.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn frobenius_matches_dense() {
        let c = sample();
        assert!((c.frobenius_norm() - c.to_dense().frobenius_norm()).abs() < 1e-12);
    }

    #[test]
    fn empty_row_iteration() {
        let c = sample();
        assert_eq!(c.row(1).count(), 0);
    }
}
