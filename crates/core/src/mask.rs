//! Boolean entry masks over the fingerprint matrix.
//!
//! Two masks drive the reconstruction:
//!
//! * the **observation mask** `B` — which entries were actually measured during a
//!   reference-location update (whole columns, at the reference cells), and
//! * the **distortion mask** `D` — which entries are "largely distorted" by the
//!   target (a clear RSS decrease below the empty-room level), the region where
//!   the continuity/similarity priors apply.

use crate::error::TaflocError;
use crate::Result;
use taf_linalg::Matrix;

/// A dense boolean mask with matrix shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Mask {
    rows: usize,
    cols: usize,
    data: Vec<bool>,
}

impl Mask {
    /// All-false mask.
    pub fn falses(rows: usize, cols: usize) -> Self {
        Mask { rows, cols, data: vec![false; rows * cols] }
    }

    /// All-true mask.
    pub fn trues(rows: usize, cols: usize) -> Self {
        Mask { rows, cols, data: vec![true; rows * cols] }
    }

    /// Observation mask for a reference-location update: every entry of the given
    /// columns is observed, everything else is not.
    pub fn from_columns(rows: usize, cols: usize, observed_cols: &[usize]) -> Result<Self> {
        let mut m = Mask::falses(rows, cols);
        for &j in observed_cols {
            if j >= cols {
                return Err(TaflocError::IndexOutOfBounds {
                    op: "Mask::from_columns",
                    index: j,
                    bound: cols,
                });
            }
            for i in 0..rows {
                m.data[i * cols + j] = true;
            }
        }
        Ok(m)
    }

    /// Builds a mask from a predicate over matrix entries.
    pub fn from_matrix(m: &Matrix, pred: impl Fn(f64) -> bool) -> Self {
        Mask { rows: m.rows(), cols: m.cols(), data: m.iter().map(pred).collect() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Value at `(i, j)`. Panics when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.rows && j < self.cols, "mask index out of bounds");
        self.data[i * self.cols + j]
    }

    /// Sets the value at `(i, j)`. Panics when out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(i < self.rows && j < self.cols, "mask index out of bounds");
        self.data[i * self.cols + j] = value;
    }

    /// Number of `true` entries.
    pub fn count(&self) -> usize {
        self.data.iter().filter(|&&b| b).count()
    }

    /// Fraction of `true` entries (`0.0` for an empty mask).
    pub fn fraction(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.count() as f64 / self.data.len() as f64
        }
    }

    /// Logical complement.
    pub fn complement(&self) -> Mask {
        Mask { rows: self.rows, cols: self.cols, data: self.data.iter().map(|b| !b).collect() }
    }

    /// Elementwise AND. Errors on shape mismatch.
    pub fn and(&self, other: &Mask) -> Result<Mask> {
        if self.shape() != other.shape() {
            return Err(TaflocError::DimensionMismatch {
                op: "Mask::and",
                expected: self.shape(),
                actual: other.shape(),
            });
        }
        Ok(Mask {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(a, b)| *a && *b).collect(),
        })
    }

    /// `B ∘ M`: zeroes the entries of `m` where the mask is false.
    pub fn apply(&self, m: &Matrix) -> Result<Matrix> {
        if self.shape() != m.shape() {
            return Err(TaflocError::DimensionMismatch {
                op: "Mask::apply",
                expected: self.shape(),
                actual: m.shape(),
            });
        }
        let mut out = m.clone();
        for (k, keep) in self.data.iter().enumerate() {
            if !keep {
                out.as_mut_slice()[k] = 0.0;
            }
        }
        Ok(out)
    }

    /// The mask as a 0/1 matrix (the paper's binary matrix `B`).
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
        )
        .expect("mask data sized to shape")
    }

    /// Columns of the `true` entries of row `i`, in increasing order. Panics
    /// when out of bounds.
    pub(crate) fn true_cols(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(i < self.rows, "mask index out of bounds");
        let row = &self.data[i * self.cols..(i + 1) * self.cols];
        row.iter().enumerate().filter(|(_, &b)| b).map(|(j, _)| j)
    }

    /// Iterator over `(i, j)` positions of `true` entries.
    pub fn true_positions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cols;
        self.data.iter().enumerate().filter(|(_, &b)| b).map(move |(k, _)| (k / cols, k % cols))
    }
}

/// Flags the "largely distorted" entries of a fingerprint matrix: positions where
/// the RSS drops more than `threshold_db` below the link's empty-room level
/// (`empty[i] − x[i][j] > threshold_db`).
///
/// This is the paper's `X_D` region — the entries where the target blocks the
/// direct path and the continuity/similarity structure holds.
pub fn detect_distorted(x: &Matrix, empty_rss: &[f64], threshold_db: f64) -> Result<Mask> {
    if empty_rss.len() != x.rows() {
        return Err(TaflocError::DimensionMismatch {
            op: "detect_distorted",
            expected: (x.rows(), 1),
            actual: (empty_rss.len(), 1),
        });
    }
    let mut m = Mask::falses(x.rows(), x.cols());
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            if empty_rss[i] - x[(i, j)] > threshold_db {
                m.set(i, j, true);
            }
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Mask::falses(2, 3).count(), 0);
        assert_eq!(Mask::trues(2, 3).count(), 6);
    }

    #[test]
    fn from_columns_marks_whole_columns() {
        let m = Mask::from_columns(3, 4, &[1, 3]).unwrap();
        assert_eq!(m.count(), 6);
        for i in 0..3 {
            assert!(m.get(i, 1));
            assert!(m.get(i, 3));
            assert!(!m.get(i, 0));
        }
        assert!(Mask::from_columns(3, 4, &[4]).is_err());
    }

    #[test]
    fn from_matrix_predicate() {
        let x = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, -0.5]]).unwrap();
        let m = Mask::from_matrix(&x, |v| v > 0.0);
        assert_eq!(m.count(), 2);
        assert!(m.get(0, 0) && m.get(1, 0));
    }

    #[test]
    fn fraction_and_complement() {
        let m = Mask::from_columns(2, 4, &[0]).unwrap();
        assert!((m.fraction() - 0.25).abs() < 1e-12);
        let c = m.complement();
        assert!((c.fraction() - 0.75).abs() < 1e-12);
        assert_eq!(Mask::falses(0, 0).fraction(), 0.0);
    }

    #[test]
    fn and_combination() {
        let a = Mask::from_columns(2, 3, &[0, 1]).unwrap();
        let b = Mask::from_columns(2, 3, &[1, 2]).unwrap();
        let c = a.and(&b).unwrap();
        assert_eq!(c.count(), 2); // only column 1
        assert!(c.get(0, 1));
        assert!(a.and(&Mask::falses(1, 1)).is_err());
    }

    #[test]
    fn apply_zeroes_unobserved() {
        let m = Mask::from_columns(2, 2, &[0]).unwrap();
        let x = Matrix::filled(2, 2, 3.0);
        let applied = m.apply(&x).unwrap();
        assert_eq!(applied[(0, 0)], 3.0);
        assert_eq!(applied[(0, 1)], 0.0);
        assert!(m.apply(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn to_matrix_is_binary() {
        let m = Mask::from_columns(2, 2, &[1]).unwrap();
        let b = m.to_matrix();
        assert_eq!(b[(0, 0)], 0.0);
        assert_eq!(b[(0, 1)], 1.0);
    }

    #[test]
    fn true_positions_iteration() {
        let m = Mask::from_columns(2, 3, &[2]).unwrap();
        let pos: Vec<_> = m.true_positions().collect();
        assert_eq!(pos, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn true_cols_walks_one_row_in_order() {
        let mut m = Mask::from_columns(2, 5, &[3, 0]).unwrap();
        m.set(1, 4, true);
        assert_eq!(m.true_cols(0).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(m.true_cols(1).collect::<Vec<_>>(), vec![0, 3, 4]);
        let rows: Vec<_> = (0..2).flat_map(|i| m.true_cols(i).map(move |j| (i, j))).collect();
        assert_eq!(rows, m.true_positions().collect::<Vec<_>>());
    }

    #[test]
    fn detect_distorted_thresholds() {
        // empty = -40; entries at -41 (1 dB drop) and -46 (6 dB drop).
        let x = Matrix::from_rows(&[&[-41.0, -46.0]]).unwrap();
        let d = detect_distorted(&x, &[-40.0], 3.0).unwrap();
        assert!(!d.get(0, 0));
        assert!(d.get(0, 1));
        assert!(detect_distorted(&x, &[-40.0, -40.0], 3.0).is_err());
    }

    #[test]
    #[should_panic]
    fn get_out_of_bounds_panics() {
        Mask::falses(1, 1).get(1, 0);
    }
}
