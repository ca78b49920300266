//! Error type shared by all linear-algebra routines.

use std::fmt;

/// Errors returned by `taf-linalg` operations.
///
/// Every fallible routine in this crate reports failures through this enum rather
/// than panicking, so callers (the LoLi-IR solver, the simulator, the benches) can
/// decide how to react to degenerate numerical situations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left / first operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right / second operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An operation that requires a square matrix received a rectangular one.
    NotSquare {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Actual shape, `(rows, cols)`.
        shape: (usize, usize),
    },
    /// A matrix expected to be symmetric positive definite was not
    /// (Cholesky hit a non-positive pivot).
    NotPositiveDefinite {
        /// Index of the offending pivot.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Human-readable name of the algorithm.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An operation received an empty matrix or slice where data was required.
    EmptyInput {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
    /// An index (row, column, or element) was out of bounds.
    IndexOutOfBounds {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The exclusive bound the index must stay below.
        bound: usize,
    },
    /// A scalar argument was invalid (negative regularizer, NaN tolerance, ...).
    InvalidArgument {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Explanation of what was wrong.
        reason: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: dimension mismatch between {}x{} and {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(f, "{op}: requires a square matrix, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NotPositiveDefinite { pivot, value } => {
                write!(f, "cholesky: matrix is not positive definite (pivot {pivot} = {value:.3e})")
            }
            LinalgError::NoConvergence { algorithm, iterations } => {
                write!(f, "{algorithm}: no convergence after {iterations} iterations")
            }
            LinalgError::EmptyInput { op } => write!(f, "{op}: empty input"),
            LinalgError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds (< {bound} required)")
            }
            LinalgError::InvalidArgument { op, reason } => {
                write!(f, "{op}: invalid argument: {reason}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch { op: "matmul", lhs: (2, 3), rhs: (4, 5) };
        assert_eq!(e.to_string(), "matmul: dimension mismatch between 2x3 and 4x5");
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { op: "cholesky", shape: (2, 3) };
        assert!(e.to_string().contains("square"));
    }

    #[test]
    fn display_not_positive_definite() {
        let e = LinalgError::NotPositiveDefinite { pivot: 1, value: -2.0 };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence { algorithm: "jacobi-svd", iterations: 60 };
        assert!(e.to_string().contains("60"));
    }

    #[test]
    fn display_empty_and_bounds_and_invalid() {
        assert!(LinalgError::EmptyInput { op: "mean" }.to_string().contains("empty"));
        let e = LinalgError::IndexOutOfBounds { op: "row", index: 9, bound: 3 };
        assert!(e.to_string().contains("9"));
        let e = LinalgError::InvalidArgument { op: "ridge", reason: "lambda < 0".into() };
        assert!(e.to_string().contains("lambda"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
