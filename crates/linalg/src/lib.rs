//! # taf-linalg
//!
//! Dense linear algebra substrate for the TafLoc reproduction.
//!
//! The TafLoc paper (SIGCOMM '16) reconstructs an RSS fingerprint matrix with a
//! structured low-rank solver (LoLi-IR). Everything that solver needs is built here
//! from scratch, because the offline crate set contains no linear-algebra library:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual algebra
//!   (multiplication, slicing, elementwise maps, norms).
//! * Decompositions — [`decomp::cholesky`] (the SPD inner solves of every ALS
//!   step), [`decomp::qr`] (the column-pivoted selection of reference locations)
//!   and [`decomp::svd`] (one-sided Jacobi; LoLi-IR initialization and the SVT
//!   baseline).
//! * [`solve`] — ridge regression with a matrix right-hand side (the LRR `Z`).
//! * [`stats`] — means, percentiles and empirical CDFs used throughout the
//!   evaluation harness.
//!
//! Design goals follow the style of small, robust systems libraries: simplicity over
//! type-level cleverness, explicit error types ([`LinalgError`]), exhaustive
//! documentation, and dense test coverage (unit tests per module plus property-based
//! tests on the algebraic identities).
//!
//! ## Example
//!
//! ```
//! use taf_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
//! let chol = a.cholesky().unwrap();
//! let x = chol.solve(&[1.0, 2.0]).unwrap();
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// config validation — the clippy lint suggesting `x <= 0.0` would silently
// accept NaN. Indexed loops are used where two or more parallel buffers are
// driven by one index; rewriting them as iterator chains hurts readability in
// the numerical kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

mod error;
mod matrix;
pub(crate) mod ops;

pub mod decomp;
pub mod io;
pub mod solve;
pub mod stats;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use ops::{axpy_slice, dot, outer};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Default absolute tolerance used by approximate comparisons in tests and
/// convergence checks (`1e-9`).
pub const DEFAULT_TOL: f64 = 1e-9;
