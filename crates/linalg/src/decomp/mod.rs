//! Matrix decompositions.
//!
//! * [`cholesky`] — SPD factorization; the inner solver of every LoLi-IR
//!   alternating-least-squares step and of ridge regression.
//! * [`qr`] — Householder QR, optionally with column pivoting. Column pivoting is
//!   how TafLoc selects its reference locations (the "maximum linearly independent"
//!   columns of the fingerprint matrix).
//! * [`svd`] — one-sided Jacobi singular value decomposition; used to initialize the
//!   LoLi-IR factors and by the singular-value-thresholding completion baseline.

pub mod cholesky;
pub mod qr;
pub mod svd;

pub use cholesky::Cholesky;
pub use qr::{ColPivQr, Qr};
pub use svd::Svd;
