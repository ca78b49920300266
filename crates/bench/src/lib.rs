//! # taf-bench
//!
//! Shared experiment drivers for the figure-regeneration binaries. Each paper
//! artifact (Fig. 3, Fig. 4, Fig. 5, the in-text drift/cost/noise numbers, and
//! the design-choice ablations) has a driver here; the binaries in `src/bin/`
//! are thin wrappers that run a driver at full scale and print the same
//! rows/series the paper reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// config validation — the clippy lint suggesting `x <= 0.0` would silently
// accept NaN. Indexed loops are used where two or more parallel buffers are
// driven by one index; rewriting them as iterator chains hurts readability in
// the numerical kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

pub mod ablation;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod perf;
pub mod report;
