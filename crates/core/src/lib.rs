//! # tafloc-core
//!
//! A from-scratch reproduction of **TafLoc** (SIGCOMM '16): time-adaptive,
//! fine-grained device-free localization with little fingerprint-maintenance
//! cost.
//!
//! TafLoc localizes a person who carries no device by matching live per-link RSS
//! vectors against a fingerprint database — an `M x N` matrix of the RSS of `M`
//! links with a target standing in each of `N` location cells. Its contribution
//! is making that database cheap to maintain: instead of re-surveying all `N`
//! cells when fingerprints expire, TafLoc measures `n ≪ N` *reference* cells and
//! reconstructs the rest with a structured low-rank solver (**LoLi-IR**).
//!
//! ## Crate map
//!
//! | Module | Paper concept |
//! |---|---|
//! | [`db`] | the fingerprint matrix `X` (Fig. 1) |
//! | [`mod@reference`] | "maximum linearly independent" reference-location selection |
//! | [`mask`] | the binary observation matrix `B` and the largely-distorted region `X_D` |
//! | [`operators`] | the continuity (`G`) and similarity (`H`) structure operators |
//! | [`lrr`] | the low-rank representation `X = X_R·Z` |
//! | [`svt`] | the rank-minimization completion baseline (property (i) alone) |
//! | [`loli_ir`] | the full reconstruction objective and alternating solver |
//! | [`matcher`] | matching live `Y` against the database columns |
//! | [`system`] | the calibrate → update → localize lifecycle |
//! | [`eval`] | error CDFs and summaries (Figs. 3 and 5) |
//! | [`tracking`] | particle-filter tracking of moving targets |
//! | [`monitor`] | reference-cell spot checks driving time-adaptive update scheduling |
//!
//! ## Quickstart
//!
//! ```
//! use taf_rfsim::{campaign, World, WorldConfig};
//! use tafloc_core::db::FingerprintDb;
//! use tafloc_core::system::{TafLoc, TafLocConfig};
//!
//! // Simulated site survey at day 0.
//! let world = World::new(WorldConfig::small_test(), 7);
//! let x0 = campaign::full_calibration(&world, 0.0, 20);
//! let e0 = campaign::empty_snapshot(&world, 0.0, 20);
//! let db = FingerprintDb::from_world(x0, &world).unwrap();
//!
//! // Calibrate, then later refresh from reference cells only.
//! let config = TafLocConfig { ref_count: 6, ..Default::default() };
//! let mut tafloc = TafLoc::calibrate(config, db, e0).unwrap();
//! let fresh = campaign::measure_columns(&world, 45.0, tafloc.reference_cells(), 20);
//! let empty = campaign::empty_snapshot(&world, 45.0, 20);
//! tafloc.update(&fresh, &empty).unwrap();
//!
//! // Localize a live measurement.
//! let y = campaign::snapshot_at_cell(&world, 45.0, 12, 20);
//! let fix = tafloc.localize(&y).unwrap();
//! assert!(fix.cell < world.num_cells());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// config validation — the clippy lint suggesting `x <= 0.0` would silently
// accept NaN. Indexed loops are used where two or more parallel buffers are
// driven by one index; rewriting them as iterator chains hurts readability in
// the numerical kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

pub mod db;
pub mod error;
pub mod eval;
pub mod loli_ir;
pub mod lrr;
pub mod mask;
pub mod matcher;
pub mod monitor;
pub mod operators;
pub mod reference;
pub mod svt;
pub mod system;
pub mod tracking;

pub use db::FingerprintDb;
pub use error::TaflocError;
pub use loli_ir::{
    LoliIrConfig, Reconstruction, ReconstructionProblem, SolverWorkspace, WarmState,
};
pub use lrr::LrrModel;
pub use mask::Mask;
pub use matcher::{MatchMethod, MatchResult};
pub use monitor::{DriftMonitor, MonitorConfig, Recommendation};
pub use system::{SolverCache, SystemSnapshot, TafLoc, TafLocConfig, UpdateReport, ZRefreshPolicy};
pub use tracking::{ParticleFilter, TrackEstimate, TrackerConfig};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TaflocError>;
