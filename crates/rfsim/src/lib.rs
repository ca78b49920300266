//! # taf-rfsim
//!
//! Indoor RF propagation and RSS measurement-campaign simulator.
//!
//! The TafLoc paper evaluates on a physical testbed: Atheros AR9331 WiFi
//! transceivers around a 9 m x 12 m room, 10 links over a 96-grid monitored area,
//! observed for 3 months. That hardware and those traces are not available, so this
//! crate is the substitution: a physical-layer simulator that reproduces the
//! *structural properties* the TafLoc algorithms exploit:
//!
//! 1. **Approximate low rank** of the fingerprint matrix — RSS is generated from a
//!    smooth physical model (log-distance path loss + an elliptical Fresnel-zone
//!    blocking model), so nearby columns share structure.
//! 2. **Linear representability** — columns are smooth functions of target position,
//!    hence well approximated by combinations of a few reference columns.
//! 3. **Continuity / similarity** — the blocking model varies continuously along a
//!    link and similarly across adjacent links.
//! 4. **Temporal drift** — per-link and per-entry Ornstein-Uhlenbeck drift
//!    calibrated to the paper's in-text numbers (mean |ΔRSS| ≈ 2.5 dBm after 5 days
//!    and ≈ 6 dBm after 45 days).
//! 5. **Measurement noise** — Gaussian dBm noise with 1-dBm quantization, in the
//!    paper's stated 1-4 dBm range.
//!
//! The top-level entry point is [`World`]: build one (e.g.
//! [`World::paper_default`]), then run [`campaign`] functions against it to obtain
//! fingerprint matrices, reference updates and online snapshots.
//!
//! ```
//! use taf_rfsim::{World, WorldConfig};
//! use taf_rfsim::campaign;
//!
//! let world = World::new(WorldConfig::small_test(), 42);
//! let x0 = campaign::full_calibration(&world, 0.0, 7);
//! assert_eq!(x0.rows(), world.num_links());
//! assert_eq!(x0.cols(), world.num_cells());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// config validation — the clippy lint suggesting `x <= 0.0` would silently
// accept NaN. Indexed loops are used where two or more parallel buffers are
// driven by one index; rewriting them as iterator chains hurts readability in
// the numerical kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

pub mod campaign;
pub mod deployment;
pub mod drift;
pub mod events;
pub mod faults;
pub mod geometry;
pub mod grid;
pub mod noise;
pub mod pathloss;
pub mod rng;
pub mod shadowing;
pub mod stream;
pub mod target;
pub mod trajectory;
pub mod world;

pub use deployment::{Deployment, Link};
pub use events::EnvironmentEvent;
pub use faults::{Fault, FaultSchedule};
pub use geometry::{Point, Segment};
pub use grid::FloorGrid;
pub use stream::StreamConfig;
pub use trajectory::{Trajectory, WaypointConfig};
pub use world::{World, WorldConfig};
