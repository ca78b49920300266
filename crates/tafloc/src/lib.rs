//! # tafloc
//!
//! Umbrella crate re-exporting the full TafLoc reproduction — a from-scratch
//! Rust implementation of *"TafLoc: Time-adaptive and Fine-grained Device-free
//! Localization with Little Cost"* (SIGCOMM '16) together with its substrates
//! and baselines:
//!
//! * [`core`] ([`tafloc_core`]) — the paper's contribution: fingerprint
//!   database, reference-location selection, the LoLi-IR reconstruction
//!   solver, matching, tracking, detection, and drift monitoring.
//! * [`rfsim`] ([`taf_rfsim`]) — the simulated testbed: indoor RF propagation,
//!   calibrated temporal drift, measurement campaigns.
//! * [`baselines`] ([`taf_baselines`]) — RTI and RASS comparators.
//! * [`linalg`] ([`taf_linalg`]) — the dense linear algebra everything is
//!   built on.
//!
//! The runnable examples in `examples/` and the integration tests in `tests/`
//! are attached to this crate; the paper-figure binaries live in `taf-bench`
//! and the command-line workflow in `tafloc-cli`. Start with the repository
//! README for the full map.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use taf_baselines as baselines;
pub use taf_linalg as linalg;
pub use taf_rfsim as rfsim;
pub use tafloc_core as core;
