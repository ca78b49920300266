//! # tafloc-ingest
//!
//! The streaming data plane between radios and inference: raw timestamped
//! per-link RSS samples in, robust `M`-dimensional fingerprint vectors out.
//!
//! Everything downstream of this crate — localization, drift monitoring,
//! LoLi-IR refresh — assumes clean averaged per-link vectors, but real
//! deployments emit noisy, lossy, asynchronous per-link *sample streams*.
//! This crate closes that gap:
//!
//! * [`sample`] — [`LinkSample`], the raw wire unit, plus per-batch
//!   accounting ([`BatchReport`]);
//! * [`config`] — [`IngestConfig`]: window sizes, staleness bounds, Hampel
//!   outlier rejection, median/EWMA aggregation;
//! * [`window`] — [`LinkWindow`]: one link's time-ordered sliding window with
//!   robust reduction and health (stale/dead/flapping) bookkeeping;
//! * [`pipeline`] — [`Ingestor`]: link-sharded lock-light ingestion,
//!   wait-free published aggregates, on-demand assembly of complete vectors
//!   with explicit missing-link flags, cumulative drop accounting.
//!
//! Admission control belongs to the daemon: `tafloc-serve`'s `shard` module
//! gates every batch with sample credits before a site's [`Ingestor`] sees it.
//!
//! Std-only, mirroring the snapshot-swap discipline of `tafloc-serve`:
//! writers take one shard mutex per batch; readers only ever copy `Arc`
//! pointers.
//!
//! ## Quick tour
//!
//! ```
//! use tafloc_ingest::{IngestConfig, Ingestor, LinkSample};
//! let ing = Ingestor::new(IngestConfig::default(), 2, 1).unwrap();
//! ing.apply_batch(&[
//!     LinkSample::new(0, 0.0, -50.0),
//!     LinkSample::new(0, 1.0, -50.5),
//!     LinkSample::new(0, 2.0, -49.5),
//! ]);
//! let v = ing.assemble(&[-40.0, -40.0]).unwrap();
//! assert_eq!(v.y[0], -50.0);     // robust aggregate of link 0
//! assert_eq!(v.y[1], -40.0);     // link 1 never reported: imputed
//! assert_eq!(v.missing, vec![1]); // ... and flagged
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `!(x > 0.0)` deliberately rejects NaN along with non-positive values in
// config validation — the clippy lint suggesting `x <= 0.0` would silently
// accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod clock;
pub mod config;
mod error;
pub mod pipeline;
pub mod sample;
pub mod window;

pub use clock::ClockMode;
pub use config::{Aggregator, IngestConfig};
pub use error::{IngestError, Result};
pub use pipeline::{AssembledVector, IngestStats, Ingestor, LinkFlag};
pub use sample::{BatchReport, LinkSample};
pub use window::{LinkAggregate, LinkStatus, LinkWindow};
