//! # tafloc-serve
//!
//! The always-on serving layer for the TafLoc reproduction: a multi-site
//! localization daemon (`taflocd`) speaking newline-delimited JSON over TCP.
//!
//! The library crate exposes every building block so the daemon can be
//! embedded in-process (tests, benchmarks, the testkit's scripted sites;
//! `taflocd` is the only standalone launcher):
//!
//! * [`protocol`] — the `Request`/`Response` wire types;
//! * [`wire`] — both wire codecs (v1 newline-delimited JSON, v2 checksummed
//!   binary frames) and the per-message version sniffing between them;
//! * [`snapshot`] — `SnapshotCell`, the atomically swappable immutable
//!   snapshot slot behind the contention-free read path;
//! * [`site`] — per-site state: the swappable calibrated system plus the
//!   mutex-guarded mutable half (drift monitor, pending refs, capture
//!   windows, plan state) and the streaming [`tafloc_ingest::Ingestor`]
//!   accepting raw link samples behind the `ingest` / `locate-stream`
//!   endpoints;
//! * [`shard`] — the worker shards that hold the sites: consistent-hash
//!   placement, one maintenance scheduler per shard, and credit-based ingest
//!   admission control (per-site quotas, deadline blocking, explicit
//!   overload frames);
//! * [`maintenance`] — the background drift/refresh loop and its policy;
//! * [`metrics`] — wait-free per-endpoint counters and latency histograms;
//! * [`store`] — crash-safe checksummed per-site snapshot persistence
//!   behind `--data-dir`;
//! * [`journal`] — the per-site write-ahead ingest journal that makes
//!   admitted survey batches durable between snapshot commits;
//! * [`server`] — TCP accept loop, worker pool, dispatch, graceful shutdown;
//! * [`client`] — a thin blocking client for the line protocol.
//!
//! ## Quick tour
//!
//! ```no_run
//! use tafloc_serve::server::{Server, ServerConfig};
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn();
//! let mut client = tafloc_serve::client::Client::connect(addr).unwrap();
//! client.ping().unwrap();
//! handle.shutdown();
//! handle.join();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod error;
pub mod journal;
pub mod maintenance;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod site;
pub mod snapshot;
pub mod store;
pub mod wire;

pub use error::{Result, ServeError};
