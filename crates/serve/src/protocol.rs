//! The `Request`/`Response` message types shared by both wire protocols.
//!
//! The types here are pure data; the codecs live in [`crate::wire`]. The
//! canonical v1 encoding is newline-delimited JSON — trivial enough to speak
//! from `netcat` or a shell script. Requests are tagged unions on a `"cmd"`
//! field:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"locate","site":"lab","y":[-52.1,-48.7,...]}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! and responses on a `"reply"` field:
//!
//! ```text
//! {"reply":"pong"}
//! {"reply":"located","cell":42,"x":3.9,"y":5.1,"distance_db":2.31,"version":1}
//! {"reply":"error","message":"unknown site \"attic\""}
//! ```
//!
//! Both protocols are generated from one declaration of each message's
//! fields, in `wire/schema.rs`. The committed corpus in `tests/corpus/` pins
//! the bytes of every variant in both.

use crate::maintenance::MaintenancePolicy;
use taf_linalg::Matrix;
use tafloc_core::system::SystemSnapshot;
use tafloc_ingest::{BatchReport, IngestStats, LinkSample};

/// Hard cap on one wire line (16 MiB) — a full `SystemSnapshot` for the
/// paper-scale site is well under this; anything larger is a protocol abuse.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// A client request, one JSON object per line, tagged by `cmd`.
#[derive(Debug, Clone)]
pub enum Request {
    /// Register a new site from a calibrated system snapshot.
    AddSite {
        /// Site name (registry key).
        site: String,
        /// The calibrated system state to serve (boxed: this variant is far
        /// larger than every other request).
        snapshot: Box<SystemSnapshot>,
        /// Deployment day the snapshot corresponds to (drift-clock origin).
        day: f64,
        /// Maintenance policy override; server default when omitted.
        policy: Option<MaintenancePolicy>,
    },
    /// Unregister a site and stop its maintenance thread.
    RemoveSite {
        /// Site name.
        site: String,
    },
    /// List registered sites.
    ListSites,
    /// Localize one live RSS vector.
    Locate {
        /// Site name.
        site: String,
        /// Averaged per-link RSS (length = site's link count).
        y: Vec<f64>,
    },
    /// Localize from the site's live ingestion window: assemble the current
    /// per-link aggregates into a fingerprint vector and match it.
    LocateStream {
        /// Site name.
        site: String,
    },
    /// Localize many RSS vectors in one round trip over one snapshot.
    LocateBatch {
        /// Site name.
        site: String,
        /// One averaged per-link RSS vector per fix wanted.
        ys: Vec<Vec<f64>>,
    },
    /// Push raw timestamped link samples into the site's ingestion pipeline.
    Ingest {
        /// Site name.
        site: String,
        /// When set, samples feed the capture window for this reference cell
        /// (for maintenance spot checks) instead of the live window.
        ref_cell: Option<usize>,
        /// Deployment day the samples were taken (used for reference
        /// captures; ignored for live traffic).
        day: f64,
        /// The raw samples, in any order.
        samples: Vec<LinkSample>,
    },
    /// Advance a named tracking stream by one measurement (particle filter).
    Track {
        /// Site name.
        site: String,
        /// Stream id — each id owns an independent filter state.
        stream: String,
        /// Averaged per-link RSS.
        y: Vec<f64>,
        /// Seconds since the stream's previous measurement.
        dt_s: f64,
    },
    /// Feed a named presence-detection stream (snapshot + CUSUM).
    Detect {
        /// Site name.
        site: String,
        /// Stream id — each id owns independent CUSUM state.
        stream: String,
        /// Averaged per-link RSS.
        y: Vec<f64>,
    },
    /// Ingest freshly measured reference columns (the cheap survey).
    MeasureRefs {
        /// Site name.
        site: String,
        /// Deployment day of the measurement.
        day: f64,
        /// `M x n` matrix, columns in the site's reference-cell order.
        columns: Matrix,
        /// Fresh empty-room baseline (length `M`).
        empty: Vec<f64>,
    },
    /// Run LoLi-IR on the last ingested references and swap the snapshot.
    Refresh {
        /// Site name.
        site: String,
    },
    /// Per-endpoint counters/latency and per-site health.
    Stats,
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain in-flight connections, then exit.
    Shutdown,
}

impl Request {
    /// Stable endpoint name, used as the metrics key.
    pub fn endpoint(&self) -> crate::metrics::Endpoint {
        use crate::metrics::Endpoint as E;
        match self {
            Request::AddSite { .. } => E::AddSite,
            Request::RemoveSite { .. } => E::RemoveSite,
            Request::ListSites => E::ListSites,
            Request::Locate { .. } => E::Locate,
            Request::LocateStream { .. } => E::LocateStream,
            Request::LocateBatch { .. } => E::LocateBatch,
            Request::Ingest { .. } => E::Ingest,
            Request::Track { .. } => E::Track,
            Request::Detect { .. } => E::Detect,
            Request::MeasureRefs { .. } => E::MeasureRefs,
            Request::Refresh { .. } => E::Refresh,
            Request::Stats => E::Stats,
            Request::Ping => E::Ping,
            Request::Shutdown => E::Shutdown,
        }
    }
}

/// A server response, one JSON object per line, tagged by `reply`.
#[derive(Debug, Clone)]
pub enum Response {
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
    /// Site registered and serving.
    SiteAdded {
        /// Site name.
        site: String,
        /// Link count.
        links: usize,
        /// Cell count.
        cells: usize,
    },
    /// Site removed.
    SiteRemoved {
        /// Site name.
        site: String,
    },
    /// Registered sites.
    Sites {
        /// One entry per site.
        sites: Vec<SiteInfo>,
    },
    /// Localization fix.
    Located {
        /// Best-matching cell.
        cell: usize,
        /// Estimated x (m).
        x: f64,
        /// Estimated y (m).
        y: f64,
        /// Fingerprint distance of the best match (dB).
        distance_db: f64,
        /// Snapshot version that served the request.
        version: u64,
    },
    /// Localization fix assembled from the live ingestion window.
    StreamLocated {
        /// Best-matching cell.
        cell: usize,
        /// Estimated x (m).
        x: f64,
        /// Estimated y (m).
        y: f64,
        /// Fingerprint distance of the best match (dB).
        distance_db: f64,
        /// Snapshot version that served the request.
        version: u64,
        /// Links imputed from the empty-room baseline (no samples ever seen).
        missing_links: Vec<usize>,
        /// Links whose freshest sample is older than the staleness bound.
        stale_links: Vec<usize>,
        /// Stream-clock time (s) at which the vector was assembled.
        stream_t_s: f64,
        /// Total window samples backing the assembled vector.
        window_samples: usize,
    },
    /// One fix per input vector, all served from one snapshot.
    LocatedBatch {
        /// Fixes, in input order.
        fixes: Vec<Fix>,
        /// Snapshot version that served the whole batch.
        version: u64,
    },
    /// Ingestion outcome for one sample batch.
    Ingested {
        /// Per-batch accept/drop accounting.
        report: BatchReport,
    },
    /// Tracking estimate.
    Tracked {
        /// Estimated x (m).
        x: f64,
        /// Estimated y (m).
        y: f64,
        /// Particle-filter effective sample size (diagnostic).
        effective_sample_size: f64,
    },
    /// Presence decision.
    Detected {
        /// Whether a target is believed present.
        present: bool,
        /// Which detector fired and on what evidence.
        detail: String,
    },
    /// Reference measurements accepted; the monitor's verdict on them.
    RefsAccepted {
        /// `healthy`, `update-recommended`, or `cooldown`.
        recommendation: String,
        /// Estimated whole-database drift (dB).
        estimated_error_db: f64,
    },
    /// Snapshot refreshed (LoLi-IR ran and the swap happened).
    Refreshed {
        /// LoLi-IR outer iterations.
        iterations: usize,
        /// Whether the solver met tolerance.
        converged: bool,
        /// Mean absolute change applied to the database (dB).
        mean_abs_change_db: f64,
        /// New snapshot version.
        version: u64,
    },
    /// Server statistics.
    Stats {
        /// The report.
        report: StatsReport,
    },
    /// Liveness answer.
    Pong,
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// Admission control pushed back: the batch was **not** ingested. A
    /// `deferred` reason means credits stayed short for the whole admission
    /// deadline — retry after the hint; `rejected` means the batch exceeds a
    /// quota outright and retrying unchanged can never succeed.
    Overloaded {
        /// Site the work was addressed to.
        site: String,
        /// Shard that pushed back.
        shard: usize,
        /// `deferred` or `rejected`.
        reason: String,
        /// Suggested client back-off before retrying (ms); 0 for rejections.
        retry_after_ms: u64,
    },
}

/// One localization fix inside a `located-batch` response.
#[derive(Debug, Clone)]
pub struct Fix {
    /// Best-matching cell.
    pub cell: usize,
    /// Estimated x (m).
    pub x: f64,
    /// Estimated y (m).
    pub y: f64,
    /// Fingerprint distance of the best match (dB).
    pub distance_db: f64,
}

/// One site's identity row in `list-sites`.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// Site name.
    pub site: String,
    /// Link count.
    pub links: usize,
    /// Cell count.
    pub cells: usize,
    /// Current snapshot version (increments on every refresh).
    pub version: u64,
}

/// Aggregated server statistics.
#[derive(Debug, Clone)]
pub struct StatsReport {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Connections closed because the read timeout elapsed.
    pub conn_timeouts: u64,
    /// Connections closed by a transport error (reset, broken pipe, ...).
    pub conn_resets: u64,
    /// Connection handlers that panicked (isolated; the worker survived).
    pub conn_panics: u64,
    /// Frames (or lines) rejected for exceeding the size cap.
    pub wire_frame_too_large: u64,
    /// v2 frames rejected for an unknown version byte (fatal per connection).
    pub wire_bad_magic: u64,
    /// v2 frames whose payload failed its CRC32 check.
    pub wire_checksum_mismatch: u64,
    /// Messages rejected for invalid UTF-8 (fatal per connection).
    pub wire_bad_utf8: u64,
    /// Messages that framed correctly but failed to decode.
    pub wire_malformed: u64,
    /// Per-endpoint request counters and latency quantiles.
    pub endpoints: Vec<EndpointStats>,
    /// Per-site health.
    pub sites: Vec<SiteStats>,
    /// Per-shard admission/queue accounting, shard-ordered.
    pub shards: Vec<ShardStats>,
}

/// Admission-control and queue accounting for one worker shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index on the ring.
    pub shard: usize,
    /// Sites this shard owns.
    pub sites: usize,
    /// Samples currently holding ingest credits on this shard.
    pub queue_depth_samples: u64,
    /// Ingest batches offered to the gate.
    pub offered_batches: u64,
    /// Ingest samples offered to the gate.
    pub offered_samples: u64,
    /// Batches admitted (credits granted).
    pub admitted_batches: u64,
    /// Samples admitted.
    pub admitted_samples: u64,
    /// Batches deferred at the admission deadline.
    pub deferred_batches: u64,
    /// Samples deferred.
    pub deferred_samples: u64,
    /// Batches rejected outright (over quota).
    pub rejected_batches: u64,
    /// Samples rejected.
    pub rejected_samples: u64,
}

/// Counters and latency for one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointStats {
    /// Endpoint name (`locate`, `refresh`, ...).
    pub endpoint: String,
    /// Requests served (including failures).
    pub requests: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Median service latency (µs, histogram upper bound).
    pub p50_us: u64,
    /// 95th-percentile service latency (µs, histogram upper bound).
    pub p95_us: u64,
    /// 99th-percentile service latency (µs, histogram upper bound).
    pub p99_us: u64,
    /// Largest observed service latency (µs).
    pub max_us: u64,
}

/// Health row for one site.
#[derive(Debug, Clone)]
pub struct SiteStats {
    /// Site name.
    pub site: String,
    /// Current snapshot version.
    pub version: u64,
    /// Deployment day of the snapshot's last refresh (or calibration).
    pub refreshed_day: f64,
    /// Whether un-applied reference measurements are pending.
    pub pending_refs: bool,
    /// Latest drift estimate from the monitor (dB), if any check ran.
    pub estimated_error_db: Option<f64>,
    /// Spot checks performed by the maintenance loop.
    pub maintenance_checks: u64,
    /// Refreshes triggered automatically by the maintenance loop.
    pub auto_refreshes: u64,
    /// Refreshes the reconstruction guard rejected and rolled back.
    pub refresh_rejections: u64,
    /// Why the most recent refresh was rejected, if any.
    pub last_reject_reason: Option<String>,
    /// Consecutive rejections/panics since the last committed refresh.
    pub consecutive_failures: u32,
    /// Whether the site is quarantined (read-only, maintenance suspended).
    pub quarantined: bool,
    /// Maintenance ticks that panicked (isolated by the scheduler).
    pub tick_panics: u64,
    /// Snapshot saves that failed (persistence is best-effort).
    pub persist_failures: u64,
    /// Live tracking streams.
    pub active_trackers: usize,
    /// Cumulative ingestion-pipeline counters (samples, drops, link health).
    pub ingest: IngestStats,
    /// The live ingestion stream clock (s); 0 until the first sample lands.
    pub stream_clock_s: f64,
    /// Reference-cell capture windows currently accumulating samples.
    pub active_ref_captures: usize,
    /// Cumulative link-measurements the measurement planner scheduled
    /// (equal to the full-survey cost when no planner is attached).
    pub planned_cost: u64,
    /// Cumulative link-measurements actually delivered by surveys.
    pub actual_cost: u64,
    /// Cumulative link-measurements a full survey would have cost over the
    /// same refresh cycles — the savings baseline.
    pub full_survey_cost: u64,
    /// Active measurement-planning policy, if any.
    pub plan_policy: Option<String>,
    /// Worker shard owning this site (0 in unsharded deployments).
    pub shard: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::v1;

    #[test]
    fn wire_format_is_stable_kebab_case() {
        let mut line = Vec::new();
        v1::encode_request(&Request::ListSites, &mut line);
        assert_eq!(String::from_utf8(line).unwrap(), r#"{"cmd":"list-sites"}"#);
        let mut line = Vec::new();
        v1::encode_response(&Response::Pong, &mut line);
        assert_eq!(String::from_utf8(line).unwrap(), r#"{"reply":"pong"}"#);
        let parsed = v1::decode_request(r#"{"cmd":"locate","site":"a","y":[-1.0]}"#).unwrap();
        assert!(matches!(parsed, Request::Locate { .. }));
    }

    #[test]
    fn metrics_keys_are_the_wire_command_names() {
        for req in [Request::ListSites, Request::Stats, Request::Ping, Request::Shutdown] {
            let mut line = Vec::new();
            v1::encode_request(&req, &mut line);
            let want = format!(r#"{{"cmd":"{}"}}"#, req.endpoint().name());
            assert_eq!(String::from_utf8(line).unwrap(), want);
        }
    }
}
