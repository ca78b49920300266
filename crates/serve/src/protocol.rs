//! The `Request`/`Response` message types shared by both wire protocols.
//!
//! The types here are pure data; the transport lives in [`crate::wire`]. The
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
//! Each type below is declared through [`taf_wire::schema!`], which
//! generates both protocols' codecs from the declaration, so a field is
//! named once. v1 names are kebab-case. Binary tags are append-only: a new
//! message kind takes the next free number, and a removed kind retires its
//! tag and its v1 name instead of freeing them for reuse. Retired so far:
//! request tags 8 `track` and 9 `detect`, and response tags 9 `tracked` and
//! 10 `detected`. A retired request decodes as an unknown variant, so it
//! gets an `error` reply on a connection that keeps serving. The committed
//! corpus in `tests/corpus/` pins the bytes of every variant in both
//! protocols.

use crate::maintenance::MaintenancePolicy;
use taf_linalg::Matrix;
use taf_wire::schema;
use tafloc_core::system::SystemSnapshot;
use tafloc_ingest::{BatchReport, IngestStats, LinkSample};

/// Hard cap on one wire line (16 MiB) — a full `SystemSnapshot` for the
/// paper-scale site is well under this; anything larger is a protocol abuse.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

schema! {
    /// A client request, one JSON object per line, tagged by `cmd`.
    #[derive(Debug, Clone)]
    pub enum Request: tag "cmd" {
        /// Register a new site from a calibrated system snapshot.
        AddSite = 1 "add-site" {
            /// Site name (registry key).
            site: String,
            /// The calibrated system state to serve (boxed: this variant is far
            /// larger than every other request).
            snapshot: Box<SystemSnapshot>,
            /// Deployment day the snapshot corresponds to (drift-clock origin).
            day: f64 = 0.0,
            /// Maintenance policy override; server default when omitted.
            policy: Option<MaintenancePolicy> = None,
        },
        /// Unregister a site and stop its maintenance thread. With `--data-dir`
        /// it also deletes the site's snapshot generations and journal segments,
        /// so a restart does not bring it back and a new site of the same name
        /// starts from its own generation 0.
        RemoveSite = 2 "remove-site" {
            /// Site name.
            site: String,
        },
        /// List registered sites.
        ListSites = 3 "list-sites",
        /// Localize one live RSS vector.
        Locate = 4 "locate" {
            /// Site name.
            site: String,
            /// Averaged per-link RSS (length = site's link count).
            y: Vec<f64>,
        },
        /// Localize from the site's live ingestion window: assemble the current
        /// per-link aggregates into a fingerprint vector and match it.
        LocateStream = 5 "locate-stream" {
            /// Site name.
            site: String,
        },
        /// Localize many RSS vectors in one round trip over one snapshot.
        LocateBatch = 6 "locate-batch" {
            /// Site name.
            site: String,
            /// One averaged per-link RSS vector per fix wanted.
            ys: Vec<Vec<f64>>,
        },
        /// Push raw timestamped link samples into the site's ingestion pipeline.
        Ingest = 7 "ingest" {
            /// Site name.
            site: String,
            /// When set, samples feed the capture window for this reference cell
            /// (for maintenance spot checks) instead of the live window.
            ref_cell: Option<usize> = None,
            /// Deployment day the samples were taken (used for reference
            /// captures; ignored for live traffic).
            day: f64 = 0.0,
            /// The raw samples, in any order.
            samples: Vec<LinkSample>,
        },
        /// Ingest freshly measured reference columns (the cheap survey).
        MeasureRefs = 10 "measure-refs" {
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
        Refresh = 11 "refresh" {
            /// Site name.
            site: String,
        },
        /// Per-endpoint counters/latency and per-site health.
        Stats = 12 "stats",
        /// Liveness probe.
        Ping = 13 "ping",
        /// Graceful shutdown: drain in-flight connections, then exit.
        Shutdown = 14 "shutdown",
    }
}

schema! {
    /// A server response, one JSON object per line, tagged by `reply`.
    #[derive(Debug, Clone)]
    pub enum Response: tag "reply" {
        /// The request failed; the connection stays usable.
        Error = 1 "error" {
            /// Human-readable failure description.
            message: String,
        },
        /// Site registered and serving.
        SiteAdded = 2 "site-added" {
            /// Site name.
            site: String,
            /// Link count.
            links: usize,
            /// Cell count.
            cells: usize,
        },
        /// Site removed.
        SiteRemoved = 3 "site-removed" {
            /// Site name.
            site: String,
        },
        /// Registered sites.
        Sites = 4 "sites" {
            /// One entry per site.
            sites: Vec<SiteInfo>,
        },
        /// Localization fix.
        Located = 5 "located" {
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
        StreamLocated = 6 "stream-located" {
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
        LocatedBatch = 7 "located-batch" {
            /// Fixes, in input order.
            fixes: Vec<Fix>,
            /// Snapshot version that served the whole batch.
            version: u64,
        },
        /// Ingestion outcome for one sample batch.
        Ingested = 8 "ingested" {
            /// Per-batch accept/drop accounting.
            report: BatchReport,
        },
        /// Reference measurements accepted; the monitor's verdict on them.
        RefsAccepted = 11 "refs-accepted" {
            /// `healthy`, `update-recommended`, or `cooldown`.
            recommendation: String,
            /// Estimated whole-database drift (dB).
            estimated_error_db: f64,
        },
        /// Snapshot refreshed (LoLi-IR ran and the swap happened).
        Refreshed = 12 "refreshed" {
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
        Stats = 13 "stats" {
            /// The report.
            report: StatsReport,
        },
        /// Liveness answer.
        Pong = 14 "pong",
        /// Shutdown acknowledged; the server is draining.
        ShuttingDown = 15 "shutting-down",
        /// Admission control pushed back: the batch was **not** ingested. A
        /// `deferred` reason means credits stayed short for the whole admission
        /// deadline — retry after the hint; `rejected` means the batch exceeds a
        /// quota outright and retrying unchanged can never succeed.
        Overloaded = 16 "overloaded" {
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
}

schema! {
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
}

schema! {
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
}

schema! {
    /// Aggregated server statistics.
    #[derive(Debug, Clone)]
    pub struct StatsReport {
        /// Seconds since the server started.
        pub uptime_s: f64,
        /// Connections closed because the read timeout elapsed.
        pub conn_timeouts: u64 = 0,
        /// Connections closed by a transport error (reset, broken pipe, ...).
        pub conn_resets: u64 = 0,
        /// Connection handlers that panicked (isolated; the worker survived).
        pub conn_panics: u64 = 0,
        /// Frames (or lines) rejected for exceeding the size cap.
        pub wire_frame_too_large: u64 = 0,
        /// v2 frames rejected for an unknown version byte (fatal per connection).
        pub wire_bad_magic: u64 = 0,
        /// v2 frames whose payload failed its CRC32 check.
        pub wire_checksum_mismatch: u64 = 0,
        /// Messages rejected for invalid UTF-8 (fatal per connection).
        pub wire_bad_utf8: u64 = 0,
        /// Messages that framed correctly but failed to decode.
        pub wire_malformed: u64 = 0,
        /// Per-endpoint request counters and latency quantiles.
        pub endpoints: Vec<EndpointStats>,
        /// Per-site health.
        pub sites: Vec<SiteStats>,
        /// Per-shard admission/queue accounting, shard-ordered.
        pub shards: Vec<ShardStats> = Vec::new(),
    }
}

schema! {
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
}

schema! {
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
}

schema! {
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
        pub refresh_rejections: u64 = 0,
        /// Why the most recent refresh was rejected, if any.
        pub last_reject_reason: Option<String> = None,
        /// Consecutive rejections/panics since the last committed refresh.
        pub consecutive_failures: u32 = 0,
        /// Whether the site is quarantined (read-only, maintenance suspended).
        pub quarantined: bool = false,
        /// Maintenance ticks that panicked (isolated by the scheduler).
        pub tick_panics: u64 = 0,
        /// Snapshot saves that failed (persistence is best-effort).
        pub persist_failures: u64 = 0,
        /// Cumulative ingestion-pipeline counters (samples, drops, link health).
        pub ingest: IngestStats,
        /// The live ingestion stream clock (s); 0 until the first sample lands.
        pub stream_clock_s: f64,
        /// Reference-cell capture windows currently accumulating samples.
        pub active_ref_captures: usize,
        /// Cumulative link-measurements the measurement planner scheduled
        /// (equal to the full-survey cost when no planner is attached).
        pub planned_cost: u64 = 0,
        /// Cumulative link-measurements actually delivered by surveys.
        pub actual_cost: u64 = 0,
        /// Cumulative link-measurements a full survey would have cost over the
        /// same refresh cycles — the savings baseline.
        pub full_survey_cost: u64 = 0,
        /// Active measurement-planning policy, if any.
        pub plan_policy: Option<String> = None,
        /// Worker shard owning this site (0 in unsharded deployments).
        pub shard: usize = 0,
    }
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

    /// The v1 name `VARIANTS` gives `request`'s binary tag.
    fn listed_name(request: &Request) -> &'static str {
        let listed = Request::VARIANTS.iter().find(|&&(tag, _)| tag == request.tag());
        listed.expect("every tag is listed").1
    }

    #[test]
    fn metrics_keys_are_the_wire_command_names() {
        for req in [Request::ListSites, Request::Stats, Request::Ping, Request::Shutdown] {
            let mut line = Vec::new();
            v1::encode_request(&req, &mut line);
            let want = format!(r#"{{"cmd":"{}"}}"#, listed_name(&req));
            assert_eq!(String::from_utf8(line).unwrap(), want);
            let mut e = taf_wire::Enc::new();
            taf_wire::Codec::encode(&req, &mut e);
            assert_eq!(e.buf[0], req.tag(), "{req:?}");
        }
    }

    #[test]
    fn every_corpus_request_is_metered_under_its_wire_command() {
        let corpus = include_str!("../tests/corpus/requests.v1.ndjson");
        let mut seen = std::collections::BTreeSet::new();
        for line in corpus.lines().filter(|l| !l.trim().is_empty()) {
            let req = v1::decode_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let cmd = taf_wire::json::parse(line).unwrap();
            let cmd = cmd.get("cmd").and_then(|c| c.as_str()).unwrap().to_string();
            assert_eq!(listed_name(&req), cmd, "{line}");
            seen.insert(req.tag());
        }
        // The corpus holds every request variant, so this checks them all.
        assert_eq!(seen.len(), Request::VARIANTS.len(), "{seen:?}");
    }

    #[test]
    fn retired_tags_and_names_stay_unused() {
        let retired_requests = [(8, "track"), (9, "detect")];
        let retired_responses = [(9, "tracked"), (10, "detected")];
        for (variants, retired) in
            [(Request::VARIANTS, retired_requests), (Response::VARIANTS, retired_responses)]
        {
            for (tag, name) in retired {
                for &(t, n) in variants {
                    assert!(t != tag && n != name, "({t}, {n}) reuses retired ({tag}, {name})");
                }
            }
        }
    }
}
