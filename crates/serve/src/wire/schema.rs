//! The message schema: every field of every `Request`, `Response` and
//! maintenance-policy layout, named once for both protocols and the snapshot
//! store (see [`taf_wire::schema`] for what the declarations generate).
//!
//! v1 names are kebab-case. Binary tags are append-only: a new message kind
//! takes the next free number, and a removed kind retires its tag instead of
//! freeing it for reuse. `tests/corpus/` pins the bytes of every variant in
//! both protocols.

use crate::maintenance::MaintenancePolicy;
use crate::protocol::{
    EndpointStats, Fix, Request, Response, ShardStats, SiteInfo, SiteStats, StatsReport,
};
use taf_linalg::Matrix;
use taf_wire::schema;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::system::{ReconstructionGuard, SystemSnapshot};
use tafloc_ingest::{BatchReport, IngestStats, LinkSample};

schema! {
    enum Request: tag "cmd" {
        AddSite = 1 "add-site" {
            site: String,
            snapshot: Box<SystemSnapshot>,
            day: f64 = 0.0,
            policy: Option<MaintenancePolicy> = None,
        },
        RemoveSite = 2 "remove-site" { site: String },
        ListSites = 3 "list-sites",
        Locate = 4 "locate" { site: String, y: Vec<f64> },
        LocateStream = 5 "locate-stream" { site: String },
        LocateBatch = 6 "locate-batch" { site: String, ys: Vec<Vec<f64>> },
        Ingest = 7 "ingest" {
            site: String,
            ref_cell: Option<usize> = None,
            day: f64 = 0.0,
            samples: Vec<LinkSample>,
        },
        Track = 8 "track" { site: String, stream: String, y: Vec<f64>, dt_s: f64 },
        Detect = 9 "detect" { site: String, stream: String, y: Vec<f64> },
        MeasureRefs = 10 "measure-refs" { site: String, day: f64, columns: Matrix, empty: Vec<f64> },
        Refresh = 11 "refresh" { site: String },
        Stats = 12 "stats",
        Ping = 13 "ping",
        Shutdown = 14 "shutdown",
    }
}

schema! {
    enum Response: tag "reply" {
        Error = 1 "error" { message: String },
        SiteAdded = 2 "site-added" { site: String, links: usize, cells: usize },
        SiteRemoved = 3 "site-removed" { site: String },
        Sites = 4 "sites" { sites: Vec<SiteInfo> },
        Located = 5 "located" { cell: usize, x: f64, y: f64, distance_db: f64, version: u64 },
        StreamLocated = 6 "stream-located" {
            cell: usize,
            x: f64,
            y: f64,
            distance_db: f64,
            version: u64,
            missing_links: Vec<usize>,
            stale_links: Vec<usize>,
            stream_t_s: f64,
            window_samples: usize,
        },
        LocatedBatch = 7 "located-batch" { fixes: Vec<Fix>, version: u64 },
        Ingested = 8 "ingested" { report: BatchReport },
        Tracked = 9 "tracked" { x: f64, y: f64, effective_sample_size: f64 },
        Detected = 10 "detected" { present: bool, detail: String },
        RefsAccepted = 11 "refs-accepted" { recommendation: String, estimated_error_db: f64 },
        Refreshed = 12 "refreshed" {
            iterations: usize,
            converged: bool,
            mean_abs_change_db: f64,
            version: u64,
        },
        Stats = 13 "stats" { report: StatsReport },
        Pong = 14 "pong",
        ShuttingDown = 15 "shutting-down",
        Overloaded = 16 "overloaded" {
            site: String,
            shard: usize,
            reason: String,
            retry_after_ms: u64,
        },
    }
}

schema! { struct Fix { cell: usize, x: f64, y: f64, distance_db: f64 } }

schema! { struct SiteInfo { site: String, links: usize, cells: usize, version: u64 } }

schema! {
    struct StatsReport {
        uptime_s: f64,
        conn_timeouts: u64 = 0,
        conn_resets: u64 = 0,
        conn_panics: u64 = 0,
        wire_frame_too_large: u64 = 0,
        wire_bad_magic: u64 = 0,
        wire_checksum_mismatch: u64 = 0,
        wire_bad_utf8: u64 = 0,
        wire_malformed: u64 = 0,
        endpoints: Vec<EndpointStats>,
        sites: Vec<SiteStats>,
        shards: Vec<ShardStats> = Vec::new(),
    }
}

schema! {
    struct ShardStats {
        shard: usize,
        sites: usize,
        queue_depth_samples: u64,
        offered_batches: u64,
        offered_samples: u64,
        admitted_batches: u64,
        admitted_samples: u64,
        deferred_batches: u64,
        deferred_samples: u64,
        rejected_batches: u64,
        rejected_samples: u64,
    }
}

schema! {
    struct EndpointStats {
        endpoint: String,
        requests: u64,
        errors: u64,
        p50_us: u64,
        p95_us: u64,
        p99_us: u64,
        max_us: u64,
    }
}

schema! {
    struct SiteStats {
        site: String,
        version: u64,
        refreshed_day: f64,
        pending_refs: bool,
        estimated_error_db: Option<f64>,
        maintenance_checks: u64,
        auto_refreshes: u64,
        refresh_rejections: u64 = 0,
        last_reject_reason: Option<String> = None,
        consecutive_failures: u32 = 0,
        quarantined: bool = false,
        tick_panics: u64 = 0,
        persist_failures: u64 = 0,
        active_trackers: usize,
        ingest: IngestStats,
        stream_clock_s: f64,
        active_ref_captures: usize,
        planned_cost: u64 = 0,
        actual_cost: u64 = 0,
        full_survey_cost: u64 = 0,
        plan_policy: Option<String> = None,
        shard: usize = 0,
    }
}

// The snapshot store embeds this binary layout in every `.snap` payload.
schema! {
    struct MaintenancePolicy: default {
        interval_ms: u64,
        auto_refresh: bool,
        breach_streak: u32,
        monitor_cells: usize,
        manual_tick: bool,
        monitor: MonitorConfig,
        guard: ReconstructionGuard,
        quarantine_after: u32,
        quarantine_cooldown_ticks: u32,
        backoff_cap: u32,
        debug_panic_ticks: u32,
    }
}
