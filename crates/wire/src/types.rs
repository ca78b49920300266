//! Domain-type codecs: every TafLoc type that crosses the wire or the disk,
//! in both directions for both protocols.
//!
//! * `json_write_*` / `json_read_*` — v1 JSON, byte-compatible with the
//!   serde-derived frames: field order is declaration order, enums follow
//!   serde's externally-tagged convention (`"QrPivot"`,
//!   `{"Knn":{"k":3}}`), `#[serde(default)]` fields decode leniently.
//! * `enc_*` / `dec_*` — v2 binary over [`crate::codec`], the same layout
//!   the `taflocd` snapshot store persists (the store delegates here, so
//!   wire and disk cannot drift apart).
//!
//! Decoders validate what the constructors would otherwise `panic` on
//! (grid shapes, matrix dimensions): a wire decoder must reject hostile
//! data, never abort on it.

use crate::codec::{Dec, Enc};
use crate::error::{Result, WireError};
use crate::json::{self, JsonValue, JsonWriter};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanEntry, PlanPolicy, SurveyRecord};
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::{LoliIrConfig, WarmState};
use tafloc_core::matcher::MatchMethod;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::reference::ReferenceStrategy;
use tafloc_core::system::{ReconstructionGuard, SystemSnapshot, TafLocConfig, ZRefreshPolicy};
use tafloc_core::LrrModel;
use tafloc_ingest::{Aggregator, BatchReport, IngestConfig, IngestStats, LinkSample};

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

/// Writes a matrix as `{"rows":r,"cols":c,"data":[...]}` (derive layout).
pub fn json_write_matrix(w: &mut JsonWriter<'_>, m: &Matrix) {
    w.begin_obj();
    w.key("rows");
    w.usize_val(m.rows());
    w.key("cols");
    w.usize_val(m.cols());
    w.key("data");
    w.f64s_val(m.as_slice());
    w.end_obj();
}

/// Reads a matrix, validating `rows*cols == data.len()`.
pub fn json_read_matrix(v: &JsonValue, ctx: &str) -> Result<Matrix> {
    let rows = json::get_usize(json::field(v, "rows", ctx)?, ctx)?;
    let cols = json::get_usize(json::field(v, "cols", ctx)?, ctx)?;
    let data = json::get_f64s(json::field(v, "data", ctx)?, ctx)?;
    Matrix::from_vec(rows, cols, data).map_err(|e| WireError::Malformed(format!("{ctx}: {e}")))
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

fn json_write_point(w: &mut JsonWriter<'_>, p: Point) {
    w.begin_obj();
    w.key("x");
    w.f64_val(p.x);
    w.key("y");
    w.f64_val(p.y);
    w.end_obj();
}

fn json_read_point(v: &JsonValue, ctx: &str) -> Result<Point> {
    let x = json::get_f64(json::field(v, "x", ctx)?, ctx)?;
    let y = json::get_f64(json::field(v, "y", ctx)?, ctx)?;
    Ok(Point::new(x, y))
}

// ---------------------------------------------------------------------------
// Enums (externally tagged, serde convention)
// ---------------------------------------------------------------------------

/// Writes a `ReferenceStrategy` (`"QrPivot"` / `{"Random":{"seed":n}}` / …).
pub fn json_write_ref_strategy(w: &mut JsonWriter<'_>, s: &ReferenceStrategy) {
    match s {
        ReferenceStrategy::QrPivot => w.str_val("QrPivot"),
        ReferenceStrategy::Random { seed } => {
            w.begin_obj();
            w.key("Random");
            w.begin_obj();
            w.key("seed");
            w.u64_val(*seed);
            w.end_obj();
            w.end_obj();
        }
        ReferenceStrategy::LeverageScore => w.str_val("LeverageScore"),
    }
}

/// Reads a `ReferenceStrategy` (variant name or single-key object).
pub fn json_read_ref_strategy(v: &JsonValue, ctx: &str) -> Result<ReferenceStrategy> {
    match v {
        JsonValue::Str(s) => match s.as_str() {
            "QrPivot" => Ok(ReferenceStrategy::QrPivot),
            "LeverageScore" => Ok(ReferenceStrategy::LeverageScore),
            other => Err(WireError::Malformed(format!("{ctx}: unknown variant `{other}`"))),
        },
        JsonValue::Obj(pairs) if pairs.len() == 1 => match pairs[0].0.as_str() {
            "QrPivot" => Ok(ReferenceStrategy::QrPivot),
            "LeverageScore" => Ok(ReferenceStrategy::LeverageScore),
            "Random" => {
                let seed = json::get_u64(json::field(&pairs[0].1, "seed", ctx)?, ctx)?;
                Ok(ReferenceStrategy::Random { seed })
            }
            other => Err(WireError::Malformed(format!("{ctx}: unknown variant `{other}`"))),
        },
        _ => Err(WireError::Malformed(format!("{ctx}: expected a variant"))),
    }
}

/// Writes a `MatchMethod`.
pub fn json_write_matcher(w: &mut JsonWriter<'_>, m: &MatchMethod) {
    match m {
        MatchMethod::NearestNeighbor => w.str_val("NearestNeighbor"),
        MatchMethod::Knn { k } => {
            w.begin_obj();
            w.key("Knn");
            w.begin_obj();
            w.key("k");
            w.usize_val(*k);
            w.end_obj();
            w.end_obj();
        }
        MatchMethod::Probabilistic { sigma_db } => {
            w.begin_obj();
            w.key("Probabilistic");
            w.begin_obj();
            w.key("sigma_db");
            w.f64_val(*sigma_db);
            w.end_obj();
            w.end_obj();
        }
    }
}

/// Reads a `MatchMethod`.
pub fn json_read_matcher(v: &JsonValue, ctx: &str) -> Result<MatchMethod> {
    match v {
        JsonValue::Str(s) => match s.as_str() {
            "NearestNeighbor" => Ok(MatchMethod::NearestNeighbor),
            other => Err(WireError::Malformed(format!("{ctx}: unknown variant `{other}`"))),
        },
        JsonValue::Obj(pairs) if pairs.len() == 1 => match pairs[0].0.as_str() {
            "NearestNeighbor" => Ok(MatchMethod::NearestNeighbor),
            "Knn" => {
                let k = json::get_usize(json::field(&pairs[0].1, "k", ctx)?, ctx)?;
                Ok(MatchMethod::Knn { k })
            }
            "Probabilistic" => {
                let sigma_db = json::get_f64(json::field(&pairs[0].1, "sigma_db", ctx)?, ctx)?;
                Ok(MatchMethod::Probabilistic { sigma_db })
            }
            other => Err(WireError::Malformed(format!("{ctx}: unknown variant `{other}`"))),
        },
        _ => Err(WireError::Malformed(format!("{ctx}: expected a variant"))),
    }
}

/// Writes a `ZRefreshPolicy` (`"Fixed"` / `"RefitAfterUpdate"`).
pub fn json_write_z_policy(w: &mut JsonWriter<'_>, p: &ZRefreshPolicy) {
    match p {
        ZRefreshPolicy::Fixed => w.str_val("Fixed"),
        ZRefreshPolicy::RefitAfterUpdate => w.str_val("RefitAfterUpdate"),
    }
}

/// Reads a `ZRefreshPolicy`.
pub fn json_read_z_policy(v: &JsonValue, ctx: &str) -> Result<ZRefreshPolicy> {
    match json::get_str(v, ctx)? {
        "Fixed" => Ok(ZRefreshPolicy::Fixed),
        "RefitAfterUpdate" => Ok(ZRefreshPolicy::RefitAfterUpdate),
        other => Err(WireError::Malformed(format!("{ctx}: unknown variant `{other}`"))),
    }
}

/// Writes an `Aggregator` (internally tagged: `{"kind":"median"}`).
pub fn json_write_aggregator(w: &mut JsonWriter<'_>, a: &Aggregator) {
    w.begin_obj();
    w.key("kind");
    match a {
        Aggregator::Median => w.str_val("median"),
        Aggregator::Ewma { alpha } => {
            w.str_val("ewma");
            w.key("alpha");
            w.f64_val(*alpha);
        }
    }
    w.end_obj();
}

/// Reads an `Aggregator`.
pub fn json_read_aggregator(v: &JsonValue, ctx: &str) -> Result<Aggregator> {
    let kind = json::get_str(
        v.get("kind").ok_or_else(|| {
            WireError::Malformed(format!("{ctx}: missing or non-string tag `kind`"))
        })?,
        ctx,
    )?;
    match kind {
        "median" => Ok(Aggregator::Median),
        "ewma" => {
            let alpha = json::get_f64(json::field(v, "alpha", ctx)?, ctx)?;
            Ok(Aggregator::Ewma { alpha })
        }
        other => Err(WireError::Malformed(format!("{ctx}: unknown variant `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Configs
// ---------------------------------------------------------------------------

/// Writes a `LoliIrConfig`.
pub fn json_write_loli(w: &mut JsonWriter<'_>, l: &LoliIrConfig) {
    w.begin_obj();
    w.key("rank");
    w.usize_val(l.rank);
    w.key("lambda");
    w.f64_val(l.lambda);
    w.key("mu");
    w.f64_val(l.mu);
    w.key("alpha");
    w.f64_val(l.alpha);
    w.key("beta");
    w.f64_val(l.beta);
    w.key("max_iters");
    w.usize_val(l.max_iters);
    w.key("tol");
    w.f64_val(l.tol);
    w.key("stall_iters");
    w.usize_val(l.stall_iters);
    w.key("accelerate");
    w.bool_val(l.accelerate);
    w.key("debug_bias_db");
    w.f64_val(l.debug_bias_db);
    w.end_obj();
}

/// Reads a `LoliIrConfig` (`debug_bias_db` defaults to 0, `stall_iters` to 1,
/// `accelerate` to false — payloads from before those knobs existed decode to
/// the same behavior they had then).
pub fn json_read_loli(v: &JsonValue, ctx: &str) -> Result<LoliIrConfig> {
    Ok(LoliIrConfig {
        rank: json::get_usize(json::field(v, "rank", ctx)?, ctx)?,
        lambda: json::get_f64(json::field(v, "lambda", ctx)?, ctx)?,
        mu: json::get_f64(json::field(v, "mu", ctx)?, ctx)?,
        alpha: json::get_f64(json::field(v, "alpha", ctx)?, ctx)?,
        beta: json::get_f64(json::field(v, "beta", ctx)?, ctx)?,
        max_iters: json::get_usize(json::field(v, "max_iters", ctx)?, ctx)?,
        tol: json::get_f64(json::field(v, "tol", ctx)?, ctx)?,
        debug_bias_db: match v.get("debug_bias_db") {
            Some(x) => json::get_f64(x, ctx)?,
            None => 0.0,
        },
        stall_iters: match v.get("stall_iters") {
            Some(x) => json::get_usize(x, ctx)?,
            None => 1,
        },
        accelerate: match v.get("accelerate") {
            Some(x) => json::get_bool(x, ctx)?,
            None => false,
        },
    })
}

/// Writes a `TafLocConfig`.
pub fn json_write_config(w: &mut JsonWriter<'_>, c: &TafLocConfig) {
    w.begin_obj();
    w.key("ref_count");
    w.usize_val(c.ref_count);
    w.key("ref_strategy");
    json_write_ref_strategy(w, &c.ref_strategy);
    w.key("lrr_lambda");
    w.f64_val(c.lrr_lambda);
    w.key("distortion_threshold_db");
    w.f64_val(c.distortion_threshold_db);
    w.key("link_graph_k");
    w.usize_val(c.link_graph_k);
    w.key("loli");
    json_write_loli(w, &c.loli);
    w.key("matcher");
    json_write_matcher(w, &c.matcher);
    w.key("consistency_gate");
    w.bool_val(c.consistency_gate);
    w.key("gate_hi_db");
    w.f64_val(c.gate_hi_db);
    w.key("gate_lo_db");
    w.f64_val(c.gate_lo_db);
    w.key("z_policy");
    json_write_z_policy(w, &c.z_policy);
    w.end_obj();
}

/// Reads a `TafLocConfig` (every field required, as in the derive).
pub fn json_read_config(v: &JsonValue, ctx: &str) -> Result<TafLocConfig> {
    Ok(TafLocConfig {
        ref_count: json::get_usize(json::field(v, "ref_count", ctx)?, ctx)?,
        ref_strategy: json_read_ref_strategy(json::field(v, "ref_strategy", ctx)?, ctx)?,
        lrr_lambda: json::get_f64(json::field(v, "lrr_lambda", ctx)?, ctx)?,
        distortion_threshold_db: json::get_f64(
            json::field(v, "distortion_threshold_db", ctx)?,
            ctx,
        )?,
        link_graph_k: json::get_usize(json::field(v, "link_graph_k", ctx)?, ctx)?,
        loli: json_read_loli(json::field(v, "loli", ctx)?, ctx)?,
        matcher: json_read_matcher(json::field(v, "matcher", ctx)?, ctx)?,
        consistency_gate: json::get_bool(json::field(v, "consistency_gate", ctx)?, ctx)?,
        gate_hi_db: json::get_f64(json::field(v, "gate_hi_db", ctx)?, ctx)?,
        gate_lo_db: json::get_f64(json::field(v, "gate_lo_db", ctx)?, ctx)?,
        z_policy: json_read_z_policy(json::field(v, "z_policy", ctx)?, ctx)?,
    })
}

/// Writes a `MonitorConfig`.
pub fn json_write_monitor_config(w: &mut JsonWriter<'_>, c: &MonitorConfig) {
    w.begin_obj();
    w.key("error_threshold_db");
    w.f64_val(c.error_threshold_db);
    w.key("min_interval_days");
    w.f64_val(c.min_interval_days);
    w.end_obj();
}

/// Reads a `MonitorConfig`.
pub fn json_read_monitor_config(v: &JsonValue, ctx: &str) -> Result<MonitorConfig> {
    Ok(MonitorConfig {
        error_threshold_db: json::get_f64(json::field(v, "error_threshold_db", ctx)?, ctx)?,
        min_interval_days: json::get_f64(json::field(v, "min_interval_days", ctx)?, ctx)?,
    })
}

/// Writes a `ReconstructionGuard`.
pub fn json_write_guard(w: &mut JsonWriter<'_>, g: &ReconstructionGuard) {
    w.begin_obj();
    w.key("max_ref_rmse_db");
    w.f64_val(g.max_ref_rmse_db);
    w.key("max_mean_delta_db");
    w.f64_val(g.max_mean_delta_db);
    w.end_obj();
}

/// Reads a `ReconstructionGuard` (both fields have serde defaults).
pub fn json_read_guard(v: &JsonValue, ctx: &str) -> Result<ReconstructionGuard> {
    let dflt = ReconstructionGuard::default();
    Ok(ReconstructionGuard {
        max_ref_rmse_db: match v.get("max_ref_rmse_db") {
            Some(x) => json::get_f64(x, ctx)?,
            None => dflt.max_ref_rmse_db,
        },
        max_mean_delta_db: match v.get("max_mean_delta_db") {
            Some(x) => json::get_f64(x, ctx)?,
            None => dflt.max_mean_delta_db,
        },
    })
}

/// Writes an `IngestConfig`.
pub fn json_write_ingest_config(w: &mut JsonWriter<'_>, c: &IngestConfig) {
    w.begin_obj();
    w.key("window_capacity");
    w.usize_val(c.window_capacity);
    w.key("window_s");
    w.f64_val(c.window_s);
    w.key("min_samples");
    w.usize_val(c.min_samples);
    w.key("stale_after_s");
    w.f64_val(c.stale_after_s);
    w.key("hampel_k");
    w.f64_val(c.hampel_k);
    w.key("hampel_floor_db");
    w.f64_val(c.hampel_floor_db);
    w.key("aggregator");
    json_write_aggregator(w, &c.aggregator);
    w.end_obj();
}

/// Reads an `IngestConfig` (every field defaults, as in the derive).
pub fn json_read_ingest_config(v: &JsonValue, ctx: &str) -> Result<IngestConfig> {
    let dflt = IngestConfig::default();
    Ok(IngestConfig {
        window_capacity: match v.get("window_capacity") {
            Some(x) => json::get_usize(x, ctx)?,
            None => dflt.window_capacity,
        },
        window_s: match v.get("window_s") {
            Some(x) => json::get_f64(x, ctx)?,
            None => dflt.window_s,
        },
        min_samples: match v.get("min_samples") {
            Some(x) => json::get_usize(x, ctx)?,
            None => dflt.min_samples,
        },
        stale_after_s: match v.get("stale_after_s") {
            Some(x) => json::get_f64(x, ctx)?,
            None => dflt.stale_after_s,
        },
        hampel_k: match v.get("hampel_k") {
            Some(x) => json::get_f64(x, ctx)?,
            None => dflt.hampel_k,
        },
        hampel_floor_db: match v.get("hampel_floor_db") {
            Some(x) => json::get_f64(x, ctx)?,
            None => dflt.hampel_floor_db,
        },
        aggregator: match v.get("aggregator") {
            Some(x) => json_read_aggregator(x, ctx)?,
            None => Aggregator::default(),
        },
    })
}

// ---------------------------------------------------------------------------
// Fingerprint database / LRR / snapshot
// ---------------------------------------------------------------------------

/// Writes a `FingerprintDb` (derive layout: `rss`, `links`, `grid`).
pub fn json_write_db(w: &mut JsonWriter<'_>, db: &FingerprintDb) {
    w.begin_obj();
    w.key("rss");
    json_write_matrix(w, db.rss());
    w.key("links");
    w.begin_arr();
    for s in db.links() {
        w.begin_obj();
        w.key("a");
        json_write_point(w, s.a);
        w.key("b");
        json_write_point(w, s.b);
        w.end_obj();
    }
    w.end_arr();
    let grid = db.grid();
    w.key("grid");
    w.begin_obj();
    w.key("origin");
    json_write_point(w, grid.origin());
    w.key("cell_size");
    w.f64_val(grid.cell_size());
    w.key("nx");
    w.usize_val(grid.nx());
    w.key("ny");
    w.usize_val(grid.ny());
    w.end_obj();
    w.end_obj();
}

/// Reads a `FingerprintDb`, validating grid and matrix consistency (the
/// constructors panic on bad shapes; a decoder must error instead).
pub fn json_read_db(v: &JsonValue, ctx: &str) -> Result<FingerprintDb> {
    let rss = json_read_matrix(json::field(v, "rss", ctx)?, ctx)?;
    let links_v = json::get_arr(json::field(v, "links", ctx)?, ctx)?;
    let mut links = Vec::with_capacity(links_v.len());
    for lv in links_v {
        let a = json_read_point(json::field(lv, "a", ctx)?, ctx)?;
        let b = json_read_point(json::field(lv, "b", ctx)?, ctx)?;
        links.push(Segment::new(a, b));
    }
    let gv = json::field(v, "grid", ctx)?;
    let origin = json_read_point(json::field(gv, "origin", ctx)?, ctx)?;
    let cell_size = json::get_f64(json::field(gv, "cell_size", ctx)?, ctx)?;
    let nx = json::get_usize(json::field(gv, "nx", ctx)?, ctx)?;
    let ny = json::get_usize(json::field(gv, "ny", ctx)?, ctx)?;
    if cell_size <= 0.0 || !cell_size.is_finite() || nx == 0 || ny == 0 {
        return Err(WireError::Malformed(format!(
            "{ctx}: invalid grid: cell_size {cell_size}, {nx}x{ny} cells"
        )));
    }
    let grid = FloorGrid::new(origin, cell_size, nx, ny);
    FingerprintDb::new(rss, links, grid).map_err(|e| WireError::Malformed(format!("{ctx}: {e}")))
}

/// Writes an `LrrModel` (derive layout: `ref_cells`, `z`, `lambda`).
pub fn json_write_lrr(w: &mut JsonWriter<'_>, lrr: &LrrModel) {
    w.begin_obj();
    w.key("ref_cells");
    w.usizes_val(lrr.ref_cells());
    w.key("z");
    json_write_matrix(w, lrr.z());
    w.key("lambda");
    w.f64_val(lrr.lambda());
    w.end_obj();
}

/// Reads an `LrrModel` through `from_parts` (shape-validated).
pub fn json_read_lrr(v: &JsonValue, ctx: &str) -> Result<LrrModel> {
    let ref_cells = json::get_usizes(json::field(v, "ref_cells", ctx)?, ctx)?;
    let z = json_read_matrix(json::field(v, "z", ctx)?, ctx)?;
    let lambda = json::get_f64(json::field(v, "lambda", ctx)?, ctx)?;
    LrrModel::from_parts(ref_cells, z, lambda)
        .map_err(|e| WireError::Malformed(format!("{ctx}: {e}")))
}

/// Writes a full `SystemSnapshot`.
pub fn json_write_snapshot(w: &mut JsonWriter<'_>, s: &SystemSnapshot) {
    w.begin_obj();
    w.key("config");
    json_write_config(w, &s.config);
    w.key("db");
    json_write_db(w, &s.db);
    w.key("ref_cells");
    w.usizes_val(&s.ref_cells);
    w.key("lrr");
    json_write_lrr(w, &s.lrr);
    w.key("empty_rss");
    w.f64s_val(&s.empty_rss);
    w.end_obj();
}

/// Reads a full `SystemSnapshot`.
pub fn json_read_snapshot(v: &JsonValue, ctx: &str) -> Result<SystemSnapshot> {
    Ok(SystemSnapshot {
        config: json_read_config(json::field(v, "config", ctx)?, ctx)?,
        db: json_read_db(json::field(v, "db", ctx)?, ctx)?,
        ref_cells: json::get_usizes(json::field(v, "ref_cells", ctx)?, ctx)?,
        lrr: json_read_lrr(json::field(v, "lrr", ctx)?, ctx)?,
        empty_rss: json::get_f64s(json::field(v, "empty_rss", ctx)?, ctx)?,
    })
}

// ---------------------------------------------------------------------------
// Ingest wire types
// ---------------------------------------------------------------------------

/// Writes a `LinkSample`.
pub fn json_write_link_sample(w: &mut JsonWriter<'_>, s: &LinkSample) {
    w.begin_obj();
    w.key("link");
    w.usize_val(s.link);
    w.key("t_s");
    w.f64_val(s.t_s);
    w.key("rss_dbm");
    w.f64_val(s.rss_dbm);
    w.end_obj();
}

/// Reads a `LinkSample`.
pub fn json_read_link_sample(v: &JsonValue, ctx: &str) -> Result<LinkSample> {
    Ok(LinkSample {
        link: json::get_usize(json::field(v, "link", ctx)?, ctx)?,
        t_s: json::get_f64(json::field(v, "t_s", ctx)?, ctx)?,
        rss_dbm: json::get_f64(json::field(v, "rss_dbm", ctx)?, ctx)?,
    })
}

/// Writes a `BatchReport`.
pub fn json_write_batch_report(w: &mut JsonWriter<'_>, r: &BatchReport) {
    w.begin_obj();
    w.key("accepted");
    w.u64_val(r.accepted);
    w.key("dropped_late");
    w.u64_val(r.dropped_late);
    w.key("dropped_unknown_link");
    w.u64_val(r.dropped_unknown_link);
    w.key("dropped_non_finite");
    w.u64_val(r.dropped_non_finite);
    w.end_obj();
}

/// Reads a `BatchReport`.
pub fn json_read_batch_report(v: &JsonValue, ctx: &str) -> Result<BatchReport> {
    Ok(BatchReport {
        accepted: json::get_u64(json::field(v, "accepted", ctx)?, ctx)?,
        dropped_late: json::get_u64(json::field(v, "dropped_late", ctx)?, ctx)?,
        dropped_unknown_link: json::get_u64(json::field(v, "dropped_unknown_link", ctx)?, ctx)?,
        dropped_non_finite: json::get_u64(json::field(v, "dropped_non_finite", ctx)?, ctx)?,
    })
}

/// Writes an `IngestStats`.
pub fn json_write_ingest_stats(w: &mut JsonWriter<'_>, s: &IngestStats) {
    w.begin_obj();
    w.key("accepted");
    w.u64_val(s.accepted);
    w.key("dropped_late");
    w.u64_val(s.dropped_late);
    w.key("dropped_unknown_link");
    w.u64_val(s.dropped_unknown_link);
    w.key("dropped_non_finite");
    w.u64_val(s.dropped_non_finite);
    w.key("dropped_queue_batches");
    w.u64_val(s.dropped_queue_batches);
    w.key("dropped_queue_samples");
    w.u64_val(s.dropped_queue_samples);
    w.key("rejected_outliers");
    w.u64_val(s.rejected_outliers);
    w.key("link_flaps");
    w.u64_val(s.link_flaps);
    w.key("live_links");
    w.usize_val(s.live_links);
    w.key("stale_links");
    w.usize_val(s.stale_links);
    w.key("dead_links");
    w.usize_val(s.dead_links);
    w.key("assemblies");
    w.u64_val(s.assemblies);
    w.end_obj();
}

/// Reads an `IngestStats`.
pub fn json_read_ingest_stats(v: &JsonValue, ctx: &str) -> Result<IngestStats> {
    Ok(IngestStats {
        accepted: json::get_u64(json::field(v, "accepted", ctx)?, ctx)?,
        dropped_late: json::get_u64(json::field(v, "dropped_late", ctx)?, ctx)?,
        dropped_unknown_link: json::get_u64(json::field(v, "dropped_unknown_link", ctx)?, ctx)?,
        dropped_non_finite: json::get_u64(json::field(v, "dropped_non_finite", ctx)?, ctx)?,
        dropped_queue_batches: json::get_u64(json::field(v, "dropped_queue_batches", ctx)?, ctx)?,
        dropped_queue_samples: json::get_u64(json::field(v, "dropped_queue_samples", ctx)?, ctx)?,
        rejected_outliers: json::get_u64(json::field(v, "rejected_outliers", ctx)?, ctx)?,
        link_flaps: json::get_u64(json::field(v, "link_flaps", ctx)?, ctx)?,
        live_links: json::get_usize(json::field(v, "live_links", ctx)?, ctx)?,
        stale_links: json::get_usize(json::field(v, "stale_links", ctx)?, ctx)?,
        dead_links: json::get_usize(json::field(v, "dead_links", ctx)?, ctx)?,
        assemblies: json::get_u64(json::field(v, "assemblies", ctx)?, ctx)?,
    })
}

// ---------------------------------------------------------------------------
// Binary (v2 / snapshot-store) codecs
// ---------------------------------------------------------------------------

/// Binary-encodes a `ReferenceStrategy`.
pub fn enc_ref_strategy(e: &mut Enc, s: &ReferenceStrategy) {
    match s {
        ReferenceStrategy::QrPivot => e.u8(0),
        ReferenceStrategy::Random { seed } => {
            e.u8(1);
            e.u64(*seed);
        }
        ReferenceStrategy::LeverageScore => e.u8(2),
    }
}

/// Binary-decodes a `ReferenceStrategy`.
pub fn dec_ref_strategy(d: &mut Dec<'_>) -> Result<ReferenceStrategy> {
    Ok(match d.u8()? {
        0 => ReferenceStrategy::QrPivot,
        1 => ReferenceStrategy::Random { seed: d.u64()? },
        2 => ReferenceStrategy::LeverageScore,
        v => return Err(WireError::Malformed(format!("unknown reference strategy tag {v}"))),
    })
}

/// Binary-encodes a `MatchMethod`.
pub fn enc_matcher(e: &mut Enc, m: &MatchMethod) {
    match m {
        MatchMethod::NearestNeighbor => e.u8(0),
        MatchMethod::Knn { k } => {
            e.u8(1);
            e.usize(*k);
        }
        MatchMethod::Probabilistic { sigma_db } => {
            e.u8(2);
            e.f64(*sigma_db);
        }
    }
}

/// Binary-decodes a `MatchMethod`.
pub fn dec_matcher(d: &mut Dec<'_>) -> Result<MatchMethod> {
    Ok(match d.u8()? {
        0 => MatchMethod::NearestNeighbor,
        1 => MatchMethod::Knn { k: d.usize()? },
        2 => MatchMethod::Probabilistic { sigma_db: d.f64()? },
        v => return Err(WireError::Malformed(format!("unknown matcher tag {v}"))),
    })
}

/// Binary-encodes a `LoliIrConfig`.
pub fn enc_loli(e: &mut Enc, l: &LoliIrConfig) {
    e.usize(l.rank);
    e.f64(l.lambda);
    e.f64(l.mu);
    e.f64(l.alpha);
    e.f64(l.beta);
    e.usize(l.max_iters);
    e.f64(l.tol);
    e.usize(l.stall_iters);
    e.bool(l.accelerate);
    e.f64(l.debug_bias_db);
}

/// Binary-decodes a `LoliIrConfig`.
pub fn dec_loli(d: &mut Dec<'_>) -> Result<LoliIrConfig> {
    Ok(LoliIrConfig {
        rank: d.usize()?,
        lambda: d.f64()?,
        mu: d.f64()?,
        alpha: d.f64()?,
        beta: d.f64()?,
        max_iters: d.usize()?,
        tol: d.f64()?,
        stall_iters: d.usize()?,
        accelerate: d.bool()?,
        debug_bias_db: d.f64()?,
    })
}

/// Binary-encodes a `TafLocConfig`.
pub fn enc_config(e: &mut Enc, c: &TafLocConfig) {
    e.usize(c.ref_count);
    enc_ref_strategy(e, &c.ref_strategy);
    e.f64(c.lrr_lambda);
    e.f64(c.distortion_threshold_db);
    e.usize(c.link_graph_k);
    enc_loli(e, &c.loli);
    enc_matcher(e, &c.matcher);
    e.bool(c.consistency_gate);
    e.f64(c.gate_hi_db);
    e.f64(c.gate_lo_db);
    e.u8(match c.z_policy {
        ZRefreshPolicy::Fixed => 0,
        ZRefreshPolicy::RefitAfterUpdate => 1,
    });
}

/// Binary-decodes a `TafLocConfig`.
pub fn dec_config(d: &mut Dec<'_>) -> Result<TafLocConfig> {
    Ok(TafLocConfig {
        ref_count: d.usize()?,
        ref_strategy: dec_ref_strategy(d)?,
        lrr_lambda: d.f64()?,
        distortion_threshold_db: d.f64()?,
        link_graph_k: d.usize()?,
        loli: dec_loli(d)?,
        matcher: dec_matcher(d)?,
        consistency_gate: d.bool()?,
        gate_hi_db: d.f64()?,
        gate_lo_db: d.f64()?,
        z_policy: match d.u8()? {
            0 => ZRefreshPolicy::Fixed,
            1 => ZRefreshPolicy::RefitAfterUpdate,
            v => return Err(WireError::Malformed(format!("unknown z-policy tag {v}"))),
        },
    })
}

/// Binary-encodes a `MonitorConfig`.
pub fn enc_monitor_config(e: &mut Enc, c: &MonitorConfig) {
    e.f64(c.error_threshold_db);
    e.f64(c.min_interval_days);
}

/// Binary-decodes a `MonitorConfig`.
pub fn dec_monitor_config(d: &mut Dec<'_>) -> Result<MonitorConfig> {
    Ok(MonitorConfig { error_threshold_db: d.f64()?, min_interval_days: d.f64()? })
}

/// Binary-encodes a `ReconstructionGuard`.
pub fn enc_guard(e: &mut Enc, g: &ReconstructionGuard) {
    e.f64(g.max_ref_rmse_db);
    e.f64(g.max_mean_delta_db);
}

/// Binary-decodes a `ReconstructionGuard`.
pub fn dec_guard(d: &mut Dec<'_>) -> Result<ReconstructionGuard> {
    Ok(ReconstructionGuard { max_ref_rmse_db: d.f64()?, max_mean_delta_db: d.f64()? })
}

/// Binary-encodes an `IngestConfig`.
pub fn enc_ingest_config(e: &mut Enc, c: &IngestConfig) {
    e.usize(c.window_capacity);
    e.f64(c.window_s);
    e.usize(c.min_samples);
    e.f64(c.stale_after_s);
    e.f64(c.hampel_k);
    e.f64(c.hampel_floor_db);
    match c.aggregator {
        Aggregator::Median => e.u8(0),
        Aggregator::Ewma { alpha } => {
            e.u8(1);
            e.f64(alpha);
        }
    }
}

/// Binary-decodes an `IngestConfig`.
pub fn dec_ingest_config(d: &mut Dec<'_>) -> Result<IngestConfig> {
    Ok(IngestConfig {
        window_capacity: d.usize()?,
        window_s: d.f64()?,
        min_samples: d.usize()?,
        stale_after_s: d.f64()?,
        hampel_k: d.f64()?,
        hampel_floor_db: d.f64()?,
        aggregator: match d.u8()? {
            0 => Aggregator::Median,
            1 => Aggregator::Ewma { alpha: d.f64()? },
            v => return Err(WireError::Malformed(format!("unknown aggregator tag {v}"))),
        },
    })
}

/// Binary-encodes a `FingerprintDb` (matrix-aware: the RSS grid goes out as
/// one shape-prefixed block, links as packed coordinate quads).
pub fn enc_db(e: &mut Enc, db: &FingerprintDb) {
    e.matrix(db.rss());
    e.usize(db.links().len());
    for s in db.links() {
        e.f64(s.a.x);
        e.f64(s.a.y);
        e.f64(s.b.x);
        e.f64(s.b.y);
    }
    let grid = db.grid();
    let origin = grid.origin();
    e.f64(origin.x);
    e.f64(origin.y);
    e.f64(grid.cell_size());
    e.usize(grid.nx());
    e.usize(grid.ny());
}

/// Binary-decodes a `FingerprintDb`, validating grid and matrix shapes.
pub fn dec_db(d: &mut Dec<'_>) -> Result<FingerprintDb> {
    let rss = d.matrix()?;
    let n_links = d.count()?;
    let mut links = Vec::with_capacity(n_links);
    for _ in 0..n_links {
        let a = Point::new(d.f64()?, d.f64()?);
        let b = Point::new(d.f64()?, d.f64()?);
        links.push(Segment::new(a, b));
    }
    let origin = Point::new(d.f64()?, d.f64()?);
    let cell_size = d.f64()?;
    let nx = d.usize()?;
    let ny = d.usize()?;
    // FloorGrid::new treats these as programming errors and panics; a decoder
    // must reject them as data errors instead.
    if cell_size <= 0.0 || !cell_size.is_finite() || nx == 0 || ny == 0 {
        return Err(WireError::Malformed(format!(
            "invalid grid: cell_size {cell_size}, {nx}x{ny} cells"
        )));
    }
    let grid = FloorGrid::new(origin, cell_size, nx, ny);
    FingerprintDb::new(rss, links, grid).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Binary-encodes a full `SystemSnapshot`. This exact field sequence is also
/// the snapshot store's on-disk layout — the store delegates here.
pub fn enc_snapshot(e: &mut Enc, s: &SystemSnapshot) {
    enc_config(e, &s.config);
    enc_db(e, &s.db);
    e.usizes(&s.ref_cells);
    e.usizes(s.lrr.ref_cells());
    e.matrix(s.lrr.z());
    e.f64(s.lrr.lambda());
    e.f64s(&s.empty_rss);
}

/// Binary-decodes a full `SystemSnapshot`.
pub fn dec_snapshot(d: &mut Dec<'_>) -> Result<SystemSnapshot> {
    let config = dec_config(d)?;
    let db = dec_db(d)?;
    let ref_cells = d.usizes()?;
    let lrr_cells = d.usizes()?;
    let z = d.matrix()?;
    let lambda = d.f64()?;
    let lrr = LrrModel::from_parts(lrr_cells, z, lambda)
        .map_err(|e| WireError::Malformed(e.to_string()))?;
    let empty_rss = d.f64s()?;
    Ok(SystemSnapshot { config, db, ref_cells, lrr, empty_rss })
}

/// Binary-encodes a `LinkSample`.
pub fn enc_link_sample(e: &mut Enc, s: &LinkSample) {
    e.usize(s.link);
    e.f64(s.t_s);
    e.f64(s.rss_dbm);
}

/// Binary-decodes a `LinkSample`.
pub fn dec_link_sample(d: &mut Dec<'_>) -> Result<LinkSample> {
    Ok(LinkSample { link: d.usize()?, t_s: d.f64()?, rss_dbm: d.f64()? })
}

/// Binary-encodes a `BatchReport`.
pub fn enc_batch_report(e: &mut Enc, r: &BatchReport) {
    e.u64(r.accepted);
    e.u64(r.dropped_late);
    e.u64(r.dropped_unknown_link);
    e.u64(r.dropped_non_finite);
}

/// Binary-decodes a `BatchReport`.
pub fn dec_batch_report(d: &mut Dec<'_>) -> Result<BatchReport> {
    Ok(BatchReport {
        accepted: d.u64()?,
        dropped_late: d.u64()?,
        dropped_unknown_link: d.u64()?,
        dropped_non_finite: d.u64()?,
    })
}

/// Binary-encodes an `IngestStats`.
pub fn enc_ingest_stats(e: &mut Enc, s: &IngestStats) {
    e.u64(s.accepted);
    e.u64(s.dropped_late);
    e.u64(s.dropped_unknown_link);
    e.u64(s.dropped_non_finite);
    e.u64(s.dropped_queue_batches);
    e.u64(s.dropped_queue_samples);
    e.u64(s.rejected_outliers);
    e.u64(s.link_flaps);
    e.usize(s.live_links);
    e.usize(s.stale_links);
    e.usize(s.dead_links);
    e.u64(s.assemblies);
}

/// Binary-decodes an `IngestStats`.
pub fn dec_ingest_stats(d: &mut Dec<'_>) -> Result<IngestStats> {
    Ok(IngestStats {
        accepted: d.u64()?,
        dropped_late: d.u64()?,
        dropped_unknown_link: d.u64()?,
        dropped_non_finite: d.u64()?,
        dropped_queue_batches: d.u64()?,
        dropped_queue_samples: d.u64()?,
        rejected_outliers: d.u64()?,
        link_flaps: d.u64()?,
        live_links: d.usize()?,
        stale_links: d.usize()?,
        dead_links: d.usize()?,
        assemblies: d.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Planner state + solver warm state (binary only — these records only ever
// live inside the snapshot store's versioned payload, never on the client
// wire, so there is no JSON form to stay byte-compatible with)
// ---------------------------------------------------------------------------

/// Binary-encodes a `PlanPolicy`.
pub fn enc_plan_policy(e: &mut Enc, p: PlanPolicy) {
    e.u8(match p {
        PlanPolicy::UncertaintyGreedy => 0,
        PlanPolicy::FixedSchedule => 1,
    });
}

/// Binary-decodes a `PlanPolicy`.
pub fn dec_plan_policy(d: &mut Dec<'_>) -> Result<PlanPolicy> {
    Ok(match d.u8()? {
        0 => PlanPolicy::UncertaintyGreedy,
        1 => PlanPolicy::FixedSchedule,
        v => return Err(WireError::Malformed(format!("unknown plan policy tag {v}"))),
    })
}

/// Binary-encodes a `MeasurementPlan` (the schedule position a restarted
/// daemon resumes from).
pub fn enc_measurement_plan(e: &mut Enc, p: &MeasurementPlan) {
    e.u64(p.epoch);
    enc_plan_policy(e, p.policy);
    e.usize(p.entries.len());
    for entry in &p.entries {
        e.usize(entry.ref_slot);
        e.usizes(&entry.links);
    }
    e.usize(p.planned_cost);
    e.usize(p.full_cost);
}

/// Binary-decodes a `MeasurementPlan`.
pub fn dec_measurement_plan(d: &mut Dec<'_>) -> Result<MeasurementPlan> {
    let epoch = d.u64()?;
    let policy = dec_plan_policy(d)?;
    let n = d.count()?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(PlanEntry { ref_slot: d.usize()?, links: d.usizes()? });
    }
    // `links_for` binary-searches the entries; a payload that lost the sort
    // order would silently mis-answer, so reject it here.
    if entries.windows(2).any(|w| w[0].ref_slot >= w[1].ref_slot) {
        return Err(WireError::malformed("plan entries not sorted by ref_slot"));
    }
    Ok(MeasurementPlan { epoch, policy, entries, planned_cost: d.usize()?, full_cost: d.usize()? })
}

/// Binary-encodes one retained `SurveyRecord`.
pub fn enc_survey_record(e: &mut Enc, r: &SurveyRecord) {
    e.u64(r.epoch);
    e.f64s(&r.y);
    e.usize(r.fresh.len());
    for &f in &r.fresh {
        e.bool(f);
    }
}

/// Binary-decodes one `SurveyRecord`.
pub fn dec_survey_record(d: &mut Dec<'_>) -> Result<SurveyRecord> {
    let epoch = d.u64()?;
    let y = d.f64s()?;
    let n = d.count()?;
    let mut fresh = Vec::with_capacity(n);
    for _ in 0..n {
        fresh.push(d.bool()?);
    }
    Ok(SurveyRecord { epoch, y, fresh })
}

/// Binary-encodes a full `HistoryWindow`: shape, then each slot's retained
/// records oldest-first (the order [`dec_history`] replays them in).
pub fn enc_history(e: &mut Enc, h: &HistoryWindow) {
    e.usize(h.n_slots());
    e.usize(h.n_links());
    e.usize(h.depth());
    for slot in 0..h.n_slots() {
        let records: Vec<&SurveyRecord> = h.records(slot).collect();
        e.usize(records.len());
        for r in records {
            enc_survey_record(e, r);
        }
    }
}

/// Binary-decodes a `HistoryWindow` by replaying each record through
/// [`HistoryWindow::record`], so every shape invariant the live path enforces
/// also holds for recovered state.
pub fn dec_history(d: &mut Dec<'_>) -> Result<HistoryWindow> {
    let n_slots = d.usize()?;
    let n_links = d.usize()?;
    let depth = d.usize()?;
    let mut h = HistoryWindow::new(n_slots, n_links, depth)
        .map_err(|e| WireError::Malformed(format!("history window: {e}")))?;
    for slot in 0..n_slots {
        let n = d.count()?;
        for _ in 0..n {
            let rec = dec_survey_record(d)?;
            h.record(slot, rec)
                .map_err(|e| WireError::Malformed(format!("history slot {slot}: {e}")))?;
        }
    }
    Ok(h)
}

/// Binary-encodes a solver `WarmState` (the accepted factor pair).
pub fn enc_warm_state(e: &mut Enc, w: &WarmState) {
    e.matrix(w.l());
    e.matrix(w.r());
}

/// Binary-decodes a `WarmState`, rejecting factor pairs no solve could have
/// produced (rank mismatch, non-finite entries).
pub fn dec_warm_state(d: &mut Dec<'_>) -> Result<WarmState> {
    let l = d.matrix()?;
    let r = d.matrix()?;
    WarmState::from_parts(l, r)
        .ok_or_else(|| WireError::malformed("warm state: mismatched ranks or non-finite factors"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_snapshot() -> SystemSnapshot {
        let rss = Matrix::from_fn(4, 6, |i, j| -40.0 - (i * 6 + j) as f64 * 0.25);
        let links = vec![
            Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0)),
            Segment::new(Point::new(0.0, 2.0), Point::new(3.0, 2.0)),
            Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 2.0)),
            Segment::new(Point::new(3.0, 0.0), Point::new(3.0, 2.0)),
        ];
        let grid = FloorGrid::new(Point::new(0.5, 0.5), 1.0, 3, 2);
        let db = FingerprintDb::new(rss, links, grid).unwrap();
        let z = Matrix::from_fn(2, 6, |i, j| 0.1 * (i + 1) as f64 + 0.01 * j as f64);
        let lrr = LrrModel::from_parts(vec![1, 4], z, 1e-3).unwrap();
        SystemSnapshot {
            config: TafLocConfig {
                ref_count: 2,
                ref_strategy: ReferenceStrategy::Random { seed: 7 },
                matcher: MatchMethod::Probabilistic { sigma_db: 2.5 },
                ..TafLocConfig::default()
            },
            db,
            ref_cells: vec![1, 4],
            lrr,
            empty_rss: vec![-40.0, -41.0, -42.0, -43.0],
        }
    }

    #[test]
    fn snapshot_round_trips_in_json() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        let mut w = JsonWriter::new(&mut buf);
        json_write_snapshot(&mut w, &snap);
        let text = String::from_utf8(buf.clone()).unwrap();
        let back = json_read_snapshot(&parse(&text).unwrap(), "SystemSnapshot").unwrap();
        // Re-encode: byte equality is the strongest cheap equivalence.
        let mut buf2 = Vec::new();
        let mut w2 = JsonWriter::new(&mut buf2);
        json_write_snapshot(&mut w2, &back);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn snapshot_round_trips_in_binary() {
        let snap = sample_snapshot();
        let mut e = Enc::new();
        enc_snapshot(&mut e, &snap);
        let bytes = e.into_inner();
        let mut d = Dec::new(&bytes);
        let back = dec_snapshot(&mut d).unwrap();
        d.finish().unwrap();
        let mut e2 = Enc::new();
        enc_snapshot(&mut e2, &back);
        assert_eq!(bytes, e2.into_inner());
    }

    #[test]
    fn configs_with_defaults_fill_in_like_serde() {
        let cfg = json_read_ingest_config(&parse("{}").unwrap(), "IngestConfig").unwrap();
        assert_eq!(cfg, IngestConfig::default());
        let cfg = json_read_ingest_config(
            &parse(r#"{"aggregator":{"kind":"ewma","alpha":0.2}}"#).unwrap(),
            "IngestConfig",
        )
        .unwrap();
        assert_eq!(cfg.aggregator, Aggregator::Ewma { alpha: 0.2 });
        let g = json_read_guard(&parse("{}").unwrap(), "ReconstructionGuard").unwrap();
        assert_eq!(g, ReconstructionGuard::default());
    }

    #[test]
    fn enum_variants_round_trip_in_both_shapes() {
        for s in [
            ReferenceStrategy::QrPivot,
            ReferenceStrategy::Random { seed: 99 },
            ReferenceStrategy::LeverageScore,
        ] {
            let mut buf = Vec::new();
            let mut w = JsonWriter::new(&mut buf);
            json_write_ref_strategy(&mut w, &s);
            let text = String::from_utf8(buf).unwrap();
            let back = json_read_ref_strategy(&parse(&text).unwrap(), "T").unwrap();
            assert_eq!(s, back, "json round trip via {text}");
            let mut e = Enc::new();
            enc_ref_strategy(&mut e, &s);
            let bytes = e.into_inner();
            assert_eq!(dec_ref_strategy(&mut Dec::new(&bytes)).unwrap(), s);
        }
        for m in [
            MatchMethod::NearestNeighbor,
            MatchMethod::Knn { k: 5 },
            MatchMethod::Probabilistic { sigma_db: 0.5 },
        ] {
            let mut buf = Vec::new();
            let mut w = JsonWriter::new(&mut buf);
            json_write_matcher(&mut w, &m);
            let text = String::from_utf8(buf).unwrap();
            assert_eq!(json_read_matcher(&parse(&text).unwrap(), "T").unwrap(), m);
        }
    }

    #[test]
    fn hostile_grid_and_matrix_shapes_error_instead_of_panicking() {
        // Zero-cell grid.
        let bad = r#"{"rss":{"rows":1,"cols":1,"data":[-40]},"links":[{"a":{"x":0,"y":0},"b":{"x":1,"y":0}}],"grid":{"origin":{"x":0,"y":0},"cell_size":0,"nx":1,"ny":1}}"#;
        assert!(json_read_db(&parse(bad).unwrap(), "Db").is_err());
        // Matrix data length mismatch.
        let bad = r#"{"rows":2,"cols":2,"data":[1,2,3]}"#;
        assert!(json_read_matrix(&parse(bad).unwrap(), "M").is_err());
    }

    #[test]
    fn ingest_types_round_trip_both_ways() {
        let s = LinkSample { link: 3, t_s: 12.5, rss_dbm: -51.25 };
        let mut buf = Vec::new();
        let mut w = JsonWriter::new(&mut buf);
        json_write_link_sample(&mut w, &s);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, r#"{"link":3,"t_s":12.5,"rss_dbm":-51.25}"#);
        assert_eq!(json_read_link_sample(&parse(&text).unwrap(), "LinkSample").unwrap(), s);

        let mut e = Enc::new();
        enc_link_sample(&mut e, &s);
        let bytes = e.into_inner();
        assert_eq!(dec_link_sample(&mut Dec::new(&bytes)).unwrap(), s);

        let stats = IngestStats { accepted: 10, live_links: 4, ..IngestStats::default() };
        let mut e = Enc::new();
        enc_ingest_stats(&mut e, &stats);
        let bytes = e.into_inner();
        assert_eq!(dec_ingest_stats(&mut Dec::new(&bytes)).unwrap(), stats);
    }

    #[test]
    fn every_ingest_counter_round_trips_in_both_shapes() {
        // Distinct values per field, so a swapped or dropped counter shows.
        let stats = IngestStats {
            accepted: 1,
            dropped_late: 2,
            dropped_unknown_link: 3,
            dropped_non_finite: 4,
            dropped_queue_batches: 5,
            dropped_queue_samples: 6,
            rejected_outliers: 7,
            link_flaps: 8,
            live_links: 9,
            stale_links: 10,
            dead_links: 11,
            assemblies: 12,
        };
        let mut buf = Vec::new();
        json_write_ingest_stats(&mut JsonWriter::new(&mut buf), &stats);
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(json_read_ingest_stats(&parse(&text).unwrap(), "IngestStats").unwrap(), stats);

        let mut e = Enc::new();
        enc_ingest_stats(&mut e, &stats);
        let bytes = e.into_inner();
        assert_eq!(dec_ingest_stats(&mut Dec::new(&bytes)).unwrap(), stats);
    }

    #[test]
    fn plan_state_round_trips_in_binary() {
        let plan = MeasurementPlan {
            epoch: 7,
            policy: PlanPolicy::UncertaintyGreedy,
            entries: vec![
                PlanEntry { ref_slot: 0, links: vec![1, 3, 5] },
                PlanEntry { ref_slot: 2, links: vec![0, 2] },
            ],
            planned_cost: 5,
            full_cost: 12,
        };
        let mut e = Enc::new();
        enc_measurement_plan(&mut e, &plan);
        let bytes = e.into_inner();
        let mut d = Dec::new(&bytes);
        let back = dec_measurement_plan(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.epoch, plan.epoch);
        assert_eq!(back.policy, plan.policy);
        assert_eq!(back.entries, plan.entries);
        assert_eq!(back.planned_cost, plan.planned_cost);
        assert_eq!(back.full_cost, plan.full_cost);
        assert_eq!(back.links_for(2), Some(&[0usize, 2][..]));

        // Unsorted entries must be rejected, not silently mis-served.
        let mut e = Enc::new();
        let shuffled = MeasurementPlan {
            entries: vec![plan.entries[1].clone(), plan.entries[0].clone()],
            ..plan.clone()
        };
        enc_measurement_plan(&mut e, &shuffled);
        let bytes = e.into_inner();
        assert!(dec_measurement_plan(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn history_round_trips_preserving_ring_order() {
        let mut h = HistoryWindow::new(2, 3, 2).unwrap();
        for epoch in 1..=3u64 {
            h.record(
                0,
                SurveyRecord {
                    epoch,
                    y: vec![-40.0 - epoch as f64; 3],
                    fresh: vec![epoch % 2 == 0; 3],
                },
            )
            .unwrap();
        }
        let mut e = Enc::new();
        enc_history(&mut e, &h);
        let bytes = e.into_inner();
        let mut d = Dec::new(&bytes);
        let back = dec_history(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.n_slots(), 2);
        assert_eq!(back.n_links(), 3);
        assert_eq!(back.depth(), 2);
        // Depth 2 means epochs 2 and 3 survive, in that order.
        let records: Vec<_> = back.records(0).cloned().collect();
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(records[1].y, vec![-43.0; 3]);
        assert!(back.records(1).next().is_none());
        // Re-encode: byte equality proves the replay preserved everything.
        let mut e2 = Enc::new();
        enc_history(&mut e2, &back);
        assert_eq!(bytes, e2.into_inner());
    }

    #[test]
    fn warm_state_round_trips_and_rejects_garbage() {
        let l = Matrix::from_fn(4, 2, |i, j| 0.5 * i as f64 - 0.25 * j as f64);
        let r = Matrix::from_fn(6, 2, |i, j| 0.1 * (i + j) as f64);
        let w = WarmState::from_parts(l.clone(), r.clone()).unwrap();
        let mut e = Enc::new();
        enc_warm_state(&mut e, &w);
        let bytes = e.into_inner();
        let mut d = Dec::new(&bytes);
        let back = dec_warm_state(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.shape(), (4, 6, 2));
        assert_eq!(back.l().as_slice(), l.as_slice());
        assert_eq!(back.r().as_slice(), r.as_slice());

        // A rank-mismatched pair decodes structurally but fails validation.
        let bad_r = Matrix::from_fn(6, 3, |_, _| 0.0);
        let mut e = Enc::new();
        e.matrix(&l);
        e.matrix(&bad_r);
        let bytes = e.into_inner();
        assert!(dec_warm_state(&mut Dec::new(&bytes)).is_err());
        // Non-finite factors are rejected too.
        let nan_l = Matrix::from_fn(4, 2, |_, _| f64::NAN);
        let mut e = Enc::new();
        e.matrix(&nan_l);
        e.matrix(&r);
        let bytes = e.into_inner();
        assert!(dec_warm_state(&mut Dec::new(&bytes)).is_err());
    }
}
