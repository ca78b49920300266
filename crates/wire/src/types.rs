//! The schema of every TafLoc domain type that crosses the wire, the disk or
//! a CLI file.
//!
//! The types live in core, ingest, plan and rfsim, which do not depend on
//! this crate, so their fields are listed here, apart from the types. Types
//! whose layout is just their field list use [`schema!`](crate::schema!)'s
//! impl-only form: v1 JSON writes the fields in declaration
//! order, enums are externally tagged unless a tag key is named, and fields
//! with a fallback may be absent. The binary form is the layout the v2 wire
//! and the `taflocd` snapshot store share.
//!
//! Types with private fields or validating constructors keep a short
//! hand-written [`Codec`] impl. Their decoders check what the constructors
//! would otherwise `panic` on, or what a corrupted payload could violate
//! (grid shapes, matrix dimensions, plan order): a decoder must reject
//! hostile data, never abort on it.

use crate::codec::{Dec, Enc};
use crate::error::{Result, WireError};
use crate::json::{JsonReader, JsonWriter};
use crate::schema::{encode_seq, write_seq, Codec};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanEntry, PlanPolicy, SurveyRecord};
use taf_rfsim::drift::DriftConfig;
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use taf_rfsim::noise::NoiseConfig;
use taf_rfsim::pathloss::LogDistance;
use taf_rfsim::shadowing::ShadowingConfig;
use taf_rfsim::target::TargetModel;
use taf_rfsim::{EnvironmentEvent, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::{LoliIrConfig, WarmState};
use tafloc_core::matcher::MatchMethod;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::reference::ReferenceStrategy;
use tafloc_core::system::{ReconstructionGuard, SystemSnapshot, TafLocConfig, ZRefreshPolicy};
use tafloc_core::LrrModel;
use tafloc_ingest::{Aggregator, BatchReport, IngestConfig, IngestStats, LinkSample};

crate::schema! { struct Point { x: f64, y: f64 } }

crate::schema! { struct Segment { a: Point, b: Point } }

crate::schema! {
    enum ReferenceStrategy: external {
        QrPivot = 0 "QrPivot",
        Random = 1 "Random" { seed: u64 },
        LeverageScore = 2 "LeverageScore",
    }
}

crate::schema! {
    enum MatchMethod: external {
        NearestNeighbor = 0 "NearestNeighbor",
        Knn = 1 "Knn" { k: usize },
        Probabilistic = 2 "Probabilistic" { sigma_db: f64 },
    }
}

crate::schema! {
    enum ZRefreshPolicy: external {
        Fixed = 0 "Fixed",
        RefitAfterUpdate = 1 "RefitAfterUpdate",
    }
}

crate::schema! {
    enum Aggregator: tag "kind" {
        Median = 0 "median",
        Ewma = 1 "ewma" { alpha: f64 },
    }
}

// Payloads from before `stall_iters`, `accelerate` and `debug_bias_db`
// existed decode to the behavior they had then.
crate::schema! {
    struct LoliIrConfig {
        rank: usize,
        lambda: f64,
        mu: f64,
        alpha: f64,
        beta: f64,
        max_iters: usize,
        tol: f64,
        stall_iters: usize = 1,
        accelerate: bool = false,
        debug_bias_db: f64 = 0.0,
    }
}

crate::schema! {
    struct TafLocConfig {
        ref_count: usize,
        ref_strategy: ReferenceStrategy,
        lrr_lambda: f64,
        distortion_threshold_db: f64,
        link_graph_k: usize,
        loli: LoliIrConfig,
        matcher: MatchMethod,
        consistency_gate: bool,
        gate_hi_db: f64,
        gate_lo_db: f64,
        z_policy: ZRefreshPolicy,
    }
}

crate::schema! { struct MonitorConfig { error_threshold_db: f64, min_interval_days: f64 } }

crate::schema! {
    struct ReconstructionGuard: default { max_ref_rmse_db: f64, max_mean_delta_db: f64 }
}

crate::schema! {
    struct IngestConfig: default {
        window_capacity: usize,
        window_s: f64,
        min_samples: usize,
        stale_after_s: f64,
        hampel_k: f64,
        hampel_floor_db: f64,
        aggregator: Aggregator,
    }
}

crate::schema! {
    struct SystemSnapshot {
        config: TafLocConfig,
        db: FingerprintDb,
        ref_cells: Vec<usize>,
        lrr: LrrModel,
        empty_rss: Vec<f64>,
    }
}

crate::schema! { struct LinkSample { link: usize, t_s: f64, rss_dbm: f64 } }

crate::schema! {
    struct BatchReport {
        accepted: u64,
        dropped_late: u64,
        dropped_unknown_link: u64,
        dropped_non_finite: u64,
    }
}

crate::schema! {
    struct IngestStats {
        accepted: u64,
        dropped_late: u64,
        dropped_unknown_link: u64,
        dropped_non_finite: u64,
        dropped_queue_batches: u64,
        dropped_queue_samples: u64,
        rejected_outliers: u64,
        link_flaps: u64,
        live_links: usize,
        stale_links: usize,
        dead_links: usize,
        assemblies: u64,
    }
}

// The CLI's world file.
crate::schema! {
    struct WorldConfig {
        grid: FloorGrid,
        num_links: usize,
        deployment_margin: f64,
        pathloss: LogDistance,
        shadowing: ShadowingConfig,
        target: TargetModel,
        drift: DriftConfig,
        noise: NoiseConfig,
        events: Vec<EnvironmentEvent>,
    }
}

crate::schema! { struct LogDistance { p0_dbm: f64, d0: f64, exponent: f64 } }

crate::schema! { struct ShadowingConfig { sigma_db: f64, decorrelation_m: f64 } }

crate::schema! {
    struct TargetModel { max_attenuation_db: f64, decay_m: f64, scatter_db: f64, scatter_freq: f64 }
}

crate::schema! {
    struct DriftConfig {
        link_sigma_db: f64,
        entry_sigma_db: f64,
        tau_days: f64,
        entry_fast_sigma_db: f64,
        entry_fast_tau_days: f64,
    }
}

crate::schema! {
    struct NoiseConfig { sigma_db: f64, quantization_db: f64, outlier_prob: f64, outlier_db: f64 }
}

crate::schema! {
    struct EnvironmentEvent {
        day: f64,
        location: Point,
        radius_m: f64,
        link_delta_db: f64,
        entry_delta_db: f64,
    }
}

// Planner state travels in binary inside the snapshot store's payload; the
// CLI's plan file is a `MeasurementPlan` in v1 JSON. A policy's v1 name is
// its `--policy` name.
crate::schema! {
    enum PlanPolicy: external {
        UncertaintyGreedy = 0 "uncertainty-greedy",
        FixedSchedule = 1 "fixed-schedule",
    }
}

crate::schema! { struct PlanEntry { ref_slot: usize, links: Vec<usize> } }

crate::schema! { struct SurveyRecord: binary { epoch: u64, y: Vec<f64>, fresh: Vec<bool> } }

// ---------------------------------------------------------------------------
// Hand-written impls: private fields or validating constructors
// ---------------------------------------------------------------------------

/// `FloorGrid::new` treats a bad shape as a programming error and panics; a
/// decoder must reject it as a data error first.
fn checked_grid(origin: Point, cell_size: f64, nx: usize, ny: usize) -> Result<FloorGrid> {
    if cell_size <= 0.0 || !cell_size.is_finite() || nx == 0 || ny == 0 {
        return Err(WireError::Malformed(format!(
            "invalid grid: cell_size {cell_size}, {nx}x{ny} cells"
        )));
    }
    Ok(FloorGrid::new(origin, cell_size, nx, ny))
}

/// Private fields: `origin`, `cell_size`, `nx`, `ny`, shape-checked.
impl Codec for FloorGrid {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("origin", &self.origin());
        w.field("cell_size", &self.cell_size());
        w.field("nx", &self.nx());
        w.field("ny", &self.ny());
        w.end_obj();
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let (origin, cell_size, nx, ny) = crate::schema!(
            @object r, "FloorGrid", { origin: Point, cell_size: f64, nx: usize, ny: usize }
        );
        checked_grid(origin, cell_size, nx, ny)
    }
    fn encode(&self, e: &mut Enc) {
        self.origin().encode(e);
        e.f64(self.cell_size());
        e.usize(self.nx());
        e.usize(self.ny());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        checked_grid(Point::decode(d)?, d.f64()?, d.usize()?, d.usize()?)
    }
}

/// `rss`, `links`, `grid`, through the validating `FingerprintDb::new`. In
/// binary the RSS grid goes out as one shape-prefixed block and the links as
/// packed coordinate quads.
impl Codec for FingerprintDb {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("rss", self.rss());
        w.key("links");
        write_seq(w, self.links());
        w.field("grid", self.grid());
        w.end_obj();
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let (rss, links, grid) = crate::schema!(
            @object r, "FingerprintDb", { rss: Matrix, links: Vec<Segment>, grid: FloorGrid }
        );
        FingerprintDb::new(rss, links, grid)
            .map_err(|e| WireError::Malformed(format!("FingerprintDb: {e}")))
    }
    fn encode(&self, e: &mut Enc) {
        self.rss().encode(e);
        encode_seq(self.links(), e);
        self.grid().encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        FingerprintDb::new(Matrix::decode(d)?, Vec::decode(d)?, FloorGrid::decode(d)?)
            .map_err(|e| WireError::Malformed(e.to_string()))
    }
}

/// `ref_cells`, `z`, `lambda`, through the validating `LrrModel::from_parts`.
impl Codec for LrrModel {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.key("ref_cells");
        write_seq(w, self.ref_cells());
        w.field("z", self.z());
        w.field("lambda", &self.lambda());
        w.end_obj();
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self> {
        let (ref_cells, z, lambda) = crate::schema!(
            @object r, "LrrModel", { ref_cells: Vec<usize>, z: Matrix, lambda: f64 }
        );
        LrrModel::from_parts(ref_cells, z, lambda)
            .map_err(|e| WireError::Malformed(format!("LrrModel: {e}")))
    }
    fn encode(&self, e: &mut Enc) {
        encode_seq(self.ref_cells(), e);
        self.z().encode(e);
        e.f64(self.lambda());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        LrrModel::from_parts(Vec::decode(d)?, Matrix::decode(d)?, d.f64()?)
            .map_err(|e| WireError::Malformed(e.to_string()))
    }
}

/// The solver's accepted factor pair (binary only), through
/// `WarmState::from_parts`, which rejects factor pairs no solve could have
/// produced (rank mismatch, non-finite entries).
impl Codec for WarmState {
    fn encode(&self, e: &mut Enc) {
        self.l().encode(e);
        self.r().encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        WarmState::from_parts(Matrix::decode(d)?, Matrix::decode(d)?).ok_or_else(|| {
            WireError::malformed("warm state: mismatched ranks or non-finite factors")
        })
    }
}

/// The schedule position a restarted daemon resumes from, and the CLI's plan
/// file. The CLI only writes plans, so v1 JSON has no reader. `links_for`
/// binary-searches the entries, so a payload that lost their `ref_slot`
/// order would silently mis-answer; decoding rejects it.
impl Codec for MeasurementPlan {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.field("epoch", &self.epoch);
        w.field("policy", &self.policy);
        w.field("entries", &self.entries);
        w.field("planned_cost", &self.planned_cost);
        w.field("full_cost", &self.full_cost);
        w.end_obj();
    }
    fn encode(&self, e: &mut Enc) {
        self.epoch.encode(e);
        self.policy.encode(e);
        self.entries.encode(e);
        self.planned_cost.encode(e);
        self.full_cost.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let epoch = u64::decode(d)?;
        let policy = PlanPolicy::decode(d)?;
        let entries: Vec<PlanEntry> = Vec::decode(d)?;
        if entries.windows(2).any(|w| w[0].ref_slot >= w[1].ref_slot) {
            return Err(WireError::malformed("plan entries not sorted by ref_slot"));
        }
        Ok(MeasurementPlan {
            epoch,
            policy,
            entries,
            planned_cost: d.usize()?,
            full_cost: d.usize()?,
        })
    }
}

/// Shape, then each slot's retained records oldest-first (binary only).
/// Decoding replays every record through [`HistoryWindow::record`], so each
/// shape invariant the live path enforces also holds for recovered state.
impl Codec for HistoryWindow {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.n_slots());
        e.usize(self.n_links());
        e.usize(self.depth());
        for slot in 0..self.n_slots() {
            e.usize(self.records(slot).count());
            for r in self.records(slot) {
                r.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self> {
        // Each slot carries at least its record count, so a slot count above
        // the bytes left is corrupt; reject it before it sizes the window.
        let n_slots = d.count()?;
        let mut h = HistoryWindow::new(n_slots, d.usize()?, d.usize()?)
            .map_err(|e| WireError::Malformed(format!("history window: {e}")))?;
        for slot in 0..n_slots {
            for _ in 0..d.count()? {
                h.record(slot, SurveyRecord::decode(d)?)
                    .map_err(|e| WireError::Malformed(format!("history slot {slot}: {e}")))?;
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{from_bytes, from_json, to_json};

    fn bytes_of<T: Codec>(value: &T) -> Vec<u8> {
        let mut e = Enc::new();
        value.encode(&mut e);
        e.into_inner()
    }

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
        let text = to_json(&snap);
        let back: SystemSnapshot = from_json(&text).unwrap();
        // Re-encode: byte equality is the strongest cheap equivalence.
        assert_eq!(text, to_json(&back));
    }

    #[test]
    fn snapshot_round_trips_in_binary() {
        let snap = sample_snapshot();
        let bytes = bytes_of(&snap);
        let back: SystemSnapshot = from_bytes(&bytes).unwrap();
        assert_eq!(bytes, bytes_of(&back));
    }

    #[test]
    fn configs_with_defaults_fill_in_like_serde() {
        let cfg: IngestConfig = from_json("{}").unwrap();
        assert_eq!(cfg, IngestConfig::default());
        let cfg: IngestConfig = from_json(r#"{"aggregator":{"kind":"ewma","alpha":0.2}}"#).unwrap();
        assert_eq!(cfg.aggregator, Aggregator::Ewma { alpha: 0.2 });
        let g: ReconstructionGuard = from_json("{}").unwrap();
        assert_eq!(g, ReconstructionGuard::default());
    }

    #[test]
    fn enum_variants_round_trip_in_both_shapes() {
        for s in [
            ReferenceStrategy::QrPivot,
            ReferenceStrategy::Random { seed: 99 },
            ReferenceStrategy::LeverageScore,
        ] {
            let text = to_json(&s);
            let back: ReferenceStrategy = from_json(&text).unwrap();
            assert_eq!(s, back, "json round trip via {text}");
            let bytes = bytes_of(&s);
            assert_eq!(ReferenceStrategy::decode(&mut Dec::new(&bytes)).unwrap(), s);
        }
        for m in [
            MatchMethod::NearestNeighbor,
            MatchMethod::Knn { k: 5 },
            MatchMethod::Probabilistic { sigma_db: 0.5 },
        ] {
            let text = to_json(&m);
            assert_eq!(from_json::<MatchMethod>(&text).unwrap(), m);
        }
        // A policy's v1 name is its `--policy` name.
        for p in [PlanPolicy::UncertaintyGreedy, PlanPolicy::FixedSchedule] {
            let text = to_json(&p);
            assert_eq!(text, format!("\"{p}\""));
            assert_eq!(from_json::<PlanPolicy>(&text).unwrap(), p);
        }
    }

    #[test]
    fn hostile_grid_and_matrix_shapes_error_instead_of_panicking() {
        // Zero-cell grid.
        let bad = r#"{"rss":{"rows":1,"cols":1,"data":[-40]},"links":[{"a":{"x":0,"y":0},"b":{"x":1,"y":0}}],"grid":{"origin":{"x":0,"y":0},"cell_size":0,"nx":1,"ny":1}}"#;
        assert!(from_json::<FingerprintDb>(bad).is_err());
        // Matrix data length mismatch.
        let bad = r#"{"rows":2,"cols":2,"data":[1,2,3]}"#;
        assert!(from_json::<Matrix>(bad).is_err());
    }

    #[test]
    fn ingest_types_round_trip_both_ways() {
        let s = LinkSample { link: 3, t_s: 12.5, rss_dbm: -51.25 };
        let text = to_json(&s);
        assert_eq!(text, r#"{"link":3,"t_s":12.5,"rss_dbm":-51.25}"#);
        assert_eq!(from_json::<LinkSample>(&text).unwrap(), s);

        let bytes = bytes_of(&s);
        assert_eq!(LinkSample::decode(&mut Dec::new(&bytes)).unwrap(), s);

        let stats = IngestStats { accepted: 10, live_links: 4, ..IngestStats::default() };
        let bytes = bytes_of(&stats);
        assert_eq!(IngestStats::decode(&mut Dec::new(&bytes)).unwrap(), stats);
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
        let text = to_json(&stats);
        assert_eq!(from_json::<IngestStats>(&text).unwrap(), stats);

        let bytes = bytes_of(&stats);
        assert_eq!(IngestStats::decode(&mut Dec::new(&bytes)).unwrap(), stats);
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
        let bytes = bytes_of(&plan);
        let back: MeasurementPlan = from_bytes(&bytes).unwrap();
        assert_eq!(back.epoch, plan.epoch);
        assert_eq!(back.policy, plan.policy);
        assert_eq!(back.entries, plan.entries);
        assert_eq!(back.planned_cost, plan.planned_cost);
        assert_eq!(back.full_cost, plan.full_cost);
        assert_eq!(back.links_for(2), Some(&[0usize, 2][..]));

        // Unsorted entries must be rejected, not silently mis-served.
        let shuffled = MeasurementPlan {
            entries: vec![plan.entries[1].clone(), plan.entries[0].clone()],
            ..plan.clone()
        };
        let bytes = bytes_of(&shuffled);
        assert!(MeasurementPlan::decode(&mut Dec::new(&bytes)).is_err());
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
        let bytes = bytes_of(&h);
        let back: HistoryWindow = from_bytes(&bytes).unwrap();
        assert_eq!(back.n_slots(), 2);
        assert_eq!(back.n_links(), 3);
        assert_eq!(back.depth(), 2);
        // Depth 2 means epochs 2 and 3 survive, in that order.
        let records: Vec<_> = back.records(0).cloned().collect();
        assert_eq!(records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(records[1].y, vec![-43.0; 3]);
        assert!(back.records(1).next().is_none());
        // Re-encode: byte equality proves the replay preserved everything.
        assert_eq!(bytes, bytes_of(&back));
    }

    #[test]
    fn warm_state_round_trips_and_rejects_garbage() {
        let l = Matrix::from_fn(4, 2, |i, j| 0.5 * i as f64 - 0.25 * j as f64);
        let r = Matrix::from_fn(6, 2, |i, j| 0.1 * (i + j) as f64);
        let w = WarmState::from_parts(l.clone(), r.clone()).unwrap();
        let bytes = bytes_of(&w);
        let back: WarmState = from_bytes(&bytes).unwrap();
        assert_eq!(back.shape(), (4, 6, 2));
        assert_eq!(back.l().as_slice(), l.as_slice());
        assert_eq!(back.r().as_slice(), r.as_slice());

        // A rank-mismatched pair decodes structurally but fails validation.
        let bad_r = Matrix::from_fn(6, 3, |_, _| 0.0);
        let mut e = Enc::new();
        e.matrix(&l);
        e.matrix(&bad_r);
        let bytes = e.into_inner();
        assert!(WarmState::decode(&mut Dec::new(&bytes)).is_err());
        // Non-finite factors are rejected too.
        let nan_l = Matrix::from_fn(4, 2, |_, _| f64::NAN);
        let mut e = Enc::new();
        e.matrix(&nan_l);
        e.matrix(&r);
        let bytes = e.into_inner();
        assert!(WarmState::decode(&mut Dec::new(&bytes)).is_err());
    }
}
