//! The end-to-end TafLoc system.
//!
//! Lifecycle (mirroring the paper's deployment):
//!
//! 1. [`TafLoc::calibrate`] — one full site survey builds the initial fingerprint
//!    database; TafLoc selects the reference locations (column-pivoted QR), learns
//!    the LRR correlation matrix `Z`, and builds the continuity/similarity graphs.
//! 2. Time passes; RSS drifts; the stored fingerprints expire.
//! 3. [`TafLoc::update`] — a surveyor measures **only** the `n` reference cells
//!    (plus one empty-room snapshot); LoLi-IR reconstructs the entire database.
//! 4. [`TafLoc::localize`] — live RSS vectors are matched against the
//!    reconstructed database.

use crate::db::FingerprintDb;
use crate::error::TaflocError;
use crate::loli_ir::{
    reconstruct_warm, LoliIrConfig, Reconstruction, ReconstructionProblem, SolverWorkspace,
    WarmState,
};
use crate::lrr::LrrModel;
use crate::mask::{detect_distorted, Mask};
use crate::matcher::{localize_gated, ConsistencyGate, MatchMethod, MatchResult};
use crate::operators::NeighborGraph;
use crate::reference::{select_references, ReferenceStrategy};
use crate::Result;
use taf_linalg::Matrix;

taf_wire::schema! {
    /// TafLoc system configuration.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TafLocConfig {
        /// Number of reference locations `n` (the paper uses 10).
        pub ref_count: usize,
        /// Reference-selection strategy.
        pub ref_strategy: ReferenceStrategy,
        /// Ridge regularizer for fitting the LRR correlation matrix `Z`.
        pub lrr_lambda: f64,
        /// RSS drop (dB) below the empty-room level that marks an entry as
        /// "largely distorted" (the `X_D` region).
        pub distortion_threshold_db: f64,
        /// Each link is connected to its `k` nearest links in the similarity graph.
        pub link_graph_k: usize,
        /// LoLi-IR solver parameters.
        pub loli: LoliIrConfig,
        /// Online matching method.
        pub matcher: MatchMethod,
        /// Blocking-pattern consistency gate for localization. A link dropping
        /// `gate_hi_db` below the empty-room baseline means the target is shadowing
        /// it; a candidate cell whose stored fingerprint shows (almost) no drop on
        /// that link is physically impossible and is excluded — and vice versa: a
        /// cell whose fingerprint predicts a deep drop on a link that is currently
        /// quiet is excluded too. This suppresses fingerprint-aliasing outliers (a
        /// far cell with a coincidentally similar signature cannot reproduce the
        /// live blocking pattern).
        pub consistency_gate: bool,
        /// Drop (dB) that positively identifies a blocked link.
        pub gate_hi_db: f64,
        /// Drop (dB) below which a link counts as clearly unblocked. Must be below
        /// `gate_hi_db`; the band in between is left undecided (noise + drift).
        pub gate_lo_db: f64,
        /// What happens to the LRR correlation matrix `Z` after each update.
        pub z_policy: ZRefreshPolicy,
    }
}

taf_wire::schema! {
    /// Lifecycle policy for the LRR correlation matrix `Z`.
    ///
    /// The paper's position is that `Z` captures *stable* spatial structure and is
    /// learned once from the full day-0 calibration. Refitting it on reconstructed
    /// data after each update is the obvious alternative — and a feedback loop:
    /// reconstruction errors leak into `Z` and compound across updates. The
    /// `ablation_zpolicy` experiment quantifies this.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum ZRefreshPolicy: external {
        /// Keep the day-0 `Z` forever (the paper's choice).
        Fixed = 0 "Fixed",
        /// Refit `Z` on the reconstructed database after every update.
        RefitAfterUpdate = 1 "RefitAfterUpdate",
    }
}

impl Default for TafLocConfig {
    fn default() -> Self {
        TafLocConfig {
            ref_count: 10,
            ref_strategy: ReferenceStrategy::QrPivot,
            lrr_lambda: 1e-3,
            distortion_threshold_db: 2.0,
            link_graph_k: 2,
            loli: LoliIrConfig::default(),
            matcher: MatchMethod::default(),
            consistency_gate: true,
            gate_hi_db: 7.0,
            gate_lo_db: 1.0,
            z_policy: ZRefreshPolicy::Fixed,
        }
    }
}

taf_wire::schema! {
    /// Serializable snapshot of a calibrated [`TafLoc`] instance.
    ///
    /// Contains exactly the state that cannot be re-derived — configuration,
    /// database, reference cells, the fitted LRR model and the current empty-room
    /// baseline. Graphs and the distortion mask are rebuilt on load. This is what
    /// a deployment writes to disk between surveys (and what the `tafloc` CLI
    /// stores as its `system.json`).
    #[derive(Debug, Clone)]
    pub struct SystemSnapshot {
        /// System configuration.
        pub config: TafLocConfig,
        /// Current fingerprint database.
        pub db: FingerprintDb,
        /// Selected reference cells (selection order).
        pub ref_cells: Vec<usize>,
        /// Fitted LRR correlation model.
        pub lrr: LrrModel,
        /// Most recent empty-room RSS baseline.
        pub empty_rss: Vec<f64>,
    }
}

taf_wire::schema! {
    /// Sanity ceilings a reconstructed database must clear before it may replace
    /// the served one.
    ///
    /// The defaults are calibrated against the regression suite: a legitimate
    /// refresh reproduces its own measured reference columns to well under 1 dB
    /// RMSE and moves the database by a few dB at most, while a poisoned solve
    /// (NaN propagation, a runaway bias, garbage reference measurements) blows
    /// through one of the ceilings. The ceilings sit far above honest-run values
    /// so the guard never vetoes a refresh the accuracy gates would accept.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ReconstructionGuard: default {
        /// Ceiling (dB) on the RMSE between the reconstruction's reference
        /// columns and the freshly *measured* reference columns that drove it.
        /// A reconstruction that cannot reproduce its own inputs is garbage.
        pub max_ref_rmse_db: f64,
        /// Ceiling (dB) on the mean absolute change vs. the currently served
        /// database — bounds how far one refresh may move the deployment.
        pub max_mean_delta_db: f64,
    }
}

impl Default for ReconstructionGuard {
    fn default() -> Self {
        ReconstructionGuard { max_ref_rmse_db: 6.0, max_mean_delta_db: 25.0 }
    }
}

/// Diagnostics from one database update.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// LoLi-IR outer iterations performed.
    pub iterations: usize,
    /// Whether LoLi-IR met its tolerance.
    pub converged: bool,
    /// Objective trace (initial value plus one entry per iteration).
    pub objective_trace: Vec<f64>,
    /// Mean absolute change (dB) this update applied to the stored database.
    pub mean_abs_change_db: f64,
}

/// Solver state carried between refreshes: the allocation-free
/// [`SolverWorkspace`] plus the last *accepted* solution as a [`WarmState`].
///
/// Ownership of the warm state is deliberately one-way: the cache only learns
/// a solution through [`SolverCache::adopt`], which callers invoke after the
/// reconstruction has cleared whatever guard stands between solve and commit.
/// A rejected reconstruction must never seed the next solve — it failed
/// validation precisely because something about it is suspect — so rollback
/// paths call [`SolverCache::invalidate`] and the next refresh cold-starts
/// from the SVD initialization.
#[derive(Debug, Default)]
pub struct SolverCache {
    ws: SolverWorkspace,
    warm: Option<WarmState>,
}

impl SolverCache {
    /// An empty cache: first solve through it is a cold start.
    pub fn new() -> Self {
        SolverCache::default()
    }

    /// Records an accepted reconstruction as the seed for the next solve.
    pub fn adopt(&mut self, rec: &Reconstruction) {
        self.warm = Some(WarmState::from_reconstruction(rec));
    }

    /// The warm state that would seed the next solve, if any. Persistence
    /// reads it here so an accepted solution survives a restart.
    pub fn warm_state(&self) -> Option<&WarmState> {
        self.warm.as_ref()
    }

    /// Seeds the cache with a previously *accepted* (and since persisted)
    /// solution. Only recovery paths should call this: the warm state must
    /// have gone through [`SolverCache::adopt`] in a prior process.
    pub fn restore(&mut self, warm: WarmState) {
        self.warm = Some(warm);
    }

    /// Drops the warm state (keeps the workspace buffers): the next solve
    /// cold-starts. Call on rejection, rollback, or any doubt about the
    /// provenance of the last solution.
    pub fn invalidate(&mut self) {
        self.warm = None;
    }
}

/// A calibrated TafLoc instance.
#[derive(Debug, Clone)]
pub struct TafLoc {
    config: TafLocConfig,
    db: FingerprintDb,
    lrr: LrrModel,
    ref_cells: Vec<usize>,
    location_graph: NeighborGraph,
    link_graph: NeighborGraph,
    empty_rss: Vec<f64>,
    distortion: Mask,
}

impl TafLoc {
    /// Builds the system from the initial full calibration.
    ///
    /// `initial_db` is the surveyed fingerprint database and `empty_rss` the
    /// per-link empty-room RSS measured at the same time.
    pub fn calibrate(
        config: TafLocConfig,
        initial_db: FingerprintDb,
        empty_rss: Vec<f64>,
    ) -> Result<Self> {
        if empty_rss.len() != initial_db.num_links() {
            return Err(TaflocError::DimensionMismatch {
                op: "TafLoc::calibrate",
                expected: (initial_db.num_links(), 1),
                actual: (empty_rss.len(), 1),
            });
        }
        if config.link_graph_k == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "link_graph_k",
                reason: "similarity graph needs k >= 1".into(),
            });
        }
        let ref_cells = select_references(initial_db.rss(), config.ref_count, config.ref_strategy)?;
        let lrr = LrrModel::fit(initial_db.rss(), &ref_cells, config.lrr_lambda)?;
        let location_graph = NeighborGraph::locations(initial_db.grid());
        let link_graph =
            NeighborGraph::links_from_segments(initial_db.links(), config.link_graph_k);
        let distortion =
            detect_distorted(initial_db.rss(), &empty_rss, config.distortion_threshold_db)?;
        Ok(TafLoc {
            config,
            db: initial_db,
            lrr,
            ref_cells,
            location_graph,
            link_graph,
            empty_rss,
            distortion,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &TafLocConfig {
        &self.config
    }

    /// The current (possibly reconstructed) fingerprint database.
    pub fn db(&self) -> &FingerprintDb {
        &self.db
    }

    /// The selected reference cells, in selection order.
    pub fn reference_cells(&self) -> &[usize] {
        &self.ref_cells
    }

    /// The fitted LRR model.
    pub fn lrr(&self) -> &LrrModel {
        &self.lrr
    }

    /// The most recent empty-room RSS vector.
    pub fn empty_rss(&self) -> &[f64] {
        &self.empty_rss
    }

    /// The current largely-distorted entry mask.
    pub fn distortion(&self) -> &Mask {
        &self.distortion
    }

    /// Runs the reconstruction for a full survey — every reference entry
    /// freshly measured — from a cold start, without mutating the system: the
    /// reusable core the paper applies to RASS as well ("the proposed method
    /// can be efficiently applied on other localization systems"). It is
    /// [`TafLoc::reconstruct_db_masked_cached`] with an all-true mask and a
    /// new [`SolverCache`].
    pub fn reconstruct_db(
        &self,
        fresh_refs: &Matrix,
        fresh_empty: &[f64],
    ) -> Result<Reconstruction> {
        let all = Mask::trues(self.db.num_links(), self.ref_cells.len());
        self.reconstruct_db_masked_cached(fresh_refs, fresh_empty, &all, &mut SolverCache::new())
    }

    /// Runs the reconstruction for freshly measured reference columns
    /// (`M x n`, column order = [`TafLoc::reference_cells`]) without mutating
    /// the system. This is the one solve behind every refresh, full or
    /// budgeted.
    ///
    /// `observed_entries` (`M x n`, the layout of `fresh_refs`) marks the
    /// entries measured this round. A full survey is all true. A budgeted
    /// round re-surveys only the entries its measurement plan chose and
    /// carries the rest forward from a survey-history window. An entry marked
    /// false is still fed to the LRR prior, which needs complete reference
    /// columns, but it is left out of the data-fit term, so LoLi-IR treats
    /// it as unobserved and reconstructs it.
    ///
    /// The solve runs through `cache`: its workspace buffers are reused and,
    /// when it holds an adopted previous solution, the solve warm-starts from
    /// it. The caller owns the cache's lifecycle: [`SolverCache::adopt`]
    /// after the guard accepts, [`SolverCache::invalidate`] on rejection. A
    /// one-off solve passes `&mut SolverCache::new()`, a cold start.
    pub fn reconstruct_db_masked_cached(
        &self,
        fresh_refs: &Matrix,
        fresh_empty: &[f64],
        observed_entries: &Mask,
        cache: &mut SolverCache,
    ) -> Result<Reconstruction> {
        let (m, n) = self.db.rss().shape();
        if fresh_refs.shape() != (m, self.ref_cells.len()) {
            return Err(TaflocError::DimensionMismatch {
                op: "TafLoc::reconstruct_db(refs)",
                expected: (m, self.ref_cells.len()),
                actual: fresh_refs.shape(),
            });
        }
        if fresh_empty.len() != m {
            return Err(TaflocError::DimensionMismatch {
                op: "TafLoc::reconstruct_db(empty)",
                expected: (m, 1),
                actual: (fresh_empty.len(), 1),
            });
        }
        if observed_entries.shape() != (m, self.ref_cells.len()) {
            return Err(TaflocError::DimensionMismatch {
                op: "TafLoc::reconstruct_db(observed_entries)",
                expected: (m, self.ref_cells.len()),
                actual: observed_entries.shape(),
            });
        }

        // Observed matrix: fresh reference columns in place, zeros elsewhere;
        // the mask admits exactly the plan-backed entries of those columns.
        let mut observed = Matrix::zeros(m, n);
        let mut mask = Mask::falses(m, n);
        for (k, &cell) in self.ref_cells.iter().enumerate() {
            observed.set_col(cell, &fresh_refs.col(k))?;
            for i in 0..m {
                if observed_entries.get(i, k) {
                    mask.set(i, cell, true);
                }
            }
        }

        // LRR prior from the *stable* correlation matrix and the fresh references.
        let prior = self.lrr.predict(fresh_refs)?;

        // Distortion support estimated from the prior against the fresh baseline.
        let distortion =
            detect_distorted(&prior, fresh_empty, self.config.distortion_threshold_db)?;

        let problem = ReconstructionProblem {
            observed: &observed,
            mask: &mask,
            lrr_prior: Some(&prior),
            location_graph: Some(&self.location_graph),
            link_graph: Some(&self.link_graph),
            empty_rss: Some(fresh_empty),
            distortion: Some(&distortion),
        };
        reconstruct_warm(&problem, &self.config.loli, &mut cache.ws, cache.warm.as_ref())
    }

    /// Checks a reconstruction against `guard` before it is allowed to
    /// replace the served database. `fresh_refs` and `observed_entries` must
    /// be the reference columns and observation mask that drove the solve
    /// (all true for a full survey). Returns the rejection reason on failure;
    /// the caller decides what rollback means (for `taflocd`: keep the old
    /// snapshot live and count the rejection).
    ///
    /// The reference-column RMSE counts the observed entries only. A round
    /// has fresh ground truth only where it measured; the carried-forward
    /// entries are themselves reconstruction targets and must not count
    /// against the guard.
    pub fn validate_reconstruction_masked(
        &self,
        rec: &Reconstruction,
        fresh_refs: &Matrix,
        observed_entries: &Mask,
        guard: &ReconstructionGuard,
    ) -> std::result::Result<(), String> {
        if observed_entries.shape() != (self.db.num_links(), self.ref_cells.len()) {
            return Err(format!(
                "observation mask shape {:?} does not match the reference columns ({}, {})",
                observed_entries.shape(),
                self.db.num_links(),
                self.ref_cells.len()
            ));
        }
        if rec.matrix.shape() != self.db.rss().shape() {
            return Err(format!(
                "reconstruction shape {:?} does not match the database {:?}",
                rec.matrix.shape(),
                self.db.rss().shape()
            ));
        }
        if rec.matrix.has_non_finite() {
            return Err("reconstruction contains non-finite entries".into());
        }
        // RMSE of the reconstruction at the reference cells vs. what was
        // actually measured there.
        let mut sq_sum = 0.0;
        let mut count = 0usize;
        for (k, &cell) in self.ref_cells.iter().enumerate() {
            for i in 0..rec.matrix.rows() {
                if !observed_entries.get(i, k) {
                    continue;
                }
                let d = rec.matrix[(i, cell)] - fresh_refs[(i, k)];
                sq_sum += d * d;
                count += 1;
            }
        }
        let ref_rmse = (sq_sum / count.max(1) as f64).sqrt();
        if !(ref_rmse <= guard.max_ref_rmse_db) {
            return Err(format!(
                "reconstruction misses its measured reference columns by {ref_rmse:.2} dB RMSE \
                 (ceiling {:.2} dB)",
                guard.max_ref_rmse_db
            ));
        }
        let delta =
            self.db.mean_abs_error(&rec.matrix).map_err(|e| format!("delta check failed: {e}"))?;
        if !(delta <= guard.max_mean_delta_db) {
            return Err(format!(
                "reconstruction moves the database by {delta:.2} dB mean absolute change \
                 (ceiling {:.2} dB)",
                guard.max_mean_delta_db
            ));
        }
        Ok(())
    }

    /// Commits an already-validated reconstruction: swaps the database,
    /// adopts the fresh empty-room baseline and rebuilds the derived state.
    /// Split out of [`TafLoc::update`] so callers can run
    /// [`TafLoc::validate_reconstruction_masked`] between solve and commit.
    pub fn apply_reconstruction(
        &mut self,
        rec: Reconstruction,
        fresh_empty: &[f64],
    ) -> Result<UpdateReport> {
        if fresh_empty.len() != self.db.num_links() {
            return Err(TaflocError::DimensionMismatch {
                op: "TafLoc::apply_reconstruction",
                expected: (self.db.num_links(), 1),
                actual: (fresh_empty.len(), 1),
            });
        }
        let change = self.db.mean_abs_error(&rec.matrix)?;
        self.db = self.db.with_rss(rec.matrix)?;
        self.empty_rss = fresh_empty.to_vec();
        self.distortion =
            detect_distorted(self.db.rss(), &self.empty_rss, self.config.distortion_threshold_db)?;
        if self.config.z_policy == ZRefreshPolicy::RefitAfterUpdate {
            self.lrr = self.lrr.refit(self.db.rss())?;
        }
        Ok(UpdateReport {
            iterations: rec.iterations,
            converged: rec.converged,
            objective_trace: rec.objective_trace,
            mean_abs_change_db: change,
        })
    }

    /// Refreshes the stored database from a full survey: freshly measured
    /// reference columns (`M x n`, column order = [`TafLoc::reference_cells`])
    /// and a fresh empty-room snapshot. It is [`TafLoc::reconstruct_db`]
    /// followed by [`TafLoc::apply_reconstruction`], with no guard between.
    pub fn update(&mut self, fresh_refs: &Matrix, fresh_empty: &[f64]) -> Result<UpdateReport> {
        let rec = self.reconstruct_db(fresh_refs, fresh_empty)?;
        self.apply_reconstruction(rec, fresh_empty)
    }

    /// Localizes a live RSS vector against the current database.
    ///
    /// With [`TafLocConfig::consistency_gate`] enabled (the default),
    /// fingerprint matching is restricted to cells whose stored blocking
    /// pattern is compatible with the live one: a cell is excluded when the
    /// live measurement shows a deep drop (`> gate_hi_db`) on a link where the
    /// cell's fingerprint shows almost none (`< gate_lo_db`), or the reverse.
    /// When the gate empties the candidate set (conflicting evidence), the
    /// full database is searched.
    pub fn localize(&self, y: &[f64]) -> Result<MatchResult> {
        let gate = ConsistencyGate {
            empty_rss: &self.empty_rss,
            hi_db: self.config.gate_hi_db,
            lo_db: self.config.gate_lo_db,
        };
        localize_gated(
            &self.db,
            y,
            self.config.matcher,
            self.config.consistency_gate.then_some(&gate),
        )
    }

    /// Captures the persistent state of this system as a [`SystemSnapshot`].
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot {
            config: self.config,
            db: self.db.clone(),
            ref_cells: self.ref_cells.clone(),
            lrr: self.lrr.clone(),
            empty_rss: self.empty_rss.clone(),
        }
    }

    /// Restores a system from a snapshot, rebuilding the derived state
    /// (graphs, distortion mask) and re-validating shapes.
    pub fn from_snapshot(snapshot: SystemSnapshot) -> Result<Self> {
        let SystemSnapshot { config, db, ref_cells, lrr, empty_rss } = snapshot;
        if empty_rss.len() != db.num_links() {
            return Err(TaflocError::DimensionMismatch {
                op: "TafLoc::from_snapshot",
                expected: (db.num_links(), 1),
                actual: (empty_rss.len(), 1),
            });
        }
        for &c in &ref_cells {
            if c >= db.num_cells() {
                return Err(TaflocError::IndexOutOfBounds {
                    op: "TafLoc::from_snapshot",
                    index: c,
                    bound: db.num_cells(),
                });
            }
        }
        if lrr.ref_cells() != ref_cells.as_slice() {
            return Err(TaflocError::InvalidConfig {
                field: "lrr",
                reason: "LRR model's reference cells disagree with the snapshot's".into(),
            });
        }
        let location_graph = NeighborGraph::locations(db.grid());
        let link_graph = NeighborGraph::links_from_segments(db.links(), config.link_graph_k.max(1));
        let distortion = detect_distorted(db.rss(), &empty_rss, config.distortion_threshold_db)?;
        Ok(TafLoc { config, db, lrr, ref_cells, location_graph, link_graph, empty_rss, distortion })
    }

    /// Builds a [`crate::monitor::DriftMonitor`] spot-checking the first
    /// `num_cells` reference cells of this system, baselined on the current
    /// database as of `day`.
    ///
    /// The monitor closes the "time-adaptive" loop: spot-check a couple of
    /// reference cells periodically, and run [`TafLoc::update`] when it
    /// recommends one.
    pub fn monitor(
        &self,
        num_cells: usize,
        day: f64,
        config: crate::monitor::MonitorConfig,
    ) -> Result<crate::monitor::DriftMonitor> {
        if num_cells == 0 || num_cells > self.ref_cells.len() {
            return Err(TaflocError::InvalidConfig {
                field: "num_cells",
                reason: format!(
                    "must be in 1..={} (the reference-cell count), got {num_cells}",
                    self.ref_cells.len()
                ),
            });
        }
        let cells = self.ref_cells[..num_cells].to_vec();
        let stored = self.db.rss().select_cols(&cells)?;
        crate::monitor::DriftMonitor::new(stored, cells, day, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::{campaign, World, WorldConfig};

    fn setup(seed: u64) -> (World, TafLoc) {
        let world = World::new(WorldConfig::small_test(), seed);
        let x0 = campaign::full_calibration(&world, 0.0, 20);
        let e0 = campaign::empty_snapshot(&world, 0.0, 20);
        let db = FingerprintDb::from_world(x0, &world).unwrap();
        let config = TafLocConfig { ref_count: 6, ..Default::default() };
        let sys = TafLoc::calibrate(config, db, e0).unwrap();
        (world, sys)
    }

    #[test]
    fn calibrate_selects_references_and_fits_lrr() {
        let (_, sys) = setup(1);
        assert_eq!(sys.reference_cells().len(), 6);
        assert_eq!(sys.lrr().z().shape(), (6, 30));
        assert_eq!(sys.empty_rss().len(), 6);
    }

    #[test]
    fn calibrate_validates_inputs() {
        let world = World::new(WorldConfig::small_test(), 2);
        let x0 = campaign::full_calibration(&world, 0.0, 5);
        let db = FingerprintDb::from_world(x0, &world).unwrap();
        // Wrong empty length.
        assert!(TafLoc::calibrate(TafLocConfig::default(), db.clone(), vec![0.0; 3]).is_err());
        // Zero link_graph_k.
        let cfg = TafLocConfig { link_graph_k: 0, ref_count: 4, ..Default::default() };
        assert!(TafLoc::calibrate(cfg, db.clone(), vec![-40.0; 6]).is_err());
        // More references than cells.
        let cfg = TafLocConfig { ref_count: 999, ..Default::default() };
        assert!(TafLoc::calibrate(cfg, db, vec![-40.0; 6]).is_err());
    }

    #[test]
    fn update_improves_stale_database() {
        let (world, mut sys) = setup(3);
        let t = 45.0;
        // Stale DB error vs the drifted truth.
        let truth_t = world.fingerprint_truth(t);
        let stale_err = sys.db().mean_abs_error(&truth_t).unwrap();

        // Measure only the reference cells and update.
        let fresh = campaign::measure_columns(&world, t, sys.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, t, 20);
        let report = sys.update(&fresh, &empty).unwrap();
        assert!(report.mean_abs_change_db > 0.0);

        let rec_err = sys.db().mean_abs_error(&truth_t).unwrap();
        assert!(
            rec_err < stale_err,
            "reconstruction ({rec_err:.2} dB) must beat the stale DB ({stale_err:.2} dB)"
        );
    }

    #[test]
    fn masked_reconstruction_generalizes_the_full_survey_path() {
        let (world, sys) = setup(7);
        let t = 45.0;
        let fresh = campaign::measure_columns(&world, t, sys.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, t, 20);
        let solve = |mask: &Mask| {
            sys.reconstruct_db_masked_cached(&fresh, &empty, mask, &mut SolverCache::new())
        };

        // All-trues entry mask must be bit-identical to the full-survey path.
        let full = sys.reconstruct_db(&fresh, &empty).unwrap();
        let all = Mask::trues(sys.db().num_links(), sys.reference_cells().len());
        let masked = solve(&all).unwrap();
        assert!(full.matrix.approx_eq(&masked.matrix, 0.0));
        assert_eq!(full.diagnostics, masked.diagnostics);

        // A partial mask still reconstructs, and the dropped entries register
        // as unobserved in the diagnostics.
        let mut partial = all.clone();
        for i in 0..sys.db().num_links() {
            partial.set(i, 0, false);
        }
        let rec = solve(&partial).unwrap();
        let slot0_cell = sys.reference_cells()[0];
        assert_eq!(rec.diagnostics.cell_observed[slot0_cell], 0);
        assert!(rec.matrix.iter().all(|v| v.is_finite()));

        // Shape mismatch on the entry mask is rejected.
        let bad = Mask::trues(2, 2);
        assert!(solve(&bad).is_err());
    }

    #[test]
    fn update_validates_shapes() {
        let (_, mut sys) = setup(4);
        let bad_refs = Matrix::zeros(6, 2);
        assert!(sys.update(&bad_refs, &[-40.0; 6]).is_err());
        let ok_refs = Matrix::filled(6, 6, -50.0);
        assert!(sys.update(&ok_refs, &[-40.0; 2]).is_err());
    }

    #[test]
    fn localize_finds_target_cell_at_calibration_time() {
        let (world, sys) = setup(5);
        let mut errors = Vec::new();
        for cell in 0..world.num_cells() {
            let y = campaign::snapshot_at_cell(&world, 0.0, cell, 20);
            let r = sys.localize(&y).unwrap();
            let truth = world.grid().cell_center(cell);
            errors.push(r.point.distance(&truth));
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // The small test world has only 6 links over 30 cells, so cells far from
        // every link are distinguished mostly by the weak multipath field —
        // sub-cell accuracy is not achievable there. The paper-scale accuracy is
        // asserted by the integration tests on the 10-link/96-cell deployment.
        assert!(mean < 1.5, "fresh-DB mean localization error {mean:.2} m too large");
    }

    #[test]
    fn localize_after_update_beats_stale_db() {
        let (world, mut sys) = setup(6);
        let stale = sys.clone();
        let t = 90.0;
        let fresh = campaign::measure_columns(&world, t, sys.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, t, 20);
        sys.update(&fresh, &empty).unwrap();

        let err_of = |s: &TafLoc| -> f64 {
            let mut acc = 0.0;
            for cell in 0..world.num_cells() {
                let y = campaign::snapshot_at_cell(&world, t, cell, 20);
                let r = s.localize(&y).unwrap();
                acc += r.point.distance(&world.grid().cell_center(cell));
            }
            acc / world.num_cells() as f64
        };
        let stale_err = err_of(&stale);
        let updated_err = err_of(&sys);
        assert!(updated_err < stale_err, "updated {updated_err:.2} m vs stale {stale_err:.2} m");
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let (world, mut sys) = setup(9);
        let fresh = campaign::measure_columns(&world, 20.0, sys.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, 20.0, 20);
        sys.update(&fresh, &empty).unwrap();

        let restored = TafLoc::from_snapshot(sys.snapshot()).unwrap();
        assert_eq!(restored.reference_cells(), sys.reference_cells());
        let y = campaign::snapshot_at_cell(&world, 20.0, 7, 20);
        let a = sys.localize(&y).unwrap();
        let b = restored.localize(&y).unwrap();
        assert_eq!(a.cell, b.cell);
        assert!(a.point.distance(&b.point) < 1e-12);
    }

    #[test]
    fn snapshot_validation_rejects_corruption() {
        let (_, sys) = setup(10);
        let mut snap = sys.snapshot();
        snap.empty_rss.pop();
        assert!(TafLoc::from_snapshot(snap).is_err());

        let mut snap = sys.snapshot();
        snap.ref_cells[0] = 9999;
        assert!(TafLoc::from_snapshot(snap).is_err());

        let mut snap = sys.snapshot();
        snap.ref_cells.swap(0, 1); // now disagrees with the LRR model's order
        assert!(TafLoc::from_snapshot(snap).is_err());
    }

    #[test]
    fn z_refresh_policy_refits_correlation() {
        let world = World::new(WorldConfig::small_test(), 8);
        let x0 = campaign::full_calibration(&world, 0.0, 20);
        let e0 = campaign::empty_snapshot(&world, 0.0, 20);
        let db = FingerprintDb::from_world(x0, &world).unwrap();
        let fixed_cfg = TafLocConfig { ref_count: 6, ..Default::default() };
        let refit_cfg = TafLocConfig {
            ref_count: 6,
            z_policy: ZRefreshPolicy::RefitAfterUpdate,
            ..Default::default()
        };
        let mut fixed = TafLoc::calibrate(fixed_cfg, db.clone(), e0.clone()).unwrap();
        let mut refit = TafLoc::calibrate(refit_cfg, db, e0).unwrap();
        assert!(fixed.lrr().z().approx_eq(refit.lrr().z(), 0.0));

        let fresh = campaign::measure_columns(&world, 30.0, fixed.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, 30.0, 20);
        let z_before = fixed.lrr().z().clone();
        fixed.update(&fresh, &empty).unwrap();
        refit.update(&fresh, &empty).unwrap();
        assert!(fixed.lrr().z().approx_eq(&z_before, 0.0), "Fixed policy must keep Z");
        assert!(!refit.lrr().z().approx_eq(&z_before, 1e-12), "Refit policy must change Z");
    }

    #[test]
    fn solver_cache_is_seeded_only_by_adopt_or_restore() {
        let (world, sys) = setup(9);
        let fresh = campaign::measure_columns(&world, 20.0, sys.reference_cells(), 10);
        let empty = campaign::empty_snapshot(&world, 20.0, 10);
        let all = Mask::trues(sys.db().num_links(), sys.reference_cells().len());
        let mut cache = SolverCache::new();
        // A cold solve through the cache is the uncached solve, and a solve
        // alone teaches the cache nothing.
        let rec = sys.reconstruct_db_masked_cached(&fresh, &empty, &all, &mut cache).unwrap();
        assert!(rec.matrix.approx_eq(&sys.reconstruct_db(&fresh, &empty).unwrap().matrix, 0.0));
        assert!(cache.warm_state().is_none());
        cache.adopt(&rec);
        let warm = cache.warm_state().cloned().expect("adopted");
        assert!(warm.l().approx_eq(&rec.l, 0.0) && warm.r().approx_eq(&rec.r, 0.0));
        cache.invalidate();
        assert!(cache.warm_state().is_none());
        cache.restore(warm);
        assert!(cache.warm_state().unwrap().r().approx_eq(&rec.r, 0.0));
    }

    #[test]
    fn reconstruct_db_is_side_effect_free() {
        let (world, sys) = setup(7);
        let before = sys.db().rss().clone();
        let fresh = campaign::measure_columns(&world, 10.0, sys.reference_cells(), 10);
        let empty = campaign::empty_snapshot(&world, 10.0, 10);
        let _ = sys.reconstruct_db(&fresh, &empty).unwrap();
        assert!(sys.db().rss().approx_eq(&before, 0.0));
    }

    #[test]
    fn guard_passes_honest_solves_and_rejects_poison() {
        let (world, sys) = setup(8);
        let fresh = campaign::measure_columns(&world, 30.0, sys.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, 30.0, 20);
        let rec = sys.reconstruct_db(&fresh, &empty).unwrap();
        let all = Mask::trues(sys.db().num_links(), sys.reference_cells().len());
        let validate = |rec: &Reconstruction, guard: &ReconstructionGuard| {
            sys.validate_reconstruction_masked(rec, &fresh, &all, guard)
        };
        let guard = ReconstructionGuard::default();
        validate(&rec, &guard).unwrap();

        // A single NaN entry fails the non-finite gate.
        let mut poisoned = rec.clone();
        poisoned.matrix.set(0, 0, f64::NAN).unwrap();
        let reason = validate(&poisoned, &guard).unwrap_err();
        assert!(reason.contains("non-finite"), "{reason}");

        // A runaway bias misses the measured reference columns.
        let mut biased = rec.clone();
        biased.matrix.map_inplace(|v| v + 40.0);
        let reason = validate(&biased, &guard).unwrap_err();
        assert!(reason.contains("reference columns"), "{reason}");

        // A near-zero delta ceiling trips the bounded-delta gate even on an
        // honest solve (the DB did drift between day 0 and day 30).
        let tight = ReconstructionGuard { max_mean_delta_db: 1e-9, ..Default::default() };
        let reason = validate(&rec, &tight).unwrap_err();
        assert!(reason.contains("moves the database"), "{reason}");

        // Shape mismatch is caught before anything else.
        let mut wrong = rec.clone();
        wrong.matrix = Matrix::zeros(1, 1);
        assert!(validate(&wrong, &guard).is_err());
    }

    #[test]
    fn apply_reconstruction_matches_update() {
        let (world, mut a) = setup(9);
        let mut b = a.clone();
        let fresh = campaign::measure_columns(&world, 45.0, a.reference_cells(), 20);
        let empty = campaign::empty_snapshot(&world, 45.0, 20);
        let ra = a.update(&fresh, &empty).unwrap();
        let rec = b.reconstruct_db(&fresh, &empty).unwrap();
        let rb = b.apply_reconstruction(rec, &empty).unwrap();
        assert!(a.db().rss().approx_eq(b.db().rss(), 0.0));
        assert_eq!(ra.mean_abs_change_db, rb.mean_abs_change_db);
        assert_eq!(ra.iterations, rb.iterations);
        // Bad empty length is rejected before any mutation.
        let rec = b.reconstruct_db(&fresh, &empty).unwrap();
        assert!(b.apply_reconstruction(rec, &[0.0; 1]).is_err());
    }
}
