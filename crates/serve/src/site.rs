//! Per-site serving state: an immutable, swappable snapshot for the read
//! path plus a small mutex-guarded block of genuinely mutable state.
//!
//! The split is the whole design:
//!
//! * [`SiteSnapshot`] (calibrated [`TafLoc`] + version) lives in a
//!   [`SnapshotCell`]; `locate` clones the `Arc` and runs entirely on
//!   immutable data — concurrent requests never contend with a refresh.
//! * `SiteDynamic` holds what must mutate between requests: the drift
//!   monitor, pending reference measurements, per-stream particle filters and
//!   presence detectors. Its mutex is only held for cheap state updates,
//!   never across LoLi-IR.
//! * a dedicated `refresh` mutex serializes refreshes; reconstruction runs
//!   while holding *only* that, then publishes with one pointer swap.
//! * an [`Ingestor`] per site accepts raw timestamped link samples and
//!   assembles them into fingerprint vectors on demand (`locate-stream`);
//!   reference-cell capture windows accumulate survey streams and are
//!   promoted to [`PendingRefs`] by the maintenance loop once every
//!   reference cell has a complete vector.
//!
//! Refreshes are additionally *gated*: the reconstruction must pass the
//! policy's [`ReconstructionGuard`](tafloc_core::system::ReconstructionGuard)
//! before it is promoted. A failing solve is rolled back — the previous
//! snapshot stays live, the pending references are kept for a retried (and
//! backed-off) attempt, and enough consecutive rejections or panicking ticks
//! push the site into *quarantine*: it keeps answering `locate` from its last
//! good snapshot but sits out maintenance until a cooldown elapses or an
//! explicit `refresh` succeeds. When a [`SiteStore`] is attached, every
//! committed generation is persisted so a crash recovers to the last good
//! state.

use crate::journal::{Journal, JournalRecord};
use crate::maintenance::MaintenancePolicy;
use crate::protocol::{SiteInfo, SiteStats};
use crate::snapshot::SnapshotCell;
use crate::store::{PersistedSite, SiteStore};
use crate::{Result, ServeError};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanInputs, Planner, PlannerConfig, SurveyRecord};
use tafloc_core::detection::{Detection, DetectorConfig, PresenceDetector};
use tafloc_core::mask::Mask;
use tafloc_core::matcher::MatchResult;
use tafloc_core::monitor::{DriftMonitor, Recommendation};
use tafloc_core::system::{SolverCache, TafLoc, UpdateReport};
use tafloc_core::tracking::{ParticleFilter, TrackEstimate, TrackerConfig};
use tafloc_ingest::{
    AssembledVector, BatchReport, ClockMode, IngestConfig, Ingestor, LinkFlag, LinkSample,
};

/// The immutable state one `locate` needs, swapped wholesale on refresh.
#[derive(Debug)]
pub struct SiteSnapshot {
    /// The calibrated system (configuration, database, LRR model, graphs).
    pub system: TafLoc,
    /// Monotonic version; bumps by one on every refresh.
    pub version: u64,
    /// Deployment day of the last refresh (or of calibration for version 0).
    pub refreshed_day: f64,
}

/// Reference measurements awaiting reconstruction.
#[derive(Debug, Clone)]
pub struct PendingRefs {
    /// Deployment day of the measurement.
    pub day: f64,
    /// `M x n` fresh reference columns (site reference-cell order).
    pub columns: Matrix,
    /// Fresh empty-room baseline.
    pub empty: Vec<f64>,
    /// `M x n` per-entry observation mask for budgeted surveys: true where
    /// `columns` holds a measurement taken this round, false where it was
    /// carried forward from survey history. `None` means a full survey.
    pub mask: Option<Mask>,
}

/// The mutable half of a site.
#[derive(Debug)]
struct SiteDynamic {
    monitor: DriftMonitor,
    pending: Option<PendingRefs>,
    trackers: HashMap<String, ParticleFilter>,
    detectors: HashMap<String, PresenceDetector>,
    breach_streak: u32,
    last_estimate_db: Option<f64>,
    maintenance_checks: u64,
    auto_refreshes: u64,
    /// Refreshes the reconstruction guard rejected (lifetime).
    refresh_rejections: u64,
    /// Consecutive guard rejections / panicking ticks since the last success
    /// (drives backoff and quarantine; cleared by a committed refresh).
    consecutive_failures: u32,
    /// Why the most recent refresh was rejected, if any.
    last_reject_reason: Option<String>,
    /// Whether the site is quarantined (serving read-only, skipped by the
    /// maintenance scheduler).
    quarantined: bool,
    /// Scheduler passes left before a quarantined site is re-admitted.
    quarantine_cooldown: u32,
    /// Maintenance ticks that panicked (lifetime).
    tick_panics: u64,
    /// Snapshot saves that failed (lifetime; persistence is best-effort).
    persist_failures: u64,
    /// Remaining injected-panic budget (from `policy.debug_panic_ticks`).
    panic_budget: u32,
    /// Per-reference-cell capture ingestors (keyed by reference index, not
    /// cell id). `Arc` so a capture batch can be applied outside the mutex.
    ref_captures: HashMap<usize, Arc<Ingestor>>,
    /// Deployment day the current capture round belongs to; a batch tagged
    /// with a different day starts a fresh round.
    ref_capture_day: f64,
    /// Bounded per-reference-slot ring of past survey columns; present only
    /// once a planner is attached ([`Site::with_planning`] seeds it).
    history: Option<HistoryWindow>,
    /// The plan the next survey round should follow (produced by the last
    /// successful refresh when a planner is attached).
    current_plan: Option<MeasurementPlan>,
    /// Per-reference-slot reconstruction confidence from the last committed
    /// refresh's diagnostics.
    last_ref_confidence: Option<Vec<f64>>,
    /// Monotone survey counter: bumps once per promoted capture round or
    /// `measure-refs`, and orders the history records.
    survey_epoch: u64,
    /// Cumulative link-measurements the planner scheduled (full-survey cost
    /// when no planner is attached).
    planned_cost: u64,
    /// Cumulative link-measurements actually delivered by surveys.
    actual_cost: u64,
    /// Cumulative cost a full survey would have incurred over the same
    /// cycles.
    full_survey_cost: u64,
    /// Highest journal sequence whose record is consumed into `pending` (or
    /// superseded by a later promotion/survey); the watermark the next
    /// commit checkpoints. Stays 0 without an attached journal.
    wal_pending_seq: u64,
    /// See [`DurableView`].
    durable_view: DurableView,
}

/// The plan/journal state exactly as of the last committed refresh (or
/// restore). [`Site::to_persisted`] writes *this*, not the live values:
/// every persisted snapshot is then consistent with its `journal_watermark`
/// — the durable effects of records beyond the watermark are never in the
/// snapshot, so recovery can replay them without double-counting epochs,
/// history records, or survey costs.
#[derive(Debug, Default)]
struct DurableView {
    journal_watermark: u64,
    survey_epoch: u64,
    planned_cost: u64,
    actual_cost: u64,
    full_survey_cost: u64,
    current_plan: Option<MeasurementPlan>,
    last_ref_confidence: Option<Vec<f64>>,
    history: Option<HistoryWindow>,
}

impl SiteDynamic {
    /// Checkpoints the durable view at a refresh commit: this exact state
    /// (and watermark) goes into every snapshot persisted until the next
    /// commit.
    fn checkpoint_durable_view(&mut self) {
        self.durable_view = DurableView {
            journal_watermark: self.wal_pending_seq,
            survey_epoch: self.survey_epoch,
            planned_cost: self.planned_cost,
            actual_cost: self.actual_cost,
            full_survey_cost: self.full_survey_cost,
            current_plan: self.current_plan.clone(),
            last_ref_confidence: self.last_ref_confidence.clone(),
            history: self.history.clone(),
        };
    }
}

/// One registered site.
#[derive(Debug)]
pub struct Site {
    name: String,
    cell: SnapshotCell<SiteSnapshot>,
    dynamic: Mutex<SiteDynamic>,
    /// Serializes refreshes; never held by the read path.
    refresh: Mutex<()>,
    /// Solver workspace + warm state carried across refreshes. Only the
    /// refresh path locks it (and never while holding `dynamic`); rollback
    /// paths invalidate the warm state so a rejected solve can't seed the
    /// next one. The adopted factors ride along in every persisted snapshot,
    /// so a recovered site warm-starts its first refresh instead of paying a
    /// cold start.
    solver: Mutex<SolverCache>,
    /// Live streaming ingestion: raw link samples in, assembled vectors out.
    /// Internally sharded; callers never take the site mutexes to feed it.
    ingest: Ingestor,
    ingest_config: IngestConfig,
    ingest_shards: usize,
    policy: MaintenancePolicy,
    monitor_cells: usize,
    /// Attached snapshot store; when present, committed generations are
    /// persisted (best-effort) after every refresh and on graceful shutdown.
    store: Option<Arc<SiteStore>>,
    /// Attached measurement planner; when present, each committed refresh
    /// computes the next round's budgeted [`MeasurementPlan`].
    planner: Option<Planner>,
    /// Attached write-ahead journal; when present, every admitted
    /// survey-path record (reference-capture batch, `measure-refs` survey)
    /// is appended before it is applied, and [`Site::persist_now`] prunes
    /// records once the snapshot holding their effects is durable.
    journal: Option<Arc<Journal>>,
    stop: AtomicBool,
}

/// Rebuilds the `M x n` reference-column matrix of a journaled survey.
fn survey_matrix(columns: &[Vec<f64>]) -> Result<Matrix> {
    let n = columns.len();
    let m = columns.first().map_or(0, |c| c.len());
    let mut mat = Matrix::zeros(m, n);
    for (k, c) in columns.iter().enumerate() {
        mat.set_col(k, c).map_err(|e| ServeError::Protocol(format!("journal replay: {e}")))?;
    }
    Ok(mat)
}

fn stream_seed(site: &str, stream: &str) -> u64 {
    let mut h = DefaultHasher::new();
    site.hash(&mut h);
    stream.hash(&mut h);
    h.finish()
}

impl Site {
    /// Wraps a calibrated system for serving. `day` anchors the drift clock
    /// (the deployment day the system state corresponds to).
    pub fn new(name: &str, system: TafLoc, day: f64, policy: MaintenancePolicy) -> Result<Site> {
        Site::with_options(name, system, day, policy, IngestConfig::default(), ClockMode::default())
    }

    /// Like [`Site::new`] but with an explicit ingest configuration and stream
    /// clock mode. Deterministic harnesses pass [`ClockMode::Manual`] so the
    /// live ingestor's notion of "now" is pinned to scenario time via
    /// [`Site::advance_stream_clock`] instead of following sample arrival;
    /// reference-capture ingestors always stay sample-driven (a survey batch
    /// carries its own timeline).
    pub fn with_options(
        name: &str,
        system: TafLoc,
        day: f64,
        policy: MaintenancePolicy,
        ingest_config: IngestConfig,
        clock_mode: ClockMode,
    ) -> Result<Site> {
        let monitor_cells = policy.monitor_cells.max(1).min(system.reference_cells().len().max(1));
        let monitor = system.monitor(monitor_cells, day, policy.monitor)?;
        let num_links = system.db().num_links();
        let ingest_shards = num_links.clamp(1, 8);
        let ingest = Ingestor::with_clock(ingest_config, num_links, ingest_shards, clock_mode)?;
        Ok(Site {
            name: name.to_string(),
            cell: SnapshotCell::new(SiteSnapshot { system, version: 0, refreshed_day: day }),
            dynamic: Mutex::new(SiteDynamic {
                monitor,
                pending: None,
                trackers: HashMap::new(),
                detectors: HashMap::new(),
                breach_streak: 0,
                last_estimate_db: None,
                maintenance_checks: 0,
                auto_refreshes: 0,
                refresh_rejections: 0,
                consecutive_failures: 0,
                last_reject_reason: None,
                quarantined: false,
                quarantine_cooldown: 0,
                tick_panics: 0,
                persist_failures: 0,
                panic_budget: policy.debug_panic_ticks,
                ref_captures: HashMap::new(),
                ref_capture_day: 0.0,
                history: None,
                current_plan: None,
                last_ref_confidence: None,
                survey_epoch: 0,
                planned_cost: 0,
                actual_cost: 0,
                full_survey_cost: 0,
                wal_pending_seq: 0,
                durable_view: DurableView::default(),
            }),
            refresh: Mutex::new(()),
            solver: Mutex::new(SolverCache::new()),
            ingest,
            ingest_config,
            ingest_shards,
            policy,
            monitor_cells,
            store: None,
            planner: None,
            journal: None,
            stop: AtomicBool::new(false),
        })
    }

    /// Attaches a snapshot store: the current generation is persisted
    /// immediately (so even a site that crashes before its first refresh
    /// recovers), and every committed refresh persists the new one.
    pub fn with_persistence(mut self, store: Arc<SiteStore>) -> Result<Site> {
        self.store = Some(store);
        self.persist_now()?;
        Ok(self)
    }

    /// Attaches a measurement planner. The first survey round after this is
    /// still a full one (no diagnostics exist yet to plan from); every
    /// committed refresh then computes the next round's budgeted
    /// [`MeasurementPlan`], and subsequent capture rounds only wait for —
    /// and only count the cost of — the planned (cell, link) pairs, carrying
    /// everything else forward from the survey-history window seeded here
    /// with the current database's reference columns.
    ///
    /// On a site recovered via [`Site::from_persisted`] the persisted
    /// history window is kept as-is (and the recovered plan resumes
    /// mid-schedule) as long as its shape still matches the system and the
    /// configured depth; only a mismatch re-seeds from the database.
    pub fn with_planning(mut self, config: PlannerConfig) -> Result<Site> {
        let planner =
            Planner::new(config).map_err(|e| ServeError::Protocol(format!("planner: {e}")))?;
        let snap = self.load();
        let m = snap.system.db().num_links();
        let ref_cells = snap.system.reference_cells();
        let n = ref_cells.len();
        {
            let mut d = self.lock_dynamic();
            let restored = d.history.as_ref().is_some_and(|h| {
                h.n_slots() == n && h.n_links() == m && h.depth() == config.history_depth
            });
            if !restored {
                let mut history = HistoryWindow::new(n, m, config.history_depth)
                    .map_err(|e| ServeError::Protocol(format!("planner history: {e}")))?;
                for (k, &cell) in ref_cells.iter().enumerate() {
                    let record = SurveyRecord {
                        epoch: 0,
                        y: snap.system.db().rss().col(cell),
                        fresh: vec![true; m],
                    };
                    history
                        .record(k, record)
                        .map_err(|e| ServeError::Protocol(format!("planner history: {e}")))?;
                }
                d.history = Some(history);
                // A mismatched recovered plan can't be followed either.
                d.current_plan = None;
                d.durable_view.history = d.history.clone();
                d.durable_view.current_plan = None;
            }
        }
        self.planner = Some(planner);
        Ok(self)
    }

    /// Attaches a write-ahead journal. Admitted survey-path records
    /// (reference-capture batches, `measure-refs` surveys) are appended
    /// before they are applied; [`Site::persist_now`] prunes them once a
    /// snapshot holding their effects is durable. Attach before serving —
    /// records recovered by [`Journal::open`] are re-applied separately with
    /// [`Site::replay_journal`].
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Site {
        self.journal = Some(journal);
        self
    }

    /// The attached write-ahead journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Re-applies records recovered by [`Journal::open`] through the same
    /// ingest code the live path uses, without re-appending them. Returns
    /// how many records applied cleanly; a record that no longer fits the
    /// recovered system (for example a reference slot out of range after an
    /// operator re-registered the site with a different layout) is skipped,
    /// never fatal — recovery always comes up.
    pub fn replay_journal(&self, records: &[(u64, JournalRecord)]) -> usize {
        let mut applied = 0;
        for (seq, record) in records {
            let ok = match record {
                JournalRecord::RefBatch { ref_slot, day, samples } => {
                    self.capture_batch(*ref_slot, *day, samples, false).is_ok()
                }
                JournalRecord::Survey { day, columns, empty } => survey_matrix(columns)
                    .and_then(|m| self.apply_survey(*day, m, empty.clone(), Some(*seq)))
                    .is_ok(),
            };
            if ok {
                applied += 1;
            }
        }
        applied
    }

    /// The attached measurement planner, if any.
    pub fn planner(&self) -> Option<&Planner> {
        self.planner.as_ref()
    }

    /// The measurement plan the next survey round should follow: present
    /// once a planner is attached and a committed refresh has produced
    /// diagnostics to plan from.
    pub fn current_plan(&self) -> Option<MeasurementPlan> {
        self.lock_dynamic().current_plan.clone()
    }

    /// Per-reference-slot reconstruction confidence from the last committed
    /// refresh, if any.
    pub fn last_ref_confidence(&self) -> Option<Vec<f64>> {
        self.lock_dynamic().last_ref_confidence.clone()
    }

    /// Resurrects a site from a recovered snapshot. Live stream state
    /// (ingestion windows, trackers, detectors) is inherently volatile and
    /// restarts empty; everything committed — the calibrated system at its
    /// last good generation, monitor baseline, hysteresis and health
    /// counters, quarantine state, plan schedule/history/costs, and the
    /// solver's warm factors — comes back exactly as persisted. Survey-path
    /// records admitted after the snapshot live in the write-ahead journal;
    /// the caller replays them via [`Site::replay_journal`] after attaching
    /// the journal and (when planning) re-attaching the planner.
    pub fn from_persisted(p: PersistedSite, clock_mode: ClockMode) -> Result<Site> {
        let system = TafLoc::from_snapshot(p.snapshot)?;
        let monitor_cells = p.monitor_cells.len();
        let monitor = DriftMonitor::new(
            p.monitor_stored,
            p.monitor_cells,
            p.monitor_last_update_day,
            p.monitor_config,
        )?;
        let num_links = system.db().num_links();
        let ingest_shards = num_links.clamp(1, 8);
        let ingest = Ingestor::with_clock(p.ingest, num_links, ingest_shards, clock_mode)?;
        let mut solver = SolverCache::new();
        if let Some(w) = p.warm {
            solver.restore(w);
        }
        Ok(Site {
            name: p.name,
            cell: SnapshotCell::new(SiteSnapshot {
                system,
                version: p.generation,
                refreshed_day: p.refreshed_day,
            }),
            dynamic: Mutex::new(SiteDynamic {
                monitor,
                pending: None,
                trackers: HashMap::new(),
                detectors: HashMap::new(),
                breach_streak: p.breach_streak,
                last_estimate_db: None,
                maintenance_checks: p.maintenance_checks,
                auto_refreshes: p.auto_refreshes,
                refresh_rejections: p.refresh_rejections,
                consecutive_failures: p.consecutive_failures,
                last_reject_reason: p.last_reject_reason,
                quarantined: p.quarantined,
                quarantine_cooldown: p.quarantine_cooldown,
                tick_panics: p.tick_panics,
                persist_failures: 0,
                panic_budget: p.policy.debug_panic_ticks,
                ref_captures: HashMap::new(),
                ref_capture_day: 0.0,
                history: p.history.clone(),
                current_plan: p.current_plan.clone(),
                last_ref_confidence: p.last_ref_confidence.clone(),
                survey_epoch: p.survey_epoch,
                planned_cost: p.planned_cost,
                actual_cost: p.actual_cost,
                full_survey_cost: p.full_survey_cost,
                wal_pending_seq: p.journal_watermark,
                durable_view: DurableView {
                    journal_watermark: p.journal_watermark,
                    survey_epoch: p.survey_epoch,
                    planned_cost: p.planned_cost,
                    actual_cost: p.actual_cost,
                    full_survey_cost: p.full_survey_cost,
                    current_plan: p.current_plan,
                    last_ref_confidence: p.last_ref_confidence,
                    history: p.history,
                },
            }),
            refresh: Mutex::new(()),
            solver: Mutex::new(solver),
            ingest,
            ingest_config: p.ingest,
            ingest_shards,
            policy: p.policy,
            monitor_cells,
            store: None,
            planner: None,
            journal: None,
            stop: AtomicBool::new(false),
        })
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The maintenance policy in force.
    pub fn policy(&self) -> &MaintenancePolicy {
        &self.policy
    }

    /// Maintenance-thread stop flag (raised on removal/shutdown).
    pub fn stop_flag(&self) -> &AtomicBool {
        &self.stop
    }

    /// Current snapshot (read path — never blocks behind a refresh).
    pub fn load(&self) -> Arc<SiteSnapshot> {
        self.cell.load()
    }

    fn lock_dynamic(&self) -> MutexGuard<'_, SiteDynamic> {
        match self.dynamic.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_solver(&self) -> MutexGuard<'_, SolverCache> {
        match self.solver.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Localizes one RSS vector on the current snapshot.
    pub fn locate(&self, y: &[f64]) -> Result<(MatchResult, u64)> {
        let snap = self.load();
        let fix = snap.system.localize(y)?;
        Ok((fix, snap.version))
    }

    /// Localizes many RSS vectors against one snapshot, so a whole batch is
    /// answered with a single consistent version.
    pub fn locate_batch(&self, ys: &[Vec<f64>]) -> Result<(Vec<MatchResult>, u64)> {
        let snap = self.load();
        let fixes: Result<Vec<MatchResult>> =
            ys.iter().map(|y| snap.system.localize(y).map_err(ServeError::from)).collect();
        Ok((fixes?, snap.version))
    }

    /// The site's live streaming ingestor.
    pub fn ingestor(&self) -> &Ingestor {
        &self.ingest
    }

    /// Advances the live ingestor's stream clock to `t_s` (monotone; moves
    /// forward only). Under [`ClockMode::SampleDriven`] this composes with
    /// sample-driven advancement; under [`ClockMode::Manual`] it is the *only*
    /// thing that moves time, letting a harness age windows through a total
    /// outage deterministically.
    pub fn advance_stream_clock(&self, t_s: f64) {
        self.ingest.advance_clock_to(t_s);
    }

    /// Accepts one batch of raw link samples. `ref_cell: None` feeds the live
    /// window behind `locate-stream`; `Some(k)` feeds the capture window for
    /// reference cell `k` of a day-`day` survey (promoted to pending
    /// reference columns by the maintenance loop once complete).
    pub fn ingest_samples(
        &self,
        ref_cell: Option<usize>,
        day: f64,
        samples: &[LinkSample],
    ) -> Result<BatchReport> {
        let Some(k) = ref_cell else {
            // The live locate window is deliberately not journaled: its
            // samples age out within seconds, and replaying them after a
            // restart would serve stale radio state (DESIGN.md §9).
            return Ok(self.ingest.apply_batch(samples));
        };
        self.capture_batch(k, day, samples, true)
    }

    /// Applies one reference-capture batch. `journal` is `false` only on
    /// replay, where the record being applied already sits in the journal.
    fn capture_batch(
        &self,
        k: usize,
        day: f64,
        samples: &[LinkSample],
        journal: bool,
    ) -> Result<BatchReport> {
        let n_refs = self.load().system.reference_cells().len();
        if k >= n_refs {
            return Err(ServeError::Protocol(format!(
                "ref_cell {k} out of range: the site has {n_refs} reference cells"
            )));
        }
        let mut d = self.lock_dynamic();
        // A batch for a different day starts a new survey round; stale
        // partial captures from the previous round are discarded.
        if d.ref_capture_day != day {
            d.ref_captures.clear();
            d.ref_capture_day = day;
        }
        let capture = match d.ref_captures.entry(k) {
            Entry::Occupied(e) => Arc::clone(e.get()),
            Entry::Vacant(v) => Arc::clone(v.insert(Arc::new(Ingestor::new(
                self.ingest_config,
                self.ingest.num_links(),
                self.ingest_shards,
            )?))),
        };
        match &self.journal {
            Some(j) => {
                if journal {
                    // Durability first: the batch is journaled before any of
                    // its samples become visible, so a crash at any later
                    // point replays it.
                    j.append(&JournalRecord::RefBatch {
                        ref_slot: k,
                        day,
                        samples: samples.to_vec(),
                    })?;
                }
                // Applied while still holding `dynamic`: sequence order must
                // equal apply order, or a concurrent promotion could consume
                // the round ahead of a batch the journal already admitted
                // and prune it unapplied.
                Ok(capture.apply_batch(samples))
            }
            None => {
                drop(d);
                Ok(capture.apply_batch(samples))
            }
        }
    }

    /// Assembles the live ingestion window into a fingerprint vector (links
    /// that never reported are imputed from the snapshot's empty-room
    /// baseline) and localizes it on the current snapshot.
    pub fn locate_stream(&self) -> Result<(MatchResult, AssembledVector, u64)> {
        let snap = self.load();
        let assembled = self.ingest.assemble(snap.system.empty_rss())?;
        if assembled.missing.len() == assembled.y.len() {
            return Err(ServeError::Protocol(
                "locate-stream before any samples arrived; send ingest first".into(),
            ));
        }
        let fix = snap.system.localize(&assembled.y)?;
        Ok((fix, assembled, snap.version))
    }

    /// Advances (creating on first use) the particle filter of `stream`.
    pub fn track(&self, stream: &str, y: &[f64], dt_s: f64) -> Result<TrackEstimate> {
        let snap = self.load();
        let mut d = self.lock_dynamic();
        let pf = match d.trackers.entry(stream.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(ParticleFilter::new(
                snap.system.db(),
                TrackerConfig::default(),
                stream_seed(&self.name, stream),
            )?),
        };
        Ok(pf.step(snap.system.db(), y, dt_s)?)
    }

    /// Feeds (creating on first use) the presence detector of `stream`.
    pub fn detect(&self, stream: &str, y: &[f64]) -> Result<Detection> {
        let snap = self.load();
        let mut d = self.lock_dynamic();
        let det = match d.detectors.entry(stream.to_string()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(PresenceDetector::new(
                snap.system.empty_rss().to_vec(),
                DetectorConfig::default(),
            )?),
        };
        Ok(det.update(y)?)
    }

    fn monitored_columns(&self, columns: &Matrix) -> Result<Matrix> {
        let idx: Vec<usize> = (0..self.monitor_cells).collect();
        Ok(columns.select_cols(&idx)?)
    }

    /// Stores fresh reference measurements as pending and returns the drift
    /// monitor's immediate verdict on them.
    pub fn ingest_refs(
        &self,
        day: f64,
        columns: Matrix,
        empty: Vec<f64>,
    ) -> Result<Recommendation> {
        self.apply_survey(day, columns, empty, None)
    }

    /// The `measure-refs` apply path. `replay_seq` is `Some` only when
    /// re-applying a recovered journal record (no re-append); on the live
    /// path the survey is journaled here when a journal is attached.
    fn apply_survey(
        &self,
        day: f64,
        columns: Matrix,
        empty: Vec<f64>,
        replay_seq: Option<u64>,
    ) -> Result<Recommendation> {
        let snap = self.load();
        let m = snap.system.db().num_links();
        let n = snap.system.reference_cells().len();
        if columns.shape() != (m, n) {
            return Err(ServeError::Protocol(format!(
                "measure-refs expects a {m}x{n} matrix, got {:?}",
                columns.shape()
            )));
        }
        if empty.len() != m {
            return Err(ServeError::Protocol(format!(
                "measure-refs expects an empty-room vector of length {m}, got {}",
                empty.len()
            )));
        }
        let monitored = self.monitored_columns(&columns)?;
        let mut d = self.lock_dynamic();
        // Durability first: the survey is journaled before any of its
        // effects are applied, so a crash at any later point replays it.
        let seq = match replay_seq {
            Some(seq) => Some(seq),
            None => match &self.journal {
                Some(j) => Some(j.append(&JournalRecord::Survey {
                    day,
                    columns: (0..n).map(|k| columns.col(k)).collect(),
                    empty: empty.clone(),
                })?),
                None => None,
            },
        };
        let rec = d.monitor.check(day, &monitored)?;
        d.last_estimate_db = Some(rec.estimated_error_db());
        // A full survey supersedes any in-flight capture round: promoting
        // stale partial captures over it would resurrect older radio state,
        // and the journal's watermark relies on records being consumed in
        // sequence order.
        d.ref_captures.clear();
        if let Some(seq) = seq {
            d.wal_pending_seq = seq;
        }
        // `measure-refs` is by definition a full survey: every entry was
        // measured, so the full cost was paid regardless of any plan.
        d.survey_epoch += 1;
        let epoch = d.survey_epoch;
        if let Some(h) = d.history.as_mut() {
            for k in 0..n {
                let record = SurveyRecord { epoch, y: columns.col(k), fresh: vec![true; m] };
                h.record(k, record)
                    .map_err(|e| ServeError::Protocol(format!("planner history: {e}")))?;
            }
        }
        let full = (m * n) as u64;
        d.planned_cost += full;
        d.actual_cost += full;
        d.full_survey_cost += full;
        d.pending = Some(PendingRefs { day, columns, empty, mask: None });
        Ok(rec)
    }

    /// Runs LoLi-IR on the pending reference measurements, validates the
    /// reconstruction against the policy's guard, and — only if it passes —
    /// publishes it as a new snapshot. The heavy solve happens off both the
    /// read path and the dynamic-state mutex.
    ///
    /// A guard failure *rolls back*: the previous snapshot stays live, the
    /// pending references are kept (a later `measure-refs` overwrites them;
    /// the maintenance loop retries with backoff), the rejection is counted,
    /// and enough consecutive rejections quarantine the site. A successful
    /// refresh clears the failure state, lifts any quarantine, and persists
    /// the new generation when a store is attached.
    pub fn refresh(&self) -> Result<(UpdateReport, u64)> {
        let _serialized = match self.refresh.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let pending = self.lock_dynamic().pending.clone().ok_or_else(|| {
            ServeError::Protocol(
                "no pending reference measurements; send measure-refs first".into(),
            )
        })?;
        let snap = self.load();
        let mut system = snap.system.clone();
        // Solve through the site's solver cache: reused buffers always, and a
        // warm start whenever the previous refresh's solution was adopted.
        // The guard is scoped so the solver lock is released before the
        // dynamic mutex is taken further down.
        let rec = {
            let mut solver = self.lock_solver();
            let solved = match &pending.mask {
                Some(mask) => system.reconstruct_db_masked_cached(
                    &pending.columns,
                    &pending.empty,
                    mask,
                    &mut solver,
                ),
                None => system.reconstruct_db_cached(&pending.columns, &pending.empty, &mut solver),
            };
            match solved {
                Ok(rec) => rec,
                Err(e) => {
                    // A solver failure says nothing good about the state it
                    // started from; make the retry a clean cold start.
                    solver.invalidate();
                    return Err(e.into());
                }
            }
        };
        let verdict = match &pending.mask {
            // Budgeted refresh: only the entries the plan actually measured
            // are ground truth; the carried-forward ones are reconstruction
            // targets and must not count against the guard.
            Some(mask) => system.validate_reconstruction_masked(
                &rec,
                &pending.columns,
                mask,
                &self.policy.guard,
            ),
            None => system.validate_reconstruction(&rec, &pending.columns, &self.policy.guard),
        };
        if let Err(reason) = verdict {
            // Rollback: the rejected solution must not seed the next solve.
            self.lock_solver().invalidate();
            let quarantined = self.note_failure(Some(reason.clone()));
            return Err(ServeError::RefreshRejected { reason, quarantined });
        }
        // Per-reference-slot confidence, read off before the reconstruction
        // is consumed: this is what the planner spends the next budget on.
        let ref_confidence: Vec<f64> = system
            .reference_cells()
            .iter()
            .map(|&cell| rec.diagnostics.cell_confidence[cell])
            .collect();
        // The guard accepted: this solution may seed the next refresh. Adopt
        // before `apply_reconstruction` consumes it; a failed commit revokes.
        self.lock_solver().adopt(&rec);
        let report = match system.apply_reconstruction(rec, &pending.empty) {
            Ok(report) => report,
            Err(e) => {
                self.lock_solver().invalidate();
                return Err(e.into());
            }
        };
        let monitored: Vec<usize> = system.reference_cells()[..self.monitor_cells].to_vec();
        let refreshed_cols = system.db().rss().select_cols(&monitored)?;
        let fresh_empty = system.empty_rss().to_vec();
        let n_refs = system.reference_cells().len();
        let version = snap.version + 1;
        {
            let mut d = self.lock_dynamic();
            d.monitor.record_update(pending.day, refreshed_cols)?;
            for det in d.detectors.values_mut() {
                det.rebaseline(fresh_empty.clone())?;
            }
            d.pending = None;
            d.breach_streak = 0;
            // Success wipes the failure record and lifts any quarantine: an
            // explicit `refresh` that passes the guard re-admits the site.
            d.consecutive_failures = 0;
            d.last_reject_reason = None;
            d.quarantined = false;
            d.quarantine_cooldown = 0;
            d.last_ref_confidence = Some(ref_confidence);
            if let Some(planner) = &self.planner {
                let link_health = self.ingest.link_statuses();
                let last_surveyed = d.history.as_ref().map(|h| h.last_surveyed());
                let plan = planner.plan(&PlanInputs {
                    epoch: d.survey_epoch + 1,
                    n_refs,
                    link_health: &link_health,
                    confidence: d.last_ref_confidence.as_deref(),
                    last_surveyed: last_surveyed.as_deref(),
                });
                // Planning must never fail a refresh that already committed;
                // a failed plan just means the next round is a full survey.
                d.current_plan = plan.ok();
            }
            // Commit point for durability: exactly this state (watermark
            // included) is what every snapshot persisted from here until the
            // next commit will carry, so journal records beyond the
            // watermark replay onto it without double-counting.
            d.checkpoint_durable_view();
        }
        self.cell.store(SiteSnapshot { system, version, refreshed_day: pending.day });
        // Best-effort: a full disk must not fail the refresh that already
        // committed in memory, but it is counted and visible in `stats`.
        if self.persist_now().is_err() {
            self.lock_dynamic().persist_failures += 1;
        }
        Ok((report, version))
    }

    /// Records one failure (a guard rejection when `reason` is set, a
    /// panicking tick otherwise) and returns whether the site is now
    /// quarantined. Crossing `quarantine_after` arms the cooldown.
    fn note_failure(&self, reason: Option<String>) -> bool {
        let mut d = self.lock_dynamic();
        d.consecutive_failures = d.consecutive_failures.saturating_add(1);
        if let Some(reason) = reason {
            d.refresh_rejections += 1;
            d.last_reject_reason = Some(reason);
        }
        if d.consecutive_failures >= self.policy.quarantine_after.max(1) {
            d.quarantined = true;
            d.quarantine_cooldown = self.policy.quarantine_cooldown_ticks;
        }
        d.quarantined
    }

    /// Called by the scheduler when a maintenance tick panicked. Panics count
    /// toward the same failure streak as guard rejections.
    pub fn note_tick_panic(&self) {
        self.lock_dynamic().tick_panics += 1;
        // A panic mid-tick may have left the solve half-done; whatever the
        // warm state was, it is no longer trustworthy.
        self.lock_solver().invalidate();
        self.note_failure(None);
    }

    /// The scheduler's quarantine gate: returns `true` when the site must be
    /// skipped this pass. Each skipped pass burns one cooldown tick; when the
    /// cooldown reaches zero the quarantine flag clears, but the failure
    /// streak does *not* — the site is on probation, and the next rejection
    /// re-quarantines it instantly. (A successful refresh clears everything.)
    pub fn quarantine_tick(&self) -> bool {
        let mut d = self.lock_dynamic();
        if !d.quarantined {
            return false;
        }
        if d.quarantine_cooldown > 0 {
            d.quarantine_cooldown -= 1;
            if d.quarantine_cooldown == 0 {
                d.quarantined = false;
            }
        }
        true
    }

    /// Whether the site is currently quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.lock_dynamic().quarantined
    }

    /// Multiplier the scheduler applies to the site's tick interval:
    /// `2^min(consecutive_failures, backoff_cap)`. One committed refresh
    /// resets it to 1.
    pub fn backoff_factor(&self) -> u32 {
        let f = self.lock_dynamic().consecutive_failures;
        1u32 << f.min(self.policy.backoff_cap).min(16)
    }

    /// Captures everything a restart needs as a [`PersistedSite`]. Safe to
    /// call while [`Site::refresh`] holds the refresh mutex (it only reads
    /// the snapshot cell, the solver cache, and the dynamic mutex — the
    /// latter two one at a time, never nested).
    ///
    /// Plan/journal state is written from the `DurableView` checkpointed
    /// at the last commit, not from the live values: that keeps every
    /// snapshot consistent with its `journal_watermark` even when surveys
    /// landed after the last refresh.
    pub fn to_persisted(&self) -> PersistedSite {
        let warm = self.lock_solver().warm_state().cloned();
        let snap = self.load();
        let d = self.lock_dynamic();
        PersistedSite {
            name: self.name.clone(),
            generation: snap.version,
            refreshed_day: snap.refreshed_day,
            snapshot: snap.system.snapshot(),
            monitor_stored: d.monitor.stored().clone(),
            monitor_cells: d.monitor.cells().to_vec(),
            monitor_last_update_day: d.monitor.last_update_day(),
            monitor_config: d.monitor.config(),
            breach_streak: d.breach_streak,
            maintenance_checks: d.maintenance_checks,
            auto_refreshes: d.auto_refreshes,
            refresh_rejections: d.refresh_rejections,
            consecutive_failures: d.consecutive_failures,
            last_reject_reason: d.last_reject_reason.clone(),
            quarantined: d.quarantined,
            quarantine_cooldown: d.quarantine_cooldown,
            tick_panics: d.tick_panics,
            policy: self.policy,
            ingest: self.ingest_config,
            journal_watermark: d.durable_view.journal_watermark,
            survey_epoch: d.durable_view.survey_epoch,
            planned_cost: d.durable_view.planned_cost,
            actual_cost: d.durable_view.actual_cost,
            full_survey_cost: d.durable_view.full_survey_cost,
            current_plan: d.durable_view.current_plan.clone(),
            last_ref_confidence: d.durable_view.last_ref_confidence.clone(),
            history: d.durable_view.history.clone(),
            warm,
        }
    }

    /// Persists the current generation to the attached store, if any.
    /// Returns the snapshot path when a save happened. Once the snapshot is
    /// durable, journal records at or below its watermark are pruned
    /// (best-effort — a failed prune only delays reclamation).
    pub fn persist_now(&self) -> Result<Option<PathBuf>> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let persisted = self.to_persisted();
        let watermark = persisted.journal_watermark;
        let path = store.save(&persisted)?;
        if let Some(j) = &self.journal {
            let _ = j.prune(watermark);
        }
        Ok(Some(path))
    }

    /// Promotes a finished reference-capture round into [`PendingRefs`].
    ///
    /// Without a measurement plan, a round is finished once every reference
    /// cell owns a capture window whose assembled vector is complete (no
    /// missing, no stale links); the vectors become the pending `M x n`
    /// reference columns, exactly as if they had arrived via `measure-refs`.
    ///
    /// With a plan (a planner is attached and a previous refresh produced
    /// one), only the *planned* (cell, link) pairs need live capture data;
    /// every other entry is carried forward from the survey-history window
    /// and marked unobserved in [`PendingRefs::mask`], so the refresh
    /// reconstructs it instead of trusting it. Only the planned pairs count
    /// toward the actual measurement cost.
    ///
    /// The empty-room baseline is carried forward from the current snapshot —
    /// the survey re-measures the occupied columns only. Returns whether a
    /// promotion happened.
    pub fn promote_ref_captures(&self) -> Result<bool> {
        let snap = self.load();
        let ref_cells = snap.system.reference_cells();
        let n_refs = ref_cells.len();
        let m = snap.system.db().num_links();
        let empty = snap.system.empty_rss();
        let mut d = self.lock_dynamic();
        let plan = if self.planner.is_some() { d.current_plan.clone() } else { None };

        // Completion check first: an unfinished round must change nothing.
        match &plan {
            Some(plan) => {
                if plan.entries.is_empty() {
                    // A zero-budget plan schedules no measurements; there is
                    // nothing a capture round could ever complete.
                    return Ok(false);
                }
                for e in &plan.entries {
                    let Some(capture) = d.ref_captures.get(&e.ref_slot) else {
                        return Ok(false);
                    };
                    let v = capture.assemble(empty)?;
                    if e.links.iter().any(|&l| v.flags[l] != LinkFlag::Live) {
                        return Ok(false);
                    }
                }
            }
            None => {
                if d.ref_captures.len() < n_refs {
                    return Ok(false);
                }
                for k in 0..n_refs {
                    let Some(capture) = d.ref_captures.get(&k) else {
                        return Ok(false);
                    };
                    if !capture.assemble(empty)?.is_complete() {
                        return Ok(false);
                    }
                }
            }
        }

        d.survey_epoch += 1;
        let epoch = d.survey_epoch;
        let full = (n_refs * m) as u64;
        let mut columns = Matrix::zeros(m, n_refs);
        let mask = match &plan {
            Some(plan) => {
                let mut mask = Mask::falses(m, n_refs);
                for (k, &ref_cell) in ref_cells.iter().enumerate() {
                    // Base: newest surveyed column from history (seeded at
                    // planner attach), falling back to the served database.
                    let mut y = match d.history.as_ref().and_then(|h| h.latest(k)) {
                        Some(r) => r.y.clone(),
                        None => snap.system.db().rss().col(ref_cell),
                    };
                    let mut fresh = vec![false; m];
                    if let Some(links) = plan.links_for(k) {
                        let capture = d.ref_captures.get(&k).expect("checked above");
                        let v = capture.assemble(empty)?;
                        for &l in links {
                            y[l] = v.y[l];
                            fresh[l] = true;
                            mask.set(l, k, true);
                        }
                    }
                    columns.set_col(k, &y)?;
                    if let Some(h) = d.history.as_mut() {
                        h.record(k, SurveyRecord { epoch, y, fresh })
                            .map_err(|e| ServeError::Protocol(format!("planner history: {e}")))?;
                    }
                }
                d.planned_cost += plan.planned_cost as u64;
                d.actual_cost += mask.count() as u64;
                d.full_survey_cost += full;
                Some(mask)
            }
            None => {
                for k in 0..n_refs {
                    let capture = d.ref_captures.get(&k).expect("checked above");
                    let v = capture.assemble(empty)?;
                    columns.set_col(k, &v.y)?;
                    if let Some(h) = d.history.as_mut() {
                        h.record(k, SurveyRecord { epoch, y: v.y, fresh: vec![true; m] })
                            .map_err(|e| ServeError::Protocol(format!("planner history: {e}")))?;
                    }
                }
                d.planned_cost += full;
                d.actual_cost += full;
                d.full_survey_cost += full;
                None
            }
        };
        d.pending =
            Some(PendingRefs { day: d.ref_capture_day, columns, empty: empty.to_vec(), mask });
        d.ref_captures.clear();
        if let Some(j) = &self.journal {
            // Every journaled capture batch so far is consumed into
            // `pending` (or superseded); appends happen under the dynamic
            // lock, so `last_seq` is exact here.
            d.wal_pending_seq = j.last_seq();
        }
        Ok(true)
    }

    /// One pass of the background maintenance loop: promote any finished
    /// reference-capture round, then re-check pending references against the
    /// monitor and auto-refresh when the breach streak and the monitor's
    /// cooldown both allow it. Returns the new version when a refresh was
    /// triggered.
    pub fn maintenance_tick(&self) -> Result<Option<u64>> {
        if let Some(j) = &self.journal {
            // The tick bounds the group-commit window even on an idle site:
            // anything buffered since the last flush becomes durable here.
            let _ = j.sync();
        }
        {
            let mut d = self.lock_dynamic();
            if d.panic_budget > 0 {
                // Test-only injected fault (`policy.debug_panic_ticks`); the
                // lock is released first so the panic does not poison it.
                d.panic_budget -= 1;
                drop(d);
                panic!("injected maintenance-tick panic (debug_panic_ticks)");
            }
            if d.quarantined {
                // Defense in depth: the scheduler already skips quarantined
                // sites, but a manual-tick harness reaches here directly.
                return Ok(None);
            }
        }
        self.promote_ref_captures()?;
        let trigger = {
            let mut d = self.lock_dynamic();
            d.maintenance_checks += 1;
            let Some(pending) = d.pending.clone() else {
                d.breach_streak = 0;
                return Ok(None);
            };
            let monitored = self.monitored_columns(&pending.columns)?;
            let rec = d.monitor.check(pending.day, &monitored)?;
            d.last_estimate_db = Some(rec.estimated_error_db());
            if matches!(rec, Recommendation::UpdateRecommended { .. }) {
                d.breach_streak += 1;
            } else {
                d.breach_streak = 0;
            }
            self.policy.auto_refresh && d.breach_streak >= self.policy.breach_streak.max(1)
        };
        if !trigger {
            return Ok(None);
        }
        let (_, version) = self.refresh()?;
        self.lock_dynamic().auto_refreshes += 1;
        Ok(Some(version))
    }

    /// Identity row for `list-sites`.
    pub fn info(&self) -> SiteInfo {
        let snap = self.load();
        SiteInfo {
            site: self.name.clone(),
            links: snap.system.db().num_links(),
            cells: snap.system.db().num_cells(),
            version: snap.version,
        }
    }

    /// Health row for `stats`.
    pub fn stats(&self) -> SiteStats {
        let snap = self.load();
        let d = self.lock_dynamic();
        SiteStats {
            site: self.name.clone(),
            version: snap.version,
            refreshed_day: snap.refreshed_day,
            pending_refs: d.pending.is_some(),
            estimated_error_db: d.last_estimate_db,
            maintenance_checks: d.maintenance_checks,
            auto_refreshes: d.auto_refreshes,
            refresh_rejections: d.refresh_rejections,
            last_reject_reason: d.last_reject_reason.clone(),
            consecutive_failures: d.consecutive_failures,
            quarantined: d.quarantined,
            tick_panics: d.tick_panics,
            persist_failures: d.persist_failures,
            active_trackers: d.trackers.len(),
            ingest: self.ingest.stats(),
            stream_clock_s: self.ingest.stream_clock_s(),
            active_ref_captures: d.ref_captures.len(),
            planned_cost: d.planned_cost,
            actual_cost: d.actual_cost,
            full_survey_cost: d.full_survey_cost,
            plan_policy: self.planner.as_ref().map(|p| p.config().policy.to_string()),
            // A site doesn't know its shard; the owning ShardSet fills this in.
            shard: 0,
        }
    }
}

/// Renders a [`Recommendation`] as its wire name.
pub fn recommendation_name(rec: &Recommendation) -> &'static str {
    match rec {
        Recommendation::Healthy { .. } => "healthy",
        Recommendation::UpdateRecommended { .. } => "update-recommended",
        Recommendation::Cooldown { .. } => "cooldown",
    }
}

/// Renders a [`Detection`] as a short human-readable description.
pub fn detection_detail(det: &Detection) -> String {
    match det {
        Detection::Absent => "absent".to_string(),
        Detection::PresentInstant { link, drop_db } => {
            format!("instant: link {link} dropped {drop_db:.1} dB")
        }
        Detection::PresentAccumulated { link, statistic } => {
            format!("accumulated: link {link} CUSUM {statistic:.1}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::{campaign, stream, StreamConfig, World, WorldConfig};
    use tafloc_core::db::FingerprintDb;
    use tafloc_core::system::TafLocConfig;

    const SAMPLES: usize = 20;

    fn calibrated_site(seed: u64) -> (World, Site) {
        let world = World::new(WorldConfig::small_test(), seed);
        let x0 = campaign::full_calibration(&world, 0.0, SAMPLES);
        let e0 = campaign::empty_snapshot(&world, 0.0, SAMPLES);
        let db = FingerprintDb::from_world(x0, &world).unwrap();
        let config = TafLocConfig { ref_count: 6, ..Default::default() };
        let sys = TafLoc::calibrate(config, db, e0).unwrap();
        let site = Site::new("lab", sys, 0.0, MaintenancePolicy::default()).unwrap();
        (world, site)
    }

    fn link_samples(raw: &[taf_rfsim::RawSample]) -> Vec<LinkSample> {
        raw.iter().map(|r| LinkSample::new(r.link, r.t_s, r.rss_dbm)).collect()
    }

    #[test]
    fn recommendations_and_detections_render_their_wire_names() {
        let names: Vec<&str> = [
            Recommendation::Healthy { estimated_error_db: 0.1 },
            Recommendation::UpdateRecommended { estimated_error_db: 4.0 },
            Recommendation::Cooldown { estimated_error_db: 4.0, days_remaining: 2.0 },
        ]
        .iter()
        .map(recommendation_name)
        .collect();
        assert_eq!(names, ["healthy", "update-recommended", "cooldown"]);
        assert_eq!(detection_detail(&Detection::Absent), "absent");
        let instant = Detection::PresentInstant { link: 4, drop_db: 7.26 };
        assert_eq!(detection_detail(&instant), "instant: link 4 dropped 7.3 dB");
        let cusum = Detection::PresentAccumulated { link: 1, statistic: 12.04 };
        assert_eq!(detection_detail(&cusum), "accumulated: link 1 CUSUM 12.0");
    }

    #[test]
    fn live_samples_assemble_into_a_matching_fix() {
        let (world, site) = calibrated_site(31);
        let target_cell = 5;
        let cfg = StreamConfig { duration_s: 30.0, ..Default::default() };
        let raw = stream::stream_at_cell(&world, 0.0, target_cell, &cfg, 1);
        let report = site.ingest_samples(None, 0.0, &link_samples(&raw)).unwrap();
        assert_eq!(report.total() as usize, raw.len());
        assert!(report.accepted > 0);

        let (fix, assembled, version) = site.locate_stream().unwrap();
        assert_eq!(version, 0);
        assert!(assembled.is_complete(), "all links streamed");
        assert!(assembled.y.iter().all(|v| v.is_finite()));
        let y_avg = campaign::snapshot_at_cell(&world, 0.0, target_cell, SAMPLES);
        let expected = site.load().system.localize(&y_avg).unwrap().cell;
        assert_eq!(fix.cell, expected, "stream path must agree with the averaged path");
    }

    #[test]
    fn locate_stream_without_samples_is_an_error() {
        let (_, site) = calibrated_site(32);
        assert!(site.locate_stream().is_err());
    }

    #[test]
    fn manual_clock_site_ages_windows_through_an_outage() {
        let world = World::new(WorldConfig::small_test(), 77);
        let x0 = campaign::full_calibration(&world, 0.0, SAMPLES);
        let e0 = campaign::empty_snapshot(&world, 0.0, SAMPLES);
        let db = FingerprintDb::from_world(x0, &world).unwrap();
        let config = TafLocConfig { ref_count: 6, ..Default::default() };
        let sys = TafLoc::calibrate(config, db, e0).unwrap();
        let ingest_config = IngestConfig { stale_after_s: 5.0, ..Default::default() };
        let policy = MaintenancePolicy { manual_tick: true, ..Default::default() };
        let site =
            Site::with_options("lab", sys, 0.0, policy, ingest_config, ClockMode::Manual).unwrap();
        assert!(site.policy().manual_tick);

        let cfg = StreamConfig { duration_s: 10.0, ..Default::default() };
        let raw = stream::stream_at_cell(&world, 0.0, 3, &cfg, 1);
        site.ingest_samples(None, 0.0, &link_samples(&raw)).unwrap();
        // Under a manual clock, samples alone do not move "now": nothing is
        // stale yet because the clock is still at 0.
        site.advance_stream_clock(cfg.duration_s);
        let (_, assembled, _) = site.locate_stream().unwrap();
        assert!(assembled.stale.is_empty(), "fresh stream must not be stale");
        // A total outage: no new samples, only scripted time. Every link goes
        // stale — the exact condition a sample-driven clock would mask.
        site.advance_stream_clock(cfg.duration_s + 30.0);
        let (_, assembled, _) = site.locate_stream().unwrap();
        assert_eq!(assembled.stale.len(), world.num_links(), "all links stale after outage");
    }

    #[test]
    fn locate_batch_matches_single_locates_on_one_version() {
        let (world, site) = calibrated_site(33);
        let ys: Vec<Vec<f64>> =
            (0..4).map(|c| campaign::snapshot_at_cell(&world, 0.0, c, SAMPLES)).collect();
        let single: Vec<usize> = ys.iter().map(|y| site.locate(y).unwrap().0.cell).collect();
        let (fixes, version) = site.locate_batch(&ys).unwrap();
        assert_eq!(version, 0);
        let batch: Vec<usize> = fixes.iter().map(|f| f.cell).collect();
        assert_eq!(batch, single);
        // One bad vector fails the whole batch.
        assert!(site.locate_batch(&[vec![-50.0; 2]]).is_err());
    }

    #[test]
    fn out_of_range_ref_capture_is_rejected() {
        let (_, site) = calibrated_site(34);
        let n_refs = site.load().system.reference_cells().len();
        let err =
            site.ingest_samples(Some(n_refs), 0.0, &[LinkSample::new(0, 0.0, -50.0)]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn complete_ref_captures_promote_to_pending_refs() {
        let (world, site) = calibrated_site(35);
        let ref_cells: Vec<usize> = site.load().system.reference_cells().to_vec();
        let cfg = StreamConfig { duration_s: 30.0, ..Default::default() };

        // A partial survey must not promote.
        let raw = stream::stream_at_cell(&world, 60.0, ref_cells[0], &cfg, 50);
        site.ingest_samples(Some(0), 60.0, &link_samples(&raw)).unwrap();
        assert!(!site.promote_ref_captures().unwrap());
        assert!(!site.stats().pending_refs);
        assert_eq!(site.stats().active_ref_captures, 1);

        // Completing every reference cell promotes and clears the captures.
        for (k, &cell) in ref_cells.iter().enumerate().skip(1) {
            let raw = stream::stream_at_cell(&world, 60.0, cell, &cfg, 50 + k as u64);
            site.ingest_samples(Some(k), 60.0, &link_samples(&raw)).unwrap();
        }
        assert!(site.promote_ref_captures().unwrap());
        let stats = site.stats();
        assert!(stats.pending_refs);
        assert_eq!(stats.active_ref_captures, 0);

        // The promoted columns drive a real refresh.
        let (report, version) = site.refresh().unwrap();
        assert!(report.converged);
        assert_eq!(version, 1);
        assert!(!site.stats().pending_refs);
    }

    fn survey_into(site: &Site, world: &World, day: f64, slots: &[usize], seed_base: u64) {
        let ref_cells: Vec<usize> = site.load().system.reference_cells().to_vec();
        let cfg = StreamConfig { duration_s: 30.0, ..Default::default() };
        for &k in slots {
            let raw = stream::stream_at_cell(world, day, ref_cells[k], &cfg, seed_base + k as u64);
            site.ingest_samples(Some(k), day, &link_samples(&raw)).unwrap();
        }
    }

    #[test]
    fn budgeted_round_promotes_with_history_fill_in() {
        use taf_plan::{PlanPolicy, PlannerConfig};
        let (world, site) = calibrated_site(37);
        let m = world.num_links();
        let n_refs = site.load().system.reference_cells().len();
        let full = (m * n_refs) as u64;
        // Budget = half a full survey, in whole cells.
        let budget = n_refs / 2 * m;
        let site =
            site.with_planning(PlannerConfig::new(budget, PlanPolicy::UncertaintyGreedy)).unwrap();
        assert!(site.current_plan().is_none(), "no diagnostics yet, so no plan");

        // Round 1: full survey (no plan exists), full cost.
        survey_into(&site, &world, 60.0, &(0..n_refs).collect::<Vec<_>>(), 50);
        assert!(site.promote_ref_captures().unwrap());
        let (_, version) = site.refresh().unwrap();
        assert_eq!(version, 1);
        let stats = site.stats();
        assert_eq!(
            (stats.planned_cost, stats.actual_cost, stats.full_survey_cost),
            (full, full, full)
        );
        assert_eq!(stats.plan_policy.as_deref(), Some("uncertainty-greedy"));
        let plan = site.current_plan().expect("a committed refresh must plan the next round");
        assert_eq!(plan.planned_cost, budget);
        assert!(site.last_ref_confidence().unwrap().iter().all(|c| (0.0..=1.0).contains(c)));

        // Round 2: survey only the planned cells; unplanned slots never get
        // a capture, yet the round promotes with history fill-in.
        let planned: Vec<usize> = plan.entries.iter().map(|e| e.ref_slot).collect();
        assert!(planned.len() < n_refs);
        survey_into(&site, &world, 120.0, &planned, 80);
        assert!(site.promote_ref_captures().unwrap());
        {
            let d = site.lock_dynamic();
            let pending = d.pending.as_ref().unwrap();
            let mask = pending.mask.as_ref().expect("budgeted round must carry a mask");
            assert_eq!(mask.count(), budget);
        }
        let (report, version) = site.refresh().unwrap();
        assert!(report.converged);
        assert_eq!(version, 2);
        let stats = site.stats();
        assert_eq!(stats.planned_cost, full + budget as u64);
        assert_eq!(stats.actual_cost, full + budget as u64);
        assert_eq!(stats.full_survey_cost, 2 * full);
    }

    #[test]
    fn partial_budgeted_round_does_not_promote_until_planned_cells_arrive() {
        use taf_plan::{PlanPolicy, PlannerConfig};
        let (world, site) = calibrated_site(38);
        let m = world.num_links();
        let n_refs = site.load().system.reference_cells().len();
        let site =
            site.with_planning(PlannerConfig::new(2 * m, PlanPolicy::FixedSchedule)).unwrap();
        survey_into(&site, &world, 60.0, &(0..n_refs).collect::<Vec<_>>(), 50);
        assert!(site.promote_ref_captures().unwrap());
        site.refresh().unwrap();
        let plan = site.current_plan().unwrap();
        let planned: Vec<usize> = plan.entries.iter().map(|e| e.ref_slot).collect();
        assert_eq!(planned.len(), 2);

        // Only one of the two planned cells surveyed: no promotion.
        survey_into(&site, &world, 120.0, &planned[..1], 90);
        assert!(!site.promote_ref_captures().unwrap());
        // The second arrives: the round completes.
        survey_into(&site, &world, 120.0, &planned[1..], 91);
        assert!(site.promote_ref_captures().unwrap());
    }

    #[test]
    fn planless_sites_account_full_survey_cost() {
        let (world, site) = calibrated_site(39);
        let m = world.num_links();
        let n_refs = site.load().system.reference_cells().len();
        survey_into(&site, &world, 60.0, &(0..n_refs).collect::<Vec<_>>(), 50);
        assert!(site.promote_ref_captures().unwrap());
        let stats = site.stats();
        let full = (m * n_refs) as u64;
        assert_eq!(
            (stats.planned_cost, stats.actual_cost, stats.full_survey_cost),
            (full, full, full)
        );
        assert_eq!(stats.plan_policy, None);
        assert!(site.current_plan().is_none());
    }

    #[test]
    fn a_new_survey_day_restarts_the_capture_round() {
        let (world, site) = calibrated_site(36);
        let cfg = StreamConfig { duration_s: 10.0, ..Default::default() };
        let ref_cells: Vec<usize> = site.load().system.reference_cells().to_vec();
        let raw = stream::stream_at_cell(&world, 30.0, ref_cells[0], &cfg, 9);
        site.ingest_samples(Some(0), 30.0, &link_samples(&raw)).unwrap();
        assert_eq!(site.stats().active_ref_captures, 1);
        // Same cell, different day: the stale partial round is discarded.
        let raw = stream::stream_at_cell(&world, 60.0, ref_cells[1], &cfg, 10);
        site.ingest_samples(Some(1), 60.0, &link_samples(&raw)).unwrap();
        let stats = site.stats();
        assert_eq!(stats.active_ref_captures, 1, "day change restarts the round");
    }
}
