//! Per-site serving state: an immutable, swappable snapshot for the read
//! path plus a small mutex-guarded block of genuinely mutable state.
//!
//! The split is the whole design:
//!
//! * [`SiteSnapshot`] (calibrated [`TafLoc`] + version) lives in a
//!   [`SnapshotCell`]; `locate` clones the `Arc` and runs entirely on
//!   immutable data — concurrent requests never contend with a refresh.
//! * `SiteDynamic` holds what must mutate between requests: the drift
//!   monitor, pending reference measurements, reference-capture windows,
//!   health counters and plan state. Its mutex is only held for cheap state
//!   updates, never across LoLi-IR.
//! * a dedicated `refresh` mutex serializes refreshes; reconstruction runs
//!   while holding *only* that, then publishes with one pointer swap.
//! * an [`Ingestor`] per site accepts raw timestamped link samples and
//!   assembles them into fingerprint vectors on demand (`locate-stream`);
//!   reference-cell capture windows accumulate survey streams and are
//!   promoted to [`PendingRefs`] by the maintenance loop once the round
//!   has delivered every link it was asked for: the planned ones, or every
//!   link of every reference cell when no plan is in force.
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

use crate::journal::{Journal, JournalConfig, JournalRecord};
use crate::maintenance::MaintenancePolicy;
use crate::protocol::{SiteInfo, SiteStats};
use crate::snapshot::SnapshotCell;
use crate::store::{PersistedSite, SiteHealth, SiteStore};
use crate::{Result, ServeError};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanInputs, Planner, PlannerConfig, SurveyRecord};
use tafloc_core::mask::Mask;
use tafloc_core::matcher::MatchResult;
use tafloc_core::monitor::{DriftMonitor, Recommendation};
use tafloc_core::system::{SolverCache, TafLoc, UpdateReport};
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
    /// `M x n` per-entry observation mask: true where `columns` holds a
    /// measurement taken this round, false where it was carried forward from
    /// survey history. A full survey (`measure-refs`, or a capture round with
    /// no plan in force) is all true.
    pub mask: Mask,
}

/// The mutable half of a site.
#[derive(Debug)]
struct SiteDynamic {
    monitor: DriftMonitor,
    pending: Option<PendingRefs>,
    last_estimate_db: Option<f64>,
    health: SiteHealth,
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
    /// Plan and journal state as surveys and refreshes move it.
    live: PlanState,
    /// `live` as of the last committed refresh (or restore).
    /// [`Site::to_persisted`] writes *this*, not the live values: every
    /// persisted snapshot is then consistent with its `journal_watermark` —
    /// the durable effects of records beyond the watermark are never in the
    /// snapshot, so recovery can replay them without double-counting epochs,
    /// history records, or survey costs.
    committed: PlanState,
}

/// The plan and journal state a snapshot carries, held twice by
/// `SiteDynamic`: live, and as of the last commit.
#[derive(Debug, Clone, Default, PartialEq)]
struct PlanState {
    /// Highest journal sequence whose record is consumed into `pending` (or
    /// superseded by a later promotion/survey); the watermark the next
    /// commit checkpoints. Stays 0 without an attached journal.
    journal_watermark: u64,
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
    /// The plan the next survey round should follow (produced by the last
    /// successful refresh when a planner is attached).
    current_plan: Option<MeasurementPlan>,
    /// Per-reference-slot reconstruction confidence from the last committed
    /// refresh's diagnostics.
    last_ref_confidence: Option<Vec<f64>>,
    /// Bounded per-reference-slot ring of past survey columns; present only
    /// once a planner is attached ([`Site::with_planning`] seeds it).
    history: Option<HistoryWindow>,
}

impl SiteDynamic {
    /// Commits one survey round, a `measure-refs` survey or a promoted
    /// capture round alike: bumps the survey epoch, records each slot's
    /// column in the history window with `fresh` set to that slot's mask
    /// column, adds the round's costs, makes it the pending refresh input
    /// and ends the capture round. `plan` is the plan the round followed;
    /// without one the planned cost is the full-survey cost. The actual cost
    /// is the entries measured, `round.mask.count()`. The caller sets the
    /// journal watermark.
    fn commit_round(&mut self, round: PendingRefs, plan: Option<&MeasurementPlan>) -> Result<()> {
        let (m, n) = round.mask.shape();
        let full = (m * n) as u64;
        self.live.survey_epoch += 1;
        let epoch = self.live.survey_epoch;
        if let Some(h) = self.live.history.as_mut() {
            for k in 0..n {
                let fresh = (0..m).map(|l| round.mask.get(l, k)).collect();
                h.record(k, SurveyRecord { epoch, y: round.columns.col(k), fresh })
                    .map_err(|e| ServeError::Protocol(format!("planner history: {e}")))?;
            }
        }
        self.live.planned_cost += plan.map_or(full, |p| p.planned_cost as u64);
        self.live.actual_cost += round.mask.count() as u64;
        self.live.full_survey_cost += full;
        self.pending = Some(round);
        self.ref_captures.clear();
        Ok(())
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
    /// The mutex is held across each save, so [`Site::detach_store`] waits
    /// out a save in progress.
    store: Mutex<Option<Arc<SiteStore>>>,
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

/// Refuses a non-finite deployment day before anything is journaled or
/// applied. The drift clock, the monitor's cooldown and the capture round
/// all compare days: an infinite day would hold every later check in
/// cooldown, and a NaN one would restart the capture round on every batch.
fn check_day(day: f64) -> Result<()> {
    if day.is_finite() {
        Ok(())
    } else {
        Err(ServeError::Protocol(format!("day must be a finite number, got {day}")))
    }
}

impl Site {
    /// Wraps a calibrated system for serving. `day` anchors the drift clock
    /// (the deployment day the system state corresponds to) and must be
    /// finite.
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
        check_day(day)?;
        let monitor_cells = policy.monitor_cells.max(1).min(system.reference_cells().len().max(1));
        let monitor = system.monitor(monitor_cells, day, policy.monitor)?;
        let snapshot = SiteSnapshot { system, version: 0, refreshed_day: day };
        Site::assemble(name.to_string(), snapshot, monitor, policy, ingest_config, clock_mode)
    }

    /// The one place a site is put together: `snapshot` served, a fresh
    /// ingestor, zeroed counters and empty plan state.
    /// [`Site::from_persisted`] then restores what was persisted.
    fn assemble(
        name: String,
        snapshot: SiteSnapshot,
        monitor: DriftMonitor,
        policy: MaintenancePolicy,
        ingest_config: IngestConfig,
        clock_mode: ClockMode,
    ) -> Result<Site> {
        let monitor_cells = monitor.cells().len();
        let num_links = snapshot.system.db().num_links();
        let ingest_shards = num_links.clamp(1, 8);
        let ingest = Ingestor::with_clock(ingest_config, num_links, ingest_shards, clock_mode)?;
        Ok(Site {
            name,
            cell: SnapshotCell::new(snapshot),
            dynamic: Mutex::new(SiteDynamic {
                monitor,
                pending: None,
                last_estimate_db: None,
                health: SiteHealth::default(),
                persist_failures: 0,
                panic_budget: policy.debug_panic_ticks,
                ref_captures: HashMap::new(),
                ref_capture_day: 0.0,
                live: PlanState::default(),
                committed: PlanState::default(),
            }),
            refresh: Mutex::new(()),
            solver: Mutex::new(SolverCache::new()),
            ingest,
            ingest_config,
            ingest_shards,
            policy,
            monitor_cells,
            store: Mutex::new(None),
            planner: None,
            journal: None,
            stop: AtomicBool::new(false),
        })
    }

    /// Attaches a snapshot store: the current generation is persisted
    /// immediately (so even a site that crashes before its first refresh
    /// recovers), and every committed refresh persists the new one.
    pub fn with_persistence(mut self, store: Arc<SiteStore>) -> Result<Site> {
        *self.store.get_mut().unwrap_or_else(|p| p.into_inner()) = Some(store);
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
            let restored = d.live.history.as_ref().is_some_and(|h| {
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
                d.live.history = Some(history);
                // A mismatched recovered plan can't be followed either.
                d.live.current_plan = None;
                d.committed.history = d.live.history.clone();
                d.committed.current_plan = None;
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

    /// Puts a freshly registered site on the durability stack: a clean
    /// write-ahead journal in the store's directory (leftover segments from
    /// a previous site of the same name are deleted first — their records
    /// describe a system that no longer exists), then the snapshot store,
    /// which persists the current generation immediately. The daemon calls
    /// this under its bring-up lock, so no other bring-up of the name
    /// touches its files meanwhile.
    pub fn with_durability(self, store: Arc<SiteStore>, journal: JournalConfig) -> Result<Site> {
        store.discard_journal(&self.name)?;
        let stem = SiteStore::stem(&self.name);
        let (journal, _) = Journal::open(store.dir(), &stem, journal, 0)?;
        self.with_journal(Arc::new(journal)).with_persistence(store)
    }

    /// The attached write-ahead journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Re-applies records recovered by [`Journal::open`] through the same
    /// ingest code the live path uses, without re-appending them. Returns
    /// how many records applied cleanly; a record that no longer fits the
    /// recovered system (for example a reference slot out of range after an
    /// operator re-registered the site with a different layout, or a day
    /// that is not finite) is skipped, never fatal — recovery always comes
    /// up.
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

    /// The measurement plan the next survey round should follow: present
    /// once a planner is attached and a committed refresh has produced
    /// diagnostics to plan from.
    pub fn current_plan(&self) -> Option<MeasurementPlan> {
        self.lock_dynamic().live.current_plan.clone()
    }

    /// Resurrects a site from a recovered snapshot. Live stream state (the
    /// ingestion windows) is inherently volatile and restarts empty; everything committed — the calibrated system at its
    /// last good generation, monitor baseline, hysteresis and health
    /// counters, quarantine state, plan schedule/history/costs, and the
    /// solver's warm factors — comes back exactly as persisted. Survey-path
    /// records admitted after the snapshot live in the write-ahead journal;
    /// [`Site::recover`] replays them after re-attaching the planner and
    /// the journal.
    pub fn from_persisted(p: PersistedSite, clock_mode: ClockMode) -> Result<Site> {
        let system = TafLoc::from_snapshot(p.snapshot)?;
        let monitor = DriftMonitor::new(
            p.monitor_stored,
            p.monitor_cells,
            p.monitor_last_update_day,
            p.monitor_config,
        )?;
        let snapshot =
            SiteSnapshot { system, version: p.generation, refreshed_day: p.refreshed_day };
        let site = Site::assemble(p.name, snapshot, monitor, p.policy, p.ingest, clock_mode)?;
        {
            let mut d = site.lock_dynamic();
            d.health = p.health;
            d.live = PlanState {
                journal_watermark: p.journal_watermark,
                survey_epoch: p.survey_epoch,
                planned_cost: p.planned_cost,
                actual_cost: p.actual_cost,
                full_survey_cost: p.full_survey_cost,
                current_plan: p.current_plan,
                last_ref_confidence: p.last_ref_confidence,
                history: p.history,
            };
            d.committed = d.live.clone();
        }
        if let Some(w) = p.warm {
            site.lock_solver().restore(w);
        }
        Ok(site)
    }

    /// Brings a persisted site back, in this order:
    /// [`Site::from_persisted`]; the planner, when `plan` is set; the
    /// write-ahead journal, opened at the snapshot's watermark; a replay of
    /// the records past it; the snapshot store. `taflocd` recovers every
    /// site through this on startup. Returns the site, the number of
    /// records replayed cleanly and the number read.
    pub fn recover(
        persisted: PersistedSite,
        store: Arc<SiteStore>,
        journal: JournalConfig,
        plan: Option<PlannerConfig>,
        clock_mode: ClockMode,
    ) -> Result<(Site, usize, usize)> {
        let watermark = persisted.journal_watermark;
        let mut site = Site::from_persisted(persisted, clock_mode)?;
        if let Some(plan) = plan {
            site = site.with_planning(plan)?;
        }
        let stem = SiteStore::stem(&site.name);
        let (journal, recovery) = Journal::open(store.dir(), &stem, journal, watermark)?;
        let site = site.with_journal(Arc::new(journal));
        let replayed = site.replay_journal(&recovery.records);
        Ok((site.with_persistence(store)?, replayed, recovery.records.len()))
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
    /// window behind `locate-stream` and ignores `day`; `Some(k)` feeds the
    /// capture window for reference cell `k` of a day-`day` survey (promoted
    /// to pending reference columns by the maintenance loop once complete),
    /// and refuses a non-finite `day`.
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
        check_day(day)?;
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

    fn monitored_columns(&self, columns: &Matrix) -> Result<Matrix> {
        let idx: Vec<usize> = (0..self.monitor_cells).collect();
        Ok(columns.select_cols(&idx)?)
    }

    /// Stores fresh reference measurements as pending and returns the drift
    /// monitor's immediate verdict on them. A non-finite `day` is refused.
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
        check_day(day)?;
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
        if let Some(seq) = seq {
            d.live.journal_watermark = seq;
        }
        // `measure-refs` is by definition a full survey: every entry was
        // measured, so the full cost was paid regardless of any plan. It
        // supersedes any in-flight capture round: promoting stale partial
        // captures over it would resurrect older radio state, and the
        // journal's watermark relies on records being consumed in sequence
        // order.
        d.commit_round(PendingRefs { day, columns, empty, mask: Mask::trues(m, n) }, None)?;
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
        let (columns, empty, mask) = (&pending.columns, &pending.empty, &pending.mask);
        let rec = {
            let mut solver = self.lock_solver();
            match system.reconstruct_db_masked_cached(columns, empty, mask, &mut solver) {
                Ok(rec) => rec,
                Err(e) => {
                    // A solver failure says nothing good about the state it
                    // started from; make the retry a clean cold start.
                    solver.invalidate();
                    return Err(e.into());
                }
            }
        };
        // Only the entries measured this round are ground truth; the
        // carried-forward ones are reconstruction targets and must not count
        // against the guard.
        if let Err(reason) =
            system.validate_reconstruction_masked(&rec, columns, mask, &self.policy.guard)
        {
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
        let report = match system.apply_reconstruction(rec, empty) {
            Ok(report) => report,
            Err(e) => {
                self.lock_solver().invalidate();
                return Err(e.into());
            }
        };
        let monitored: Vec<usize> = system.reference_cells()[..self.monitor_cells].to_vec();
        let refreshed_cols = system.db().rss().select_cols(&monitored)?;
        let n_refs = system.reference_cells().len();
        let version = snap.version + 1;
        {
            let mut d = self.lock_dynamic();
            d.monitor.record_update(pending.day, refreshed_cols)?;
            d.pending = None;
            d.health.breach_streak = 0;
            // Success wipes the failure record and lifts any quarantine: an
            // explicit `refresh` that passes the guard re-admits the site.
            d.health.consecutive_failures = 0;
            d.health.last_reject_reason = None;
            d.health.quarantined = false;
            d.health.quarantine_cooldown = 0;
            d.live.last_ref_confidence = Some(ref_confidence);
            if let Some(planner) = &self.planner {
                let link_health = self.ingest.link_statuses();
                let last_surveyed = d.live.history.as_ref().map(|h| h.last_surveyed());
                let plan = planner.plan(&PlanInputs {
                    epoch: d.live.survey_epoch + 1,
                    n_refs,
                    link_health: &link_health,
                    confidence: d.live.last_ref_confidence.as_deref(),
                    last_surveyed: last_surveyed.as_deref(),
                });
                // Planning must never fail a refresh that already committed;
                // a failed plan just means the next round is a full survey.
                d.live.current_plan = plan.ok();
            }
            // Commit point for durability: exactly this state (watermark
            // included) is what every snapshot persisted from here until the
            // next commit will carry, so journal records beyond the
            // watermark replay onto it without double-counting.
            d.committed = d.live.clone();
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
        d.health.consecutive_failures = d.health.consecutive_failures.saturating_add(1);
        if let Some(reason) = reason {
            d.health.refresh_rejections += 1;
            d.health.last_reject_reason = Some(reason);
        }
        if d.health.consecutive_failures >= self.policy.quarantine_after.max(1) {
            d.health.quarantined = true;
            d.health.quarantine_cooldown = self.policy.quarantine_cooldown_ticks;
        }
        d.health.quarantined
    }

    /// Called by the scheduler when a maintenance tick panicked. Panics count
    /// toward the same failure streak as guard rejections.
    pub fn note_tick_panic(&self) {
        self.lock_dynamic().health.tick_panics += 1;
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
        if !d.health.quarantined {
            return false;
        }
        if d.health.quarantine_cooldown > 0 {
            d.health.quarantine_cooldown -= 1;
            if d.health.quarantine_cooldown == 0 {
                d.health.quarantined = false;
            }
        }
        true
    }

    /// Whether the site is currently quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.lock_dynamic().health.quarantined
    }

    /// Multiplier the scheduler applies to the site's tick interval:
    /// `2^min(consecutive_failures, backoff_cap)`. One committed refresh
    /// resets it to 1.
    pub fn backoff_factor(&self) -> u32 {
        let f = self.lock_dynamic().health.consecutive_failures;
        1u32 << f.min(self.policy.backoff_cap).min(16)
    }

    /// Captures everything a restart needs as a [`PersistedSite`]. Safe to
    /// call while [`Site::refresh`] holds the refresh mutex (it only reads
    /// the snapshot cell, the solver cache, and the dynamic mutex — the
    /// latter two one at a time, never nested).
    ///
    /// Plan/journal state is written from the copy checkpointed at the
    /// last commit, not from the live values: that keeps every
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
            health: d.health.clone(),
            policy: self.policy,
            ingest: self.ingest_config,
            journal_watermark: d.committed.journal_watermark,
            survey_epoch: d.committed.survey_epoch,
            planned_cost: d.committed.planned_cost,
            actual_cost: d.committed.actual_cost,
            full_survey_cost: d.committed.full_survey_cost,
            current_plan: d.committed.current_plan.clone(),
            last_ref_confidence: d.committed.last_ref_confidence.clone(),
            history: d.committed.history.clone(),
            warm,
        }
    }

    /// Persists the current generation to the attached store, if any.
    /// Returns the snapshot path when a save happened. Once the snapshot is
    /// durable, sealed journal segments at or below its watermark are
    /// deleted (best-effort — a failed prune only delays reclamation).
    pub fn persist_now(&self) -> Result<Option<PathBuf>> {
        let store = self.store.lock().unwrap_or_else(|p| p.into_inner());
        let Some(store) = store.as_ref() else {
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

    /// Detaches the snapshot store and returns it (`remove-site`). A save in
    /// progress finishes first, and no later [`Site::persist_now`] writes
    /// anything, so the caller may then delete the site's files.
    pub(crate) fn detach_store(&self) -> Option<Arc<SiteStore>> {
        self.store.lock().unwrap_or_else(|p| p.into_inner()).take()
    }

    /// Promotes a finished reference-capture round into [`PendingRefs`].
    ///
    /// A round must deliver, live, the (cell, link) pairs it was asked for:
    /// the planned pairs when a plan is in force (a planner is attached and a
    /// previous refresh produced one), and otherwise every link of every
    /// reference cell, a full survey. Each pending column starts from the
    /// newest surveyed column in the history window (or the served database)
    /// and takes every delivered link from its capture window, so a full
    /// round's columns are exactly the assembled vectors. The delivered
    /// entries are the true ones of [`PendingRefs::mask`]; the refresh
    /// reconstructs the rest instead of trusting them, and only delivered
    /// entries count toward the actual measurement cost.
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
        let plan = if self.planner.is_some() { d.live.current_plan.clone() } else { None };
        if plan.as_ref().is_some_and(|p| p.entries.is_empty()) {
            // A zero-budget plan schedules no measurements; there is nothing
            // a capture round could ever complete.
            return Ok(false);
        }
        let every_link: Vec<usize> = (0..m).collect();
        let wanted = |k: usize| match &plan {
            Some(plan) => plan.links_for(k),
            None => Some(every_link.as_slice()),
        };

        // Columns and mask stay local until the commit, so an unfinished
        // round returns having changed nothing.
        let mut columns = Matrix::zeros(m, n_refs);
        let mut mask = Mask::falses(m, n_refs);
        for (k, &ref_cell) in ref_cells.iter().enumerate() {
            let mut y = match d.live.history.as_ref().and_then(|h| h.latest(k)) {
                Some(r) => r.y.clone(),
                None => snap.system.db().rss().col(ref_cell),
            };
            if let Some(links) = wanted(k) {
                let Some(capture) = d.ref_captures.get(&k) else {
                    return Ok(false);
                };
                let v = capture.assemble(empty)?;
                if links.iter().any(|&l| v.flags[l] != LinkFlag::Live) {
                    return Ok(false);
                }
                for &l in links {
                    y[l] = v.y[l];
                    mask.set(l, k, true);
                }
            }
            columns.set_col(k, &y)?;
        }
        let round = PendingRefs { day: d.ref_capture_day, columns, empty: empty.to_vec(), mask };
        d.commit_round(round, plan.as_ref())?;
        if let Some(j) = &self.journal {
            // Every journaled capture batch so far is consumed into
            // `pending` (or superseded); appends happen under the dynamic
            // lock, so `last_seq` is exact here.
            d.live.journal_watermark = j.last_seq();
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
            if d.health.quarantined {
                // Defense in depth: the scheduler already skips quarantined
                // sites, but a manual-tick harness reaches here directly.
                return Ok(None);
            }
        }
        self.promote_ref_captures()?;
        let trigger = {
            let mut d = self.lock_dynamic();
            d.health.maintenance_checks += 1;
            let Some(pending) = d.pending.clone() else {
                d.health.breach_streak = 0;
                return Ok(None);
            };
            let monitored = self.monitored_columns(&pending.columns)?;
            let rec = d.monitor.check(pending.day, &monitored)?;
            d.last_estimate_db = Some(rec.estimated_error_db());
            if matches!(rec, Recommendation::UpdateRecommended { .. }) {
                d.health.breach_streak += 1;
            } else {
                d.health.breach_streak = 0;
            }
            self.policy.auto_refresh && d.health.breach_streak >= self.policy.breach_streak.max(1)
        };
        if !trigger {
            return Ok(None);
        }
        let (_, version) = self.refresh()?;
        self.lock_dynamic().health.auto_refreshes += 1;
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
            maintenance_checks: d.health.maintenance_checks,
            auto_refreshes: d.health.auto_refreshes,
            refresh_rejections: d.health.refresh_rejections,
            last_reject_reason: d.health.last_reject_reason.clone(),
            consecutive_failures: d.health.consecutive_failures,
            quarantined: d.health.quarantined,
            tick_panics: d.health.tick_panics,
            persist_failures: d.persist_failures,
            ingest: self.ingest.stats(),
            stream_clock_s: self.ingest.stream_clock_s(),
            active_ref_captures: d.ref_captures.len(),
            planned_cost: d.live.planned_cost,
            actual_cost: d.live.actual_cost,
            full_survey_cost: d.live.full_survey_cost,
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

    #[test]
    fn recommendations_render_their_wire_names() {
        let names: Vec<&str> = [
            Recommendation::Healthy { estimated_error_db: 0.1 },
            Recommendation::UpdateRecommended { estimated_error_db: 4.0 },
            Recommendation::Cooldown { estimated_error_db: 4.0, days_remaining: 2.0 },
        ]
        .iter()
        .map(recommendation_name)
        .collect();
        assert_eq!(names, ["healthy", "update-recommended", "cooldown"]);
    }

    #[test]
    fn live_samples_assemble_into_a_matching_fix() {
        let (world, site) = calibrated_site(31);
        let target_cell = 5;
        let cfg = StreamConfig { duration_s: 30.0, ..Default::default() };
        let raw = stream::stream_at_cell(&world, 0.0, target_cell, &cfg, 1);
        let report = site.ingest_samples(None, 0.0, &raw).unwrap();
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
        site.ingest_samples(None, 0.0, &raw).unwrap();
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
        site.ingest_samples(Some(0), 60.0, &raw).unwrap();
        assert!(!site.promote_ref_captures().unwrap());
        assert!(!site.stats().pending_refs);
        assert_eq!(site.stats().active_ref_captures, 1);

        // Completing every reference cell promotes and clears the captures.
        for (k, &cell) in ref_cells.iter().enumerate().skip(1) {
            let raw = stream::stream_at_cell(&world, 60.0, cell, &cfg, 50 + k as u64);
            site.ingest_samples(Some(k), 60.0, &raw).unwrap();
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
            site.ingest_samples(Some(k), day, &raw).unwrap();
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
        let confidence = site.to_persisted().last_ref_confidence.unwrap();
        assert!(confidence.iter().all(|c| (0.0..=1.0).contains(c)));

        // Round 2: survey only the planned cells; unplanned slots never get
        // a capture, yet the round promotes with history fill-in.
        let planned: Vec<usize> = plan.entries.iter().map(|e| e.ref_slot).collect();
        assert!(planned.len() < n_refs);
        survey_into(&site, &world, 120.0, &planned, 80);
        assert!(site.promote_ref_captures().unwrap());
        {
            let d = site.lock_dynamic();
            let pending = d.pending.as_ref().unwrap();
            assert_eq!(pending.mask.count(), budget);
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

    /// A capture round with no plan in force and a `measure-refs` survey of
    /// the same columns are one full survey: both commit through one path,
    /// so the pending round, the plan state and the refreshed database match
    /// bit for bit.
    #[test]
    fn a_full_capture_round_commits_like_measure_refs() {
        use taf_plan::{PlanPolicy, PlannerConfig};
        let plan = PlannerConfig::new(12, PlanPolicy::FixedSchedule);
        let (world, captured) = calibrated_site(41);
        let (_, surveyed) = calibrated_site(41);
        let (captured, surveyed) =
            (captured.with_planning(plan).unwrap(), surveyed.with_planning(plan).unwrap());
        let n_refs = captured.load().system.reference_cells().len();
        survey_into(&captured, &world, 60.0, &(0..n_refs).collect::<Vec<_>>(), 50);
        assert!(captured.promote_ref_captures().unwrap());
        let round = captured.lock_dynamic().pending.clone().unwrap();
        let empty = surveyed.load().system.empty_rss().to_vec();
        surveyed.ingest_refs(60.0, round.columns.clone(), empty).unwrap();

        let other = surveyed.lock_dynamic().pending.clone().unwrap();
        assert!(round.columns.approx_eq(&other.columns, 0.0));
        assert_eq!((round.day, &round.empty), (other.day, &other.empty));
        assert_eq!(round.mask.count(), world.num_links() * n_refs, "all true");
        assert_eq!(round.mask, other.mask);
        assert_eq!(captured.lock_dynamic().live, surveyed.lock_dynamic().live);

        captured.refresh().unwrap();
        surveyed.refresh().unwrap();
        let (a, b) = (captured.load(), surveyed.load());
        assert!(a.system.db().rss().approx_eq(b.system.db().rss(), 0.0));
        assert_eq!(captured.lock_dynamic().live, surveyed.lock_dynamic().live);
    }

    /// The daemon's bring-up order: planner, then durability. Generation 0
    /// then already carries the seeded history, and a site killed before
    /// its first refresh comes back through `Site::recover` with the live
    /// site's plan state, its journaled survey replayed.
    #[test]
    fn a_planned_site_killed_before_its_first_refresh_recovers_its_plan_state() {
        use taf_plan::{PlanPolicy, PlannerConfig};
        let (world, site) = calibrated_site(40);
        let dir = std::env::temp_dir().join(format!("tafloc-site-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SiteStore::open(&dir).unwrap());
        let journal = JournalConfig { flush_interval: std::time::Duration::ZERO };
        let plan = PlannerConfig::new(12, PlanPolicy::FixedSchedule);
        let site = site.with_planning(plan).unwrap();
        let site = site.with_durability(Arc::clone(&store), journal).unwrap();
        let ref_cells = site.load().system.reference_cells().to_vec();
        let columns = campaign::measure_columns(&world, 30.0, &ref_cells, SAMPLES);
        let empty = campaign::empty_snapshot(&world, 30.0, SAMPLES);
        site.ingest_refs(30.0, columns, empty).unwrap();
        let live = site.lock_dynamic().live.clone();
        assert!(live.planned_cost > 0 && live.history.is_some());
        drop(site); // the kill

        let persisted = store.recover_all().unwrap().sites.remove(0);
        assert!(persisted.history.is_some(), "generation 0 carries the seeded history");
        let (revived, replayed, read) =
            Site::recover(persisted, store, journal, Some(plan), ClockMode::default()).unwrap();
        assert_eq!((replayed, read), (1, 1));
        assert_eq!(revived.lock_dynamic().live, live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A site registered over a previous site's leftover journal segments
    /// of the same name starts from an empty journal, so a crash-restart
    /// replays none of the leftover records.
    #[test]
    fn a_site_registered_over_leftover_journal_segments_replays_none_of_them() {
        let (world, site) = calibrated_site(42);
        let dir = std::env::temp_dir().join(format!("tafloc-site-leftover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(SiteStore::open(&dir).unwrap());
        let journal = JournalConfig { flush_interval: std::time::Duration::ZERO };
        let ref_cells = site.load().system.reference_cells().to_vec();
        let cfg = StreamConfig { duration_s: 10.0, ..Default::default() };
        let samples = stream::stream_at_cell(&world, 30.0, ref_cells[0], &cfg, 11);
        {
            let stem = SiteStore::stem("lab");
            let (old, _) = Journal::open(&dir, &stem, journal, 0).unwrap();
            for day in [30.0, 31.0] {
                let record = JournalRecord::RefBatch { ref_slot: 0, day, samples: samples.clone() };
                old.append(&record).unwrap();
            }
        }
        let site = site.with_durability(Arc::clone(&store), journal).unwrap();
        let live = site.lock_dynamic().live.clone();
        assert_eq!(site.stats().active_ref_captures, 0);
        drop(site); // the kill

        let persisted = store.recover_all().unwrap().sites.remove(0);
        let (revived, replayed, read) =
            Site::recover(persisted, store, journal, None, ClockMode::default()).unwrap();
        assert_eq!((replayed, read), (0, 0), "no leftover record is replayed");
        assert_eq!(revived.lock_dynamic().live, live);
        assert_eq!(revived.stats().active_ref_captures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_new_survey_day_restarts_the_capture_round() {
        let (world, site) = calibrated_site(36);
        let cfg = StreamConfig { duration_s: 10.0, ..Default::default() };
        let ref_cells: Vec<usize> = site.load().system.reference_cells().to_vec();
        let raw = stream::stream_at_cell(&world, 30.0, ref_cells[0], &cfg, 9);
        site.ingest_samples(Some(0), 30.0, &raw).unwrap();
        assert_eq!(site.stats().active_ref_captures, 1);
        // Same cell, different day: the stale partial round is discarded.
        let raw = stream::stream_at_cell(&world, 60.0, ref_cells[1], &cfg, 10);
        site.ingest_samples(Some(1), 60.0, &raw).unwrap();
        let stats = site.stats();
        assert_eq!(stats.active_ref_captures, 1, "day change restarts the round");
    }
}
