//! Declarative fault-injection scenarios.
//!
//! A [`Scenario`] couples a seeded `taf-rfsim` world with a
//! [`FaultSchedule`] and the knobs of the serving stack it drives. Everything
//! that could make two runs differ is pinned here — the world seed, the
//! per-stream seeds derived from it, the fault schedule, the batch cadence —
//! so a scenario is a *pure function* from its definition to a
//! [`crate::ScenarioReport`].
//!
//! Built-in scenarios live in [`builtin_scenarios`]; each has a committed
//! golden baseline under `results/golden/<name>.json` (see [`crate::golden`]
//! for the blessing workflow and tolerance policy).

use taf_plan::PlanPolicy;
use taf_rfsim::{Fault, FaultSchedule, StreamConfig};
use tafloc_ingest::IngestConfig;

/// Which simulated world a scenario runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldPreset {
    /// `WorldConfig::small_test()`: 5×6 grid, 6 links — fast enough for CI.
    SmallTest,
    /// `WorldConfig::paper_default()`: the paper's deployment (slower).
    PaperDefault,
}

impl WorldPreset {
    /// Materializes the preset.
    pub fn config(&self) -> taf_rfsim::WorldConfig {
        match self {
            WorldPreset::SmallTest => taf_rfsim::WorldConfig::small_test(),
            WorldPreset::PaperDefault => taf_rfsim::WorldConfig::paper_default(),
        }
    }
}

/// Gate tolerances for comparing a run against its golden baseline.
///
/// Error metrics are gated **one-sided** — a run may be better than its
/// golden, never `tol` worse — because the baselines are regenerated under
/// different RNG backends and a two-sided bound would reject legitimate
/// improvements. Structural metrics (imputation rate) are two-sided: they
/// reflect fault plumbing, not solver quality, and should not move at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Allowed increase (m) of day-0 mean localization error.
    pub day0_loc_mean_m: f64,
    /// Allowed increase (m) of post-drift mean localization error.
    pub loc_mean_m: f64,
    /// Allowed increase (m) of post-drift p90 localization error.
    pub loc_p90_m: f64,
    /// Allowed increase (dB) of fingerprint-reconstruction RMSE.
    pub recon_rmse_db: f64,
    /// Allowed absolute deviation (dB) of the mean signed reconstruction
    /// error. This is the bias trap: honest reconstructions sit near zero in
    /// every environment, while a systematic output bias moves this metric
    /// one-for-one and cannot hide inside the RMSE tolerance.
    pub recon_bias_db: f64,
    /// Allowed absolute deviation of the per-phase imputation rate.
    pub imputation_rate: f64,
    /// When `true`, `refreshes`, `snapshot_version` and `pending_refs` must
    /// match the golden exactly (the fault either blocks the refresh path or
    /// it does not — there is no tolerance on that).
    pub exact_counts: bool,
}

impl Default for Tolerances {
    fn default() -> Self {
        // Calibrated against a 5-world-seed sweep of the built-in suite:
        // each bound sits above the largest observed cross-world spread of
        // its metric, with margin, while staying far below the shift a
        // +3 dB reconstruction bias produces (the mutation check).
        Tolerances {
            day0_loc_mean_m: 0.9,
            loc_mean_m: 1.2,
            loc_p90_m: 1.8,
            recon_rmse_db: 1.2,
            recon_bias_db: 1.25,
            imputation_rate: 0.05,
            exact_counts: true,
        }
    }
}

/// Adaptive-sensing configuration for a scenario's *second* survey epoch.
///
/// When present, the runner attaches a [`taf_plan::Planner`] to the site,
/// runs the usual full survey + refresh at `drift_day`, then drives a second,
/// *budgeted* epoch at [`second_drift_day`](Self::second_drift_day): only the
/// reference cells named by the site's published
/// [`MeasurementPlan`](taf_plan::MeasurementPlan) are re-surveyed, the
/// history window fills in the rest, and the drifted evaluation runs against
/// the day the budgeted refresh had to track. The report's cost counters
/// (`planned_cost` / `actual_cost` / `full_survey_cost`) are what the
/// cost-vs-accuracy gates compare.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpec {
    /// Measurement budget as a fraction of one full survey
    /// (`ref_count x num_links` link-measurements); `1.0` plans everything
    /// and is the accuracy twin the budgeted scenarios are gated against.
    pub budget_fraction: f64,
    /// Planner spending policy.
    pub policy: PlanPolicy,
    /// Deployment day of the second (budgeted) survey epoch; must be past
    /// `drift_day` so the monitor's cooldown has elapsed.
    pub second_drift_day: f64,
}

/// Where in the scripted run the simulated `kill -9` + restart happens.
///
/// Any value other than [`RestartPoint::None`] makes the runner attach the
/// real persistence stack — a [`tafloc_serve::store::SiteStore`] snapshot
/// directory plus a write-ahead [`tafloc_serve::journal::Journal`] with a
/// zero group-commit window — to the site for the *whole* run, exactly like
/// a daemon started with `--data-dir`. The "crash" drops the live site;
/// recovery goes through [`tafloc_serve::site::Site::recover`], the routine
/// `taflocd` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPoint {
    /// No restart; the site lives in memory for the whole run.
    None,
    /// After the drift-day survey batches are admitted (and journaled) but
    /// *before* any maintenance tick: the snapshot on disk predates the
    /// survey, so recovery must rebuild the capture round purely from
    /// journal replay for the post-restart ticks to refresh at all.
    BeforeRefresh,
    /// After the final refresh has committed (and auto-persisted): recovery
    /// comes from the snapshot alone, since every journal record sits at or
    /// below its watermark and none is replayed.
    AfterRefresh,
    /// Plan scenarios only: between the first (full-survey) refresh and the
    /// second, budgeted epoch. The revived site must resume its published
    /// measurement plan mid-schedule — no forced full survey — with the
    /// same cumulative cost as the uninterrupted run.
    BetweenEpochs,
}

/// On-disk damage injected between "the process died" and "the daemon came
/// back", modeling *where inside a write* the kill landed. Applied on top of
/// whatever state the group-committed journal and snapshot store left
/// behind; every variant must recover to the same state as a clean kill,
/// because the damaged bytes belong to writes that never completed (and
/// were therefore never acknowledged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The kill landed between writes: files are exactly as the last
    /// completed fsync left them.
    CleanKill,
    /// The kill landed mid-`write(2)` of a journal append: the active
    /// segment ends in a partial frame whose header promises more bytes
    /// than exist. Recovery must truncate the torn tail and replay the
    /// intact prefix.
    MidAppend,
    /// The kill landed between `write(tmp)` and `rename(tmp, snap)` of a
    /// snapshot commit: a `.tmp` orphan sits next to the committed
    /// generations. Recovery must ignore (and clean up) the orphan and
    /// serve from the newest durable generation.
    MidRename,
}

/// One deterministic fault-injection scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique name; also the golden file stem.
    pub name: &'static str,
    /// One-line description for `tafloc testkit list`.
    pub description: &'static str,
    /// Simulated world.
    pub world: WorldPreset,
    /// World seed (all stream seeds derive from it plus fixed offsets).
    pub seed: u64,
    /// Reference-cell count `n`.
    pub ref_count: usize,
    /// Averaged samples per calibration measurement.
    pub survey_samples: usize,
    /// Deployment day of the drifted phase.
    pub drift_day: f64,
    /// Evaluate every `eval_stride`-th cell (1 = all cells).
    pub eval_stride: usize,
    /// Raw per-link sample stream shape (shared by eval and survey streams).
    pub stream: StreamConfig,
    /// Ingestion pipeline configuration for the site under test.
    pub ingest: IngestConfig,
    /// Faults applied to every *evaluation* stream (raw stream time,
    /// `0..stream.duration_s`, before the per-cell time offset).
    pub eval_faults: FaultSchedule,
    /// Faults applied to every *reference-survey* stream.
    pub survey_faults: FaultSchedule,
    /// Samples per ingest batch.
    pub batch_size: usize,
    /// Queue-overload model: at most this many batches are admitted per
    /// stream; the rest are shed and counted (`0` = unlimited).
    pub max_batches_per_stream: usize,
    /// Drift-monitor refresh threshold (dB).
    pub monitor_threshold_db: f64,
    /// Consecutive over-threshold checks before an auto-refresh.
    pub breach_streak: u32,
    /// Maintenance ticks driven after the drift-day survey.
    pub max_ticks: u32,
    /// Test-only LoLi-IR output bias (dB); `0.0` in every committed
    /// scenario. The mutation gate sets this to a non-zero value and asserts
    /// that the golden comparison fails.
    pub debug_bias_db: f64,
    /// Simulate a `kill -9` + restart at the given point: run the site on
    /// the real persistence stack (snapshot store + write-ahead journal),
    /// drop it, damage the directory per [`Scenario::crash`], and recover —
    /// everything after the restart point runs against the revived site.
    /// Accuracy metrics must be unaffected — recovery is supposed to be
    /// exact — which the restart-equivalence tests pin down.
    pub restart: RestartPoint,
    /// How the simulated kill mangles the data directory before recovery;
    /// only meaningful when [`Scenario::restart`] is not `None`.
    pub crash: CrashPoint,
    /// Adaptive-sensing second epoch; `None` runs the classic single-refresh
    /// flow with no planner attached.
    pub plan: Option<PlanSpec>,
    /// Golden-comparison tolerances.
    pub tolerances: Tolerances,
}

impl Scenario {
    /// A no-fault baseline with conservative defaults; the other builtins
    /// are deltas on this.
    fn base(name: &'static str, description: &'static str, seed: u64) -> Scenario {
        Scenario {
            name,
            description,
            world: WorldPreset::SmallTest,
            seed,
            ref_count: 6,
            survey_samples: 20,
            drift_day: 60.0,
            eval_stride: 4,
            stream: StreamConfig { duration_s: 30.0, ..Default::default() },
            ingest: IngestConfig::default(),
            eval_faults: FaultSchedule::none(),
            survey_faults: FaultSchedule::none(),
            batch_size: 16,
            max_batches_per_stream: 0,
            monitor_threshold_db: 1.0,
            breach_streak: 2,
            max_ticks: 5,
            debug_bias_db: 0.0,
            restart: RestartPoint::None,
            crash: CrashPoint::CleanKill,
            plan: None,
            tolerances: Tolerances::default(),
        }
    }

    /// Asserts internal consistency (fault links in range etc.). Called by
    /// the runner before doing any work.
    pub fn assert_valid(&self, num_links: usize) {
        assert!(self.ref_count >= 1, "ref_count must be >= 1");
        assert!(self.eval_stride >= 1, "eval_stride must be >= 1");
        assert!(self.batch_size >= 1, "batch_size must be >= 1");
        assert!(self.max_ticks >= 1, "max_ticks must be >= 1");
        if let Some(plan) = &self.plan {
            assert!(
                plan.budget_fraction > 0.0 && plan.budget_fraction <= 1.0,
                "budget_fraction must be in (0, 1]"
            );
            assert!(
                plan.second_drift_day > self.drift_day,
                "the budgeted epoch must come after the first drift day"
            );
        }
        if self.restart == RestartPoint::BetweenEpochs {
            assert!(self.plan.is_some(), "BetweenEpochs only exists in plan scenarios");
        }
        if self.crash != CrashPoint::CleanKill {
            assert!(self.restart != RestartPoint::None, "a crash point needs a restart to act on");
        }
        self.stream.assert_valid();
        for f in self.eval_faults.faults.iter().chain(self.survey_faults.faults.iter()) {
            f.assert_valid();
            let link = match f {
                Fault::LossBurst { link, .. } | Fault::DriftRamp { link, .. } => *link,
                Fault::LinkDeath { link, .. }
                | Fault::LinkFlap { link, .. }
                | Fault::ClockSkew { link, .. } => Some(*link),
                Fault::ReorderStorm { .. } => None,
            };
            if let Some(l) = link {
                assert!(l < num_links, "fault names link {l}, world has {num_links}");
            }
        }
    }
}

/// The built-in scenario suite — every entry has a committed golden under
/// `results/golden/`.
pub fn builtin_scenarios() -> Vec<Scenario> {
    let mut nominal =
        Scenario::base("nominal", "clean streams, drift at day 60, one auto-refresh expected", 42);
    nominal.tolerances = Tolerances::default();

    let mut lossy = Scenario::base(
        "lossy-eval",
        "loss burst + link flap + reorder storm on every evaluation stream",
        43,
    );
    lossy.eval_faults = FaultSchedule::new([
        Fault::LossBurst { start_s: 8.0, end_s: 14.0, link: None },
        Fault::LinkFlap { link: 3, start_s: 0.0, period_s: 5.0 },
        Fault::ReorderStorm { start_s: 15.0, end_s: 25.0, seed: 7 },
    ]);

    let mut dead =
        Scenario::base("dead-link", "link 2 dies mid-stream and link 4 runs on a skewed clock", 44);
    dead.eval_faults = FaultSchedule::new([
        Fault::LinkDeath { link: 2, at_s: 10.0 },
        Fault::ClockSkew { link: 4, offset_s: -2.0 },
    ]);
    // A dead link goes stale, then is imputed; both rates move, so give the
    // structural gate a little more slack than the clean scenarios get.
    dead.tolerances = Tolerances { imputation_rate: 0.08, ..Tolerances::default() };

    let mut outage = Scenario::base(
        "survey-outage",
        "queue overload on eval streams; a dead link blocks every ref capture, so no refresh",
        45,
    );
    outage.max_batches_per_stream = 2;
    outage.survey_faults = FaultSchedule::new([Fault::LinkDeath { link: 1, at_s: 0.0 }]);
    // The refresh never happens (that *is* the gate: exact_counts pins
    // refreshes to zero), so the served database stays at day 0 and the
    // reconstruction gap is the raw drift magnitude — which varies a lot
    // from world to world. The error gates here only catch catastrophic
    // regressions; the structural/count gates carry the scenario.
    outage.tolerances = Tolerances {
        loc_mean_m: 1.5,
        loc_p90_m: 2.2,
        recon_rmse_db: 6.0,
        recon_bias_db: 8.0,
        imputation_rate: 0.08,
        ..Tolerances::default()
    };

    let mut restart = Scenario::base(
        "restart-recovery",
        "daemon is killed right after the drift refresh; recovery from the snapshot must serve on",
        46,
    );
    restart.restart = RestartPoint::AfterRefresh;
    // The live ingestion window is deliberately not persisted, so a restart
    // is only *bit-equal* when the window state cannot leak across streams:
    // with the ring capped below a stream's per-link sample count (~30 at
    // 1 Hz x 30 s), every stream fully displaces the previous one and the
    // warm and cold ingestors converge on the same newest-16 samples.
    restart.ingest = IngestConfig { window_capacity: 16, ..IngestConfig::default() };

    // Adaptive-sensing triplet: one world (seed 47), three sensing policies.
    // `plan-full-survey` re-surveys everything in the second epoch and is the
    // accuracy twin; the two budgeted scenarios spend half that and are gated
    // on staying within tolerance of their own goldens (and, in the scenario
    // suite, of the twin). Exact cost counters are pinned by `exact_counts`.
    let mut plan_full = Scenario::base(
        "plan-full-survey",
        "planner attached with a full budget: second epoch re-surveys every reference cell",
        47,
    );
    plan_full.plan = Some(PlanSpec {
        budget_fraction: 1.0,
        policy: PlanPolicy::UncertaintyGreedy,
        second_drift_day: 90.0,
    });
    // A budgeted refresh carries the skipped reference columns from the
    // previous epoch's history, so the served database legitimately sits
    // further from the day-90 truth than a full re-survey would — and its
    // cross-backend spread is wider. The localization gates stay at their
    // defaults: the end metric is what the cost saving must not regress.
    plan_full.tolerances =
        Tolerances { recon_rmse_db: 1.5, recon_bias_db: 1.5, ..Tolerances::default() };

    let mut plan_uncertainty = plan_full.clone();
    plan_uncertainty.name = "plan-uncertainty-50";
    plan_uncertainty.description =
        "uncertainty-greedy planner at half budget: least-confident cells re-surveyed first";
    plan_uncertainty.plan = Some(PlanSpec {
        budget_fraction: 0.5,
        policy: PlanPolicy::UncertaintyGreedy,
        second_drift_day: 90.0,
    });

    let mut plan_fixed = plan_full.clone();
    plan_fixed.name = "plan-fixed-50";
    plan_fixed.description =
        "fixed-schedule planner at half budget: rotating round-robin re-survey baseline";
    plan_fixed.plan = Some(PlanSpec {
        budget_fraction: 0.5,
        policy: PlanPolicy::FixedSchedule,
        second_drift_day: 90.0,
    });

    // The durability headline for adaptive sensing: same world and budget as
    // `plan-uncertainty-50`, but the daemon is killed between the first
    // (full-survey) refresh and the budgeted epoch. The revived site must
    // resume its persisted measurement plan mid-schedule — the golden pins
    // the cumulative cost counters to the uninterrupted run's values.
    let mut plan_restart = plan_uncertainty.clone();
    plan_restart.name = "plan-restart";
    plan_restart.description =
        "daemon killed between the planned epochs; the recovered site resumes its schedule";
    plan_restart.restart = RestartPoint::BetweenEpochs;
    // Same warm/cold ingestion-window convergence argument as
    // `restart-recovery`: cap the ring below a stream's sample count so the
    // revived (empty) ingestor and the uninterrupted one agree bit-for-bit
    // by the time the drifted evaluation reads a verdict.
    plan_restart.ingest = IngestConfig { window_capacity: 16, ..IngestConfig::default() };

    vec![
        nominal,
        lossy,
        dead,
        outage,
        restart,
        plan_full,
        plan_uncertainty,
        plan_fixed,
        plan_restart,
    ]
}

/// Looks a built-in scenario up by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    builtin_scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_are_unique_and_findable() {
        let all = builtin_scenarios();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert_eq!(find_scenario(a.name).unwrap().name, a.name);
        }
        assert!(find_scenario("no-such-scenario").is_none());
    }

    #[test]
    #[should_panic(expected = "fault names link 99, world has 10")]
    fn faults_on_a_missing_link_are_rejected() {
        let mut s = Scenario::base("t", "t", 1);
        s.eval_faults = FaultSchedule::new(vec![Fault::LinkDeath { link: 99, at_s: 1.0 }]);
        s.assert_valid(10);
    }

    #[test]
    #[should_panic(expected = "a crash point needs a restart")]
    fn crash_points_need_a_restart() {
        let mut s = Scenario::base("t", "t", 1);
        s.crash = CrashPoint::MidAppend;
        s.assert_valid(10);
    }

    #[test]
    #[should_panic(expected = "BetweenEpochs only exists in plan scenarios")]
    fn between_epoch_restarts_need_a_plan() {
        let mut s = Scenario::base("t", "t", 1);
        s.restart = RestartPoint::BetweenEpochs;
        s.assert_valid(10);
    }

    #[test]
    fn builtins_validate_against_the_small_world() {
        let links = taf_rfsim::WorldConfig::small_test().num_links;
        for s in builtin_scenarios() {
            s.assert_valid(links);
            assert_eq!(s.debug_bias_db, 0.0, "committed scenarios must not carry a bias");
        }
    }
}
