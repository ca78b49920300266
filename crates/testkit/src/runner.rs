//! Executes a [`Scenario`] against the real serving stack.
//!
//! The runner drives a [`tafloc_serve::site::Site`] directly — no TCP, no
//! threads, no wall clock — through the same public entry points the daemon
//! uses:
//!
//! * evaluation streams go through [`Site::ingest_samples`] into the live
//!   ingestor (manual stream clock, advanced to scripted instants);
//! * reference surveys go through the capture-window path
//!   (`ingest_samples(Some(k), ..)`);
//! * drift detection and refresh happen by calling
//!   [`Site::maintenance_tick`] at scripted points instead of from the
//!   background thread (`manual_tick` policy).
//!
//! Queue overload is modeled synchronously: the scenario caps how many
//! batches per stream are admitted and the excess is shed through
//! [`tafloc_ingest::Ingestor::record_queue_drop`] — deterministically, where
//! a real bounded queue's shedding would depend on consumer-thread timing.
//!
//! Successive evaluation streams share one live ingestor, so each stream is
//! shifted forward in stream time by `duration + window + staleness + 1 s`;
//! by the time a cell is located, every sample from the previous cell has
//! fallen off the window horizon.

use crate::report::{PhaseMetrics, ScenarioReport};
use crate::scenario::{CrashPoint, RestartPoint, Scenario};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use taf_plan::PlannerConfig;
use taf_rfsim::{campaign, stream, World};
use tafloc_core::db::FingerprintDb;
use tafloc_core::eval::{localization_error, reconstruction_rmse, ErrorSummary};
use tafloc_core::loli_ir::LoliIrConfig;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_ingest::{ClockMode, LinkSample};
use tafloc_serve::journal::JournalConfig;
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::site::Site;
use tafloc_serve::store::SiteStore;

/// Stream-seed bases per phase, so the day-0 and drifted evaluations (and the
/// survey) draw from disjoint deterministic noise streams.
const SEED_EVAL_DAY0: u64 = 1_000;
const SEED_EVAL_DRIFTED: u64 = 2_000;
const SEED_SURVEY: u64 = 500;
/// Stream-seed base for the second (budgeted) survey epoch of plan
/// scenarios, disjoint from every other base.
const SEED_SURVEY_EPOCH2: u64 = 700;

/// Runs `scenario` to completion and returns its report.
///
/// Errors are strings (this is a test harness; the only consumer prints
/// them) and indicate a scenario so hostile the pipeline could not produce a
/// fix at all — committed scenarios never error.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, String> {
    let world = World::new(scenario.world.config(), scenario.seed);
    scenario.assert_valid(world.num_links());

    // Day-0 calibration: full survey, empty-room baseline, system build.
    let x0 = campaign::full_calibration(&world, 0.0, scenario.survey_samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, scenario.survey_samples);
    let db = FingerprintDb::from_world(x0, &world).map_err(|e| e.to_string())?;
    let config = TafLocConfig {
        ref_count: scenario.ref_count,
        loli: LoliIrConfig { debug_bias_db: scenario.debug_bias_db, ..Default::default() },
        ..Default::default()
    };
    let system = TafLoc::calibrate(config, db, e0).map_err(|e| e.to_string())?;

    let policy = MaintenancePolicy {
        manual_tick: true,
        auto_refresh: true,
        breach_streak: scenario.breach_streak,
        monitor: MonitorConfig {
            error_threshold_db: scenario.monitor_threshold_db,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut site =
        Site::with_options(scenario.name, system, 0.0, policy, scenario.ingest, ClockMode::Manual)
            .map_err(|e| e.to_string())?;
    let mut planner = None;
    if let Some(plan) = &scenario.plan {
        let full = scenario.ref_count * world.num_links();
        let budget = (plan.budget_fraction * full as f64).round() as usize;
        let config = PlannerConfig::new(budget, plan.policy);
        planner = Some(config);
        site = site.with_planning(config).map_err(|e| e.to_string())?;
    }

    // Restart scenarios run on the real persistence stack for the whole run
    // — a snapshot store plus a zero-flush-window write-ahead journal,
    // exactly like a daemon started with `--data-dir` — so the simulated
    // kill recovers from what the durability machinery actually wrote, not
    // from a snapshot taken for the occasion.
    let scratch = match scenario.restart {
        RestartPoint::None => None,
        _ => {
            let scratch = ScratchDir::new(scenario.name);
            let store = Arc::new(SiteStore::open(&scratch.0).map_err(|e| e.to_string())?);
            site = site.with_durability(store, journal_config()).map_err(|e| e.to_string())?;
            Some(scratch)
        }
    };

    let eval_cells: Vec<usize> = (0..world.num_cells()).step_by(scenario.eval_stride).collect();
    // Gap that guarantees one stream's samples are gone (evicted or at least
    // stale) before the next stream's verdict is read.
    let stream_gap_s = scenario.ingest.window_s + scenario.ingest.stale_after_s + 1.0;
    let mut offset_s = 0.0;

    let day0 = eval_phase(
        scenario,
        &world,
        &site,
        &eval_cells,
        0.0,
        SEED_EVAL_DAY0,
        stream_gap_s,
        &mut offset_s,
    )?;

    // Drift-day reference survey through the capture-window path.
    let ref_cells: Vec<usize> = site.load().system.reference_cells().to_vec();
    for (k, &cell) in ref_cells.iter().enumerate() {
        let raw = stream::stream_at_cell(
            &world,
            scenario.drift_day,
            cell,
            &scenario.stream,
            SEED_SURVEY + k as u64,
        );
        let faulted = scenario.survey_faults.applied(&raw);
        for batch in faulted.chunks(scenario.batch_size) {
            site.ingest_samples(Some(k), scenario.drift_day, batch).map_err(|e| e.to_string())?;
        }
    }

    // Crash point "after journal append, before snapshot commit": the
    // survey batches above are journaled, but the snapshot on disk predates
    // them — recovery must rebuild the whole capture round from journal
    // replay, and the post-restart ticks below must still refresh.
    if scenario.restart == RestartPoint::BeforeRefresh {
        site = simulate_crash_restart(scenario, site, &scratch.as_ref().unwrap().0, planner)?;
    }

    // Scripted maintenance: each tick promotes a finished capture round,
    // re-checks the monitor and — streak and cooldown permitting — refreshes.
    let mut refreshes = 0u64;
    for _ in 0..scenario.max_ticks {
        if site.maintenance_tick().map_err(|e| e.to_string())?.is_some() {
            refreshes += 1;
        }
    }

    // Adaptive-sensing second epoch: the first refresh published a
    // measurement plan; re-survey *only* the reference cells it names, at the
    // later drift day, and let the history window fill in the rest. The
    // budgeted refresh then runs through the same scripted ticks.
    let final_day = match &scenario.plan {
        Some(plan) => {
            // The mid-schedule kill: the first refresh committed (persisting
            // the published plan, history, costs and warm state), and the
            // daemon dies before the budgeted epoch starts. The revived site
            // must hand back the *same* measurement plan and resume it.
            if scenario.restart == RestartPoint::BetweenEpochs {
                site =
                    simulate_crash_restart(scenario, site, &scratch.as_ref().unwrap().0, planner)?;
            }
            let current = site.current_plan().ok_or_else(|| {
                "plan scenario produced no measurement plan after the first refresh".to_string()
            })?;
            for entry in &current.entries {
                let cell = ref_cells[entry.ref_slot];
                let raw = stream::stream_at_cell(
                    &world,
                    plan.second_drift_day,
                    cell,
                    &scenario.stream,
                    SEED_SURVEY_EPOCH2 + entry.ref_slot as u64,
                );
                let faulted = scenario.survey_faults.applied(&raw);
                for batch in faulted.chunks(scenario.batch_size) {
                    site.ingest_samples(Some(entry.ref_slot), plan.second_drift_day, batch)
                        .map_err(|e| e.to_string())?;
                }
            }
            for _ in 0..scenario.max_ticks {
                if site.maintenance_tick().map_err(|e| e.to_string())?.is_some() {
                    refreshes += 1;
                }
            }
            plan.second_drift_day
        }
        None => scenario.drift_day,
    };

    // Simulated crash/restart after the final refresh: the commit already
    // auto-persisted, so recovery comes from the snapshot alone — everything
    // below runs against the revived site, so any lossiness in the codec
    // shows up in the accuracy gates. (Pending refs and the live ingestion
    // window are deliberately *not* persisted; the stream gap already
    // guarantees the window is drained between streams.)
    if scenario.restart == RestartPoint::AfterRefresh {
        site = simulate_crash_restart(scenario, site, &scratch.as_ref().unwrap().0, planner)?;
    }

    // Primary accuracy gates: the *served* database against the drifted
    // truth. RMSE catches quality regressions; the mean signed error catches
    // systematic bias (it cannot hide inside the RMSE tolerance).
    let truth = world.fingerprint_truth(final_day);
    let snap = site.load();
    let recon_rmse_db =
        reconstruction_rmse(snap.system.db().rss(), &truth).map_err(|e| e.to_string())?;
    let recon_bias_db = {
        let diff = snap.system.db().rss().sub(&truth).map_err(|e| e.to_string())?;
        diff.iter().sum::<f64>() / (diff.rows() * diff.cols()).max(1) as f64
    };

    let drifted = eval_phase(
        scenario,
        &world,
        &site,
        &eval_cells,
        final_day,
        SEED_EVAL_DRIFTED,
        stream_gap_s,
        &mut offset_s,
    )?;

    let stats = site.stats();
    Ok(ScenarioReport {
        scenario: scenario.name.to_string(),
        seed: scenario.seed,
        drift_day: scenario.drift_day,
        eval_cells: eval_cells.len() as u64,
        day0,
        drifted,
        recon_rmse_db,
        recon_bias_db,
        refreshes,
        maintenance_checks: stats.maintenance_checks,
        snapshot_version: stats.version,
        pending_refs: stats.pending_refs,
        ingest_accepted: stats.ingest.accepted,
        ingest_dropped_late: stats.ingest.dropped_late,
        ingest_dropped_queue_batches: stats.ingest.dropped_queue_batches,
        ingest_rejected_outliers: stats.ingest.rejected_outliers,
        planned_cost: stats.planned_cost,
        actual_cost: stats.actual_cost,
        full_survey_cost: stats.full_survey_cost,
        plan_policy: stats.plan_policy.unwrap_or_default(),
    })
}

/// A unique throwaway data directory, removed on drop. Uniqueness matters:
/// the scenario tests run in parallel threads of one test binary and several
/// of them run the same restart scenario concurrently.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tafloc-testkit-{}-{name}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Zero group-commit window: every admitted batch is fsynced before the
/// ingest call returns, so the scripted runs are deterministic regardless of
/// when the "kill" lands.
fn journal_config() -> JournalConfig {
    JournalConfig { flush_interval: std::time::Duration::ZERO }
}

/// The testkit's stand-in for `kill -9` + restart of the daemon: drop the
/// live site (nothing survives but the files the durability machinery
/// wrote), damage the directory per the scenario's [`CrashPoint`], then
/// recover through [`Site::recover`], the routine `taflocd` runs. Recovery
/// problems (skipped snapshots, a failed decode, a record that fails to
/// replay) surface as scenario errors.
fn simulate_crash_restart(
    scenario: &Scenario,
    site: Site,
    dir: &Path,
    planner: Option<PlannerConfig>,
) -> Result<Site, String> {
    drop(site); // the kill
    inject_crash_damage(scenario.crash, scenario.name, dir)?;
    let store = SiteStore::open(dir).map_err(|e| e.to_string())?;
    let recovery = store.recover_all().map_err(|e| e.to_string())?;
    if !recovery.skipped.is_empty() {
        return Err(format!("recovery skipped snapshots: {:?}", recovery.skipped));
    }
    let persisted = recovery
        .sites
        .into_iter()
        .next()
        .ok_or_else(|| "no site recovered from the snapshot directory".to_string())?;
    let (revived, applied, total) =
        Site::recover(persisted, Arc::new(store), journal_config(), planner, ClockMode::Manual)
            .map_err(|e| e.to_string())?;
    if applied != total {
        return Err(format!("replayed only {applied} of {total} journal records"));
    }
    Ok(revived)
}

/// Mutates the data directory the way a kill landing *inside* a write would
/// have left it. Every variant damages only bytes belonging to writes that
/// never completed — and were therefore never acknowledged — so recovery
/// must converge to the clean-kill state.
fn inject_crash_damage(crash: CrashPoint, name: &str, dir: &Path) -> Result<(), String> {
    let stem = SiteStore::stem(name);
    match crash {
        CrashPoint::CleanKill => Ok(()),
        CrashPoint::MidAppend => {
            // Append a partial frame to the active (newest) journal segment:
            // a header promising 96 payload bytes backed by only a handful,
            // exactly the torn tail a kill mid-`write(2)` leaves behind.
            let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
                .map_err(|e| e.to_string())?
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.extension().is_some_and(|x| x == "wal")
                        && p.file_name()
                            .and_then(|f| f.to_str())
                            .is_some_and(|f| f.starts_with(&stem))
                })
                .collect();
            segments.sort();
            let active = segments.pop().ok_or("no journal segment to tear")?;
            let mut torn = Vec::new();
            torn.extend_from_slice(&96u32.to_le_bytes());
            torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            torn.extend_from_slice(&[0x5A; 11]);
            std::fs::OpenOptions::new()
                .append(true)
                .open(&active)
                .and_then(|mut f| f.write_all(&torn))
                .map_err(|e| e.to_string())
        }
        CrashPoint::MidRename => {
            // A snapshot temp file that never reached its rename. Garbage
            // contents on purpose: recovery must discard it unread.
            std::fs::write(
                dir.join(format!("{stem}.{:020}.tmp", u64::MAX)),
                b"half-written snapshot",
            )
            .map_err(|e| e.to_string())
        }
    }
}

/// One evaluation pass: stream a target at each eval cell through the live
/// ingestor (faults applied in raw stream time, then time-shifted), locate,
/// and summarize errors and stream health.
#[allow(clippy::too_many_arguments)]
fn eval_phase(
    scenario: &Scenario,
    world: &World,
    site: &Site,
    eval_cells: &[usize],
    day: f64,
    seed_base: u64,
    stream_gap_s: f64,
    offset_s: &mut f64,
) -> Result<PhaseMetrics, String> {
    let num_links = world.num_links();
    let mut errors = Vec::with_capacity(eval_cells.len());
    let mut imputed_slots = 0usize;
    let mut stale_slots = 0usize;
    for &cell in eval_cells {
        let raw =
            stream::stream_at_cell(world, day, cell, &scenario.stream, seed_base + cell as u64);
        let mut faulted = scenario.eval_faults.applied(&raw);
        for s in &mut faulted {
            s.t_s += *offset_s;
        }
        feed_with_overload(scenario, site, &faulted)?;
        site.advance_stream_clock(*offset_s + scenario.stream.duration_s);
        let (fix, assembled, _) =
            site.locate_stream().map_err(|e| format!("locate at cell {cell} (day {day}): {e}"))?;
        errors.push(localization_error(&fix.point, &world.grid().cell_center(cell)));
        imputed_slots += assembled.missing.len();
        stale_slots += assembled.stale.len();
        *offset_s += scenario.stream.duration_s + stream_gap_s;
    }
    let slots = (eval_cells.len() * num_links).max(1) as f64;
    Ok(PhaseMetrics {
        loc: ErrorSummary::from_errors(&errors).map_err(|e| e.to_string())?,
        imputation_rate: imputed_slots as f64 / slots,
        stale_rate: stale_slots as f64 / slots,
    })
}

/// Feeds one stream in batches, shedding everything beyond the scenario's
/// queue-overload cap and counting each shed batch as a queue drop.
fn feed_with_overload(
    scenario: &Scenario,
    site: &Site,
    samples: &[LinkSample],
) -> Result<(), String> {
    let batches: Vec<&[LinkSample]> = samples.chunks(scenario.batch_size).collect();
    let admitted = if scenario.max_batches_per_stream == 0 {
        batches.len()
    } else {
        scenario.max_batches_per_stream.min(batches.len())
    };
    for batch in &batches[..admitted] {
        site.ingest_samples(None, 0.0, batch).map_err(|e| e.to_string())?;
    }
    for batch in &batches[admitted..] {
        site.ingestor().record_queue_drop(batch.len());
    }
    Ok(())
}
