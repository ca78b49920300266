//! The scenario regression suite: every built-in scenario must pass its
//! committed golden gates, the same seed must reproduce byte-identical
//! reports, and an injected reconstruction bias must be caught.
//!
//! All stochastic inputs are pinned: each scenario carries its world seed
//! (42–45) and the runner derives every stream seed from fixed bases, so
//! these tests are deterministic end to end — no wall clock, no thread
//! timing, no ambient RNG.

use taf_testkit::{
    builtin_scenarios, compare, find_scenario, load_golden, run_scenario, CrashPoint, RestartPoint,
};

/// Runs one scenario against its committed golden and panics with the full
/// violation list on any regression.
fn check(name: &str) {
    let scenario = find_scenario(name).expect("built-in scenario");
    match taf_testkit::run_and_check(&scenario) {
        Ok(report) => {
            assert_eq!(report.scenario, name);
            assert!(report.recon_rmse_db.is_finite());
        }
        Err(violations) => {
            panic!("scenario `{name}` failed its golden gates:\n  {}", violations.join("\n  "))
        }
    }
}

#[test]
fn nominal_passes_its_golden_gates() {
    check("nominal");
}

#[test]
fn lossy_eval_passes_its_golden_gates() {
    check("lossy-eval");
}

#[test]
fn dead_link_passes_its_golden_gates() {
    check("dead-link");
}

#[test]
fn survey_outage_passes_its_golden_gates() {
    check("survey-outage");
}

#[test]
fn survey_outage_blocks_the_refresh_path() {
    // The scenario's whole point: a dead link in every reference capture
    // means the round never completes, so no promotion and no refresh —
    // while queue overload on the eval streams is counted, not ignored.
    let scenario = find_scenario("survey-outage").unwrap();
    let report = run_scenario(&scenario).unwrap();
    assert_eq!(report.refreshes, 0);
    assert_eq!(report.snapshot_version, 0);
    assert!(!report.pending_refs);
    assert!(report.ingest_dropped_queue_batches > 0, "overload cap must shed batches");
}

#[test]
fn dead_link_is_visible_in_stream_health() {
    let report = run_scenario(&find_scenario("dead-link").unwrap()).unwrap();
    // Exactly one of six links serves from a stale aggregate in both phases.
    let expected = 1.0 / 6.0;
    assert!((report.day0.stale_rate - expected).abs() < 1e-9, "{}", report.day0.stale_rate);
    assert!((report.drifted.stale_rate - expected).abs() < 1e-9);
}

/// Same scenario, same seed, two runs: the serialized reports must be
/// byte-identical. This is the determinism contract the golden workflow
/// rests on — any nondeterminism (wall-clock coupling, map iteration order,
/// thread timing) shows up here as a diff.
#[test]
fn same_seed_runs_are_byte_identical() {
    for scenario in builtin_scenarios() {
        let a = run_scenario(&scenario).unwrap().to_json();
        let b = run_scenario(&scenario).unwrap().to_json();
        assert_eq!(a, b, "scenario `{}` is not deterministic", scenario.name);
    }
}

/// Mutation check for the gate machinery itself: a +3 dB bias injected into
/// the LoLi-IR output (via the test-only `debug_bias_db` hook) must make at
/// least one golden accuracy gate fail. The mean-signed-error gate moves
/// one-for-one with the bias, so this holds in any environment.
#[test]
fn injected_reconstruction_bias_fails_a_golden_gate() {
    let mut scenario = find_scenario("nominal").unwrap();
    scenario.debug_bias_db = 3.0;
    let biased = run_scenario(&scenario).unwrap();
    let golden = load_golden("nominal").unwrap();
    let violations = compare(&biased, &golden, &scenario.tolerances);
    assert!(
        violations.iter().any(|v| v.contains("reconstruction bias")),
        "a +3 dB bias must trip the bias gate, got: {violations:?}"
    );
}

/// The complementary direction: with a zero bias the hook is a strict no-op
/// and the exact same run passes every gate (exercised end-to-end by the
/// per-scenario tests above; asserted once more here against the report to
/// keep the pairing obvious).
#[test]
fn zero_bias_hook_is_a_no_op() {
    let scenario = find_scenario("nominal").unwrap();
    assert_eq!(scenario.debug_bias_db, 0.0);
    let report = run_scenario(&scenario).unwrap();
    let golden = load_golden("nominal").unwrap();
    assert!(compare(&report, &golden, &scenario.tolerances).is_empty());
}

#[test]
fn restart_recovery_passes_its_golden_gates() {
    check("restart-recovery");
}

#[test]
fn plan_full_survey_passes_its_golden_gates() {
    check("plan-full-survey");
}

#[test]
fn plan_uncertainty_50_passes_its_golden_gates() {
    check("plan-uncertainty-50");
}

#[test]
fn plan_fixed_50_passes_its_golden_gates() {
    check("plan-fixed-50");
}

/// The adaptive-sensing headline: the uncertainty-greedy planner at half
/// budget must spend at most 50% of a full re-survey on the drifted refresh
/// while keeping the drifted *localization* accuracy within the golden
/// tolerances of its full-survey twin (identical world, seed and streams —
/// the only difference is how many reference cells are re-measured).
#[test]
fn uncertainty_planning_halves_cost_without_losing_accuracy() {
    let full_twin = find_scenario("plan-full-survey").unwrap();
    let budgeted = find_scenario("plan-uncertainty-50").unwrap();
    let full = run_scenario(&full_twin).unwrap();
    let half = run_scenario(&budgeted).unwrap();

    // Cost: counters are cumulative over two survey rounds and round 1 is
    // always full, so the drifted refresh is the remainder.
    let per_round = full.full_survey_cost / 2;
    assert_eq!(full.actual_cost, full.full_survey_cost, "the twin re-surveys everything");
    let refresh_cost = half.actual_cost - per_round;
    assert!(
        refresh_cost * 2 <= per_round,
        "budgeted refresh spent {refresh_cost} of a {per_round} link-measurement round"
    );
    assert_eq!(half.planned_cost, half.actual_cost, "every planned measurement was delivered");

    // Accuracy: within the one-sided golden tolerances of the full twin.
    let tol = &budgeted.tolerances;
    assert!(
        half.drifted.loc.mean <= full.drifted.loc.mean + tol.loc_mean_m,
        "drifted mean {:.3} m vs full-survey {:.3} m (+{:.2} m allowed)",
        half.drifted.loc.mean,
        full.drifted.loc.mean,
        tol.loc_mean_m
    );
    assert!(
        half.drifted.loc.p90 <= full.drifted.loc.p90 + tol.loc_p90_m,
        "drifted p90 {:.3} m vs full-survey {:.3} m (+{:.2} m allowed)",
        half.drifted.loc.p90,
        full.drifted.loc.p90,
        tol.loc_p90_m
    );
    // Day-0 phases precede any planning and must be bit-equal.
    assert_eq!(half.day0, full.day0, "planning must not disturb the pre-drift phase");
}

/// The cost-vs-accuracy leaderboard runs, includes the RTI and RASS baseline
/// rows, and reproduces the ordering the planner exists for: the budgeted
/// uncertainty-greedy refresh — at half the measurement cost of a full
/// re-survey and through the noisier full serving stack — still beats the
/// zero-cost stale-database RASS baseline (which skips ingest entirely and
/// localizes clean averaged snapshots).
#[test]
fn leaderboard_includes_baselines_and_tafloc_beats_stale_rass() {
    let rows = taf_testkit::leaderboard().unwrap();
    println!("{}", taf_testkit::render_markdown(&rows));
    assert_eq!(rows.len(), 5, "{rows:?}");
    let by_name = |needle: &str| {
        rows.iter()
            .find(|r| r.system.contains(needle))
            .unwrap_or_else(|| panic!("no `{needle}` row in {rows:?}"))
    };
    let full = by_name("full re-survey");
    let unc = by_name("uncertainty-greedy");
    let rass = by_name("RASS");
    let rti = by_name("RTI");
    assert_eq!(rass.refresh_cost, 0);
    assert_eq!(rti.refresh_cost, 0);
    assert_eq!(full.cost_fraction, 1.0, "{rows:?}");
    assert!(unc.refresh_cost * 2 <= full.refresh_cost, "{rows:?}");
    assert!(unc.drifted_loc_mean_m < rass.drifted_loc_mean_m, "{rows:?}");
}

/// Asserts that a crashed-and-recovered run converges to the uninterrupted
/// one: every metric computed after the restart point must match to the last
/// bit. Only the cumulative ingest counters may differ (the live ingestion
/// window is deliberately not persisted).
fn assert_restart_invisible(crashed: &taf_testkit::Scenario) {
    let mut without = crashed.clone();
    without.restart = RestartPoint::None;
    without.crash = CrashPoint::CleanKill;

    let a = run_scenario(crashed).unwrap();
    let b = run_scenario(&without).unwrap();

    let tag = format!("restart {:?} / crash {:?}", crashed.restart, crashed.crash);
    assert_eq!(a.day0, b.day0, "[{tag}] day-0 phase precedes the restart entirely");
    assert_eq!(a.drifted, b.drifted, "[{tag}] drifted eval must be bit-equal across the restart");
    assert_eq!(
        a.recon_rmse_db.to_bits(),
        b.recon_rmse_db.to_bits(),
        "[{tag}] served DB must round-trip bit-exactly: {} vs {}",
        a.recon_rmse_db,
        b.recon_rmse_db
    );
    assert_eq!(a.recon_bias_db.to_bits(), b.recon_bias_db.to_bits(), "[{tag}]");
    assert_eq!(a.refreshes, b.refreshes, "[{tag}]");
    // Snapshots are written at refresh commits, not per tick: maintenance
    // checks between the last commit and the kill are volatile by design, so
    // the revived site may have counted fewer — never more, and never any
    // that changed served state (those would have committed a snapshot).
    assert!(
        a.maintenance_checks <= b.maintenance_checks,
        "[{tag}] revived site counted ticks that never committed: {} > {}",
        a.maintenance_checks,
        b.maintenance_checks
    );
    assert_eq!(a.snapshot_version, b.snapshot_version, "[{tag}]");
    assert_eq!(a.pending_refs, b.pending_refs, "[{tag}]");
    assert_eq!(a.planned_cost, b.planned_cost, "[{tag}] plan costs are persisted");
    assert_eq!(a.actual_cost, b.actual_cost, "[{tag}]");
    assert_eq!(a.full_survey_cost, b.full_survey_cost, "[{tag}]");
}

/// Restart equivalence after the refresh committed: recovery comes from the
/// snapshot alone (every journal record is at or below its watermark).
#[test]
fn restart_is_invisible_to_every_accuracy_metric() {
    assert_restart_invisible(&find_scenario("restart-recovery").unwrap());
}

/// The journal-replay half of the durability contract: the daemon dies after
/// the survey batches were admitted (and journaled) but before any
/// maintenance tick promoted them. The snapshot on disk predates the entire
/// survey, so the post-restart refresh only happens if replay rebuilt the
/// capture round — with zero admitted-sample loss, or the refresh inputs
/// (and every gated metric) would diverge from the uninterrupted run.
#[test]
fn journal_replay_rebuilds_the_capture_round_after_a_pre_refresh_kill() {
    let mut scenario = find_scenario("restart-recovery").unwrap();
    scenario.restart = RestartPoint::BeforeRefresh;
    assert_restart_invisible(&scenario);
}

/// Kill-9 battery over the injected crash points: a kill landing mid-append
/// (torn journal tail) or mid-rename (orphaned snapshot temp file) must
/// recover to exactly the clean-kill state, at both restart points.
#[test]
fn torn_writes_recover_to_the_clean_kill_state() {
    for restart in [RestartPoint::BeforeRefresh, RestartPoint::AfterRefresh] {
        for crash in [CrashPoint::MidAppend, CrashPoint::MidRename] {
            let mut scenario = find_scenario("restart-recovery").unwrap();
            scenario.restart = restart;
            scenario.crash = crash;
            assert_restart_invisible(&scenario);
        }
    }
}

#[test]
fn plan_restart_passes_its_golden_gates() {
    check("plan-restart");
}

/// The adaptive-sensing durability headline: a daemon killed between the
/// first (full-survey) refresh and the budgeted epoch resumes its persisted
/// measurement plan mid-schedule — same cumulative cost, bit-equal accuracy,
/// no forced full survey.
#[test]
fn plan_restart_resumes_the_schedule_at_no_extra_cost() {
    let scenario = find_scenario("plan-restart").unwrap();
    assert_restart_invisible(&scenario);

    // The resumed schedule must also cost exactly what the uninterrupted
    // budgeted scenario spends: round 1 full (36) + round 2 at half budget —
    // a forced post-restart full survey would double round 2.
    let resumed = run_scenario(&scenario).unwrap();
    let uninterrupted = run_scenario(&find_scenario("plan-uncertainty-50").unwrap()).unwrap();
    assert_eq!(resumed.planned_cost, uninterrupted.planned_cost);
    assert_eq!(resumed.actual_cost, uninterrupted.actual_cost);
    assert_eq!(resumed.full_survey_cost, uninterrupted.full_survey_cost);
}

/// A mid-schedule kill combined with a torn snapshot rename: the budgeted
/// epoch still resumes from the newest durable generation.
#[test]
fn plan_restart_survives_a_mid_rename_kill() {
    let mut scenario = find_scenario("plan-restart").unwrap();
    scenario.crash = CrashPoint::MidRename;
    assert_restart_invisible(&scenario);
}
