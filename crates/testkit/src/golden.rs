//! Golden baselines and the accuracy-regression gates.
//!
//! Each built-in scenario has a committed baseline at
//! `results/golden/<name>.json` — the canonical JSON of a blessed
//! [`ScenarioReport`]. [`compare`] checks a fresh run against its golden
//! under the scenario's [`Tolerances`] and returns every violated gate;
//! `cargo test` fails on any non-empty result, and `tafloc testkit --bless`
//! rewrites the files after an intentional accuracy change.
//!
//! ## Tolerance policy
//!
//! * **Error metrics** (localization mean/p90, reconstruction RMSE) are
//!   one-sided: a run may beat its golden by any margin, but may exceed it
//!   by at most the tolerance. Goldens are generated under one RNG backend
//!   and checked under others, so the tolerance absorbs cross-backend
//!   statistical spread — while staying far below the ~3 dB shift a real
//!   reconstruction regression (or the mutation-check bias) produces.
//! * **Structural metrics** (imputation rate) are two-sided: they measure
//!   fault plumbing, not solver quality.
//! * **Counts** (refreshes, snapshot version, pending refs) are exact when
//!   the scenario says so: a fault either blocks the refresh path or it
//!   does not.

use crate::report::ScenarioReport;
use crate::runner::run_scenario;
use crate::scenario::{Scenario, Tolerances};
use std::path::{Path, PathBuf};

/// Directory holding the committed goldens, relative to the workspace root.
pub const GOLDEN_DIR: &str = "results/golden";

/// Workspace root, resolved from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/testkit sits two levels under the workspace root")
        .to_path_buf()
}

/// Path of one scenario's golden file.
pub fn golden_path(name: &str) -> PathBuf {
    workspace_root().join(GOLDEN_DIR).join(format!("{name}.json"))
}

/// Loads a committed golden.
pub fn load_golden(name: &str) -> Result<ScenarioReport, String> {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no golden for `{name}` at {} ({e}); run `tafloc testkit --scenario {name} --bless`",
            path.display()
        )
    })?;
    ScenarioReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `report` as the new golden for its scenario. Returns the path.
pub fn bless(report: &ScenarioReport) -> Result<PathBuf, String> {
    let path = golden_path(&report.scenario);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Compares a run against its golden. Returns one message per violated
/// gate; empty means the run passes.
pub fn compare(report: &ScenarioReport, golden: &ScenarioReport, tol: &Tolerances) -> Vec<String> {
    let mut violations = Vec::new();
    let mut gate = |msg: String| violations.push(msg);

    if report.scenario != golden.scenario {
        gate(format!("scenario name `{}` != golden `{}`", report.scenario, golden.scenario));
    }
    if report.seed != golden.seed || report.eval_cells != golden.eval_cells {
        gate(format!(
            "run shape changed: seed {} / {} eval cells vs golden seed {} / {} — re-bless",
            report.seed, report.eval_cells, golden.seed, golden.eval_cells
        ));
    }
    if report.plan_policy != golden.plan_policy {
        gate(format!(
            "plan policy `{}` != golden `{}` — re-bless",
            report.plan_policy, golden.plan_policy
        ));
    }

    let mut upper = |label: &str, got: f64, base: f64, tol: f64| {
        if got > base + tol {
            gate(format!("{label}: {got:.4} exceeds golden {base:.4} + tolerance {tol:.4}"));
        }
    };
    upper(
        "day0 mean localization error (m)",
        report.day0.loc.mean,
        golden.day0.loc.mean,
        tol.day0_loc_mean_m,
    );
    upper(
        "drifted mean localization error (m)",
        report.drifted.loc.mean,
        golden.drifted.loc.mean,
        tol.loc_mean_m,
    );
    upper(
        "drifted p90 localization error (m)",
        report.drifted.loc.p90,
        golden.drifted.loc.p90,
        tol.loc_p90_m,
    );
    upper(
        "reconstruction RMSE (dB)",
        report.recon_rmse_db,
        golden.recon_rmse_db,
        tol.recon_rmse_db,
    );

    let mut two_sided = |label: &str, got: f64, base: f64, tol: f64| {
        if (got - base).abs() > tol {
            gate(format!("{label}: {got:.4} deviates from golden {base:.4} by more than {tol:.4}"));
        }
    };
    two_sided(
        "reconstruction bias (dB)",
        report.recon_bias_db,
        golden.recon_bias_db,
        tol.recon_bias_db,
    );
    two_sided(
        "day0 imputation rate",
        report.day0.imputation_rate,
        golden.day0.imputation_rate,
        tol.imputation_rate,
    );
    two_sided(
        "drifted imputation rate",
        report.drifted.imputation_rate,
        golden.drifted.imputation_rate,
        tol.imputation_rate,
    );
    two_sided(
        "day0 stale rate",
        report.day0.stale_rate,
        golden.day0.stale_rate,
        tol.imputation_rate,
    );
    two_sided(
        "drifted stale rate",
        report.drifted.stale_rate,
        golden.drifted.stale_rate,
        tol.imputation_rate,
    );

    if tol.exact_counts {
        if report.refreshes != golden.refreshes {
            gate(format!("refreshes: {} != golden {}", report.refreshes, golden.refreshes));
        }
        if report.snapshot_version != golden.snapshot_version {
            gate(format!(
                "snapshot version: {} != golden {}",
                report.snapshot_version, golden.snapshot_version
            ));
        }
        if report.pending_refs != golden.pending_refs {
            gate(format!(
                "pending refs: {} != golden {}",
                report.pending_refs, golden.pending_refs
            ));
        }
        // Measurement-cost accounting is a pure function of the scenario:
        // the planner is deterministic and every survey round's size is
        // scripted, so the counters must match the golden exactly. This is
        // the "budgeted refresh really cost <= 50%" gate.
        if report.planned_cost != golden.planned_cost {
            gate(format!(
                "planned cost: {} != golden {}",
                report.planned_cost, golden.planned_cost
            ));
        }
        if report.actual_cost != golden.actual_cost {
            gate(format!("actual cost: {} != golden {}", report.actual_cost, golden.actual_cost));
        }
        if report.full_survey_cost != golden.full_survey_cost {
            gate(format!(
                "full-survey cost: {} != golden {}",
                report.full_survey_cost, golden.full_survey_cost
            ));
        }
    }
    violations
}

/// Runs a scenario and gates it against its committed golden. `Ok` carries
/// the fresh report; `Err` carries the violated gates (or a run/load error).
pub fn run_and_check(scenario: &Scenario) -> Result<ScenarioReport, Vec<String>> {
    let report = run_scenario(scenario).map_err(|e| vec![e])?;
    let golden = load_golden(scenario.name).map_err(|e| vec![e])?;
    let violations = compare(&report, &golden, &scenario.tolerances);
    if violations.is_empty() {
        Ok(report)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PhaseMetrics;
    use tafloc_core::eval::ErrorSummary;

    fn report(mean: f64, rmse: f64) -> ScenarioReport {
        let phase = |m: f64| PhaseMetrics {
            loc: ErrorSummary { mean: m, median: m, p90: m * 1.5, max: m * 2.0, count: 8 },
            imputation_rate: 0.0,
            stale_rate: 0.0,
        };
        ScenarioReport {
            scenario: "x".into(),
            seed: 1,
            drift_day: 60.0,
            eval_cells: 8,
            day0: phase(mean),
            drifted: phase(mean),
            recon_rmse_db: rmse,
            recon_bias_db: 0.0,
            refreshes: 1,
            maintenance_checks: 5,
            snapshot_version: 1,
            pending_refs: false,
            ingest_accepted: 100,
            ingest_dropped_late: 0,
            ingest_dropped_queue_batches: 0,
            ingest_rejected_outliers: 0,
            planned_cost: 36,
            actual_cost: 36,
            full_survey_cost: 36,
            plan_policy: String::new(),
        }
    }

    #[test]
    fn identical_reports_pass_and_better_runs_pass() {
        let tol = Tolerances::default();
        let golden = report(0.5, 1.2);
        assert!(compare(&golden, &golden, &tol).is_empty());
        // Strictly better than the golden: still a pass (one-sided gates).
        assert!(compare(&report(0.2, 0.6), &golden, &tol).is_empty());
    }

    #[test]
    fn regressions_fail_the_matching_gate() {
        let tol = Tolerances::default();
        let golden = report(0.5, 1.2);
        let worse = report(0.5, 1.2 + tol.recon_rmse_db + 0.5);
        let violations = compare(&worse, &golden, &tol);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("reconstruction RMSE"), "{violations:?}");

        let mut blocked = report(0.5, 1.2);
        blocked.refreshes = 0;
        blocked.snapshot_version = 0;
        let violations = compare(&blocked, &golden, &tol);
        assert!(violations.iter().any(|v| v.contains("refreshes")), "{violations:?}");
    }

    #[test]
    fn shape_changes_demand_a_rebless() {
        let tol = Tolerances::default();
        let golden = report(0.5, 1.2);
        let mut reshaped = report(0.5, 1.2);
        reshaped.seed = 2;
        let violations = compare(&reshaped, &golden, &tol);
        assert!(violations.iter().any(|v| v.contains("re-bless")), "{violations:?}");
    }

    #[test]
    fn bias_and_rates_are_gated_both_ways() {
        let tol = Tolerances::default();
        let golden = report(0.5, 1.2);
        let mut cleaner = report(0.5, 1.2);
        cleaner.drifted.imputation_rate = -(tol.imputation_rate + 0.01);
        cleaner.recon_bias_db = -(tol.recon_bias_db + 0.01);
        let violations = compare(&cleaner, &golden, &tol);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.contains("deviates from golden")), "{violations:?}");
    }

    #[test]
    fn cost_counters_must_match_exactly_when_counts_are_exact() {
        let golden = report(0.5, 1.2);
        let mut cheaper = report(0.5, 1.2);
        cheaper.actual_cost = 18;
        let exact = Tolerances { exact_counts: true, ..Tolerances::default() };
        let violations = compare(&cheaper, &golden, &exact);
        assert_eq!(violations, ["actual cost: 18 != golden 36"]);
        let loose = Tolerances { exact_counts: false, ..exact };
        assert!(compare(&cheaper, &golden, &loose).is_empty());
    }

    #[test]
    fn plan_policy_change_demands_a_rebless() {
        let golden = report(0.5, 1.2);
        let mut replanned = report(0.5, 1.2);
        replanned.plan_policy = "uncertainty-greedy".into();
        let violations = compare(&replanned, &golden, &Tolerances::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("plan policy") && violations[0].contains("re-bless"));
    }

    #[test]
    fn golden_path_is_under_results_golden() {
        let p = golden_path("nominal");
        assert!(p.ends_with("results/golden/nominal.json"), "{}", p.display());
    }
}
