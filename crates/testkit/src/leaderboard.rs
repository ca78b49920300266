//! Cost-vs-accuracy leaderboard: the adaptive-sensing scenarios side by side
//! with the in-tree RTI and RASS baselines (`taf-baselines`) on the same
//! world.
//!
//! Every row answers the same question — *what does the drifted-day accuracy
//! cost in refresh measurements?* The TafLoc rows come from the plan-scenario
//! reports (full serving stack: noisy streams, ingest, budgeted refresh);
//! the baseline rows run the published RTI / RASS algorithms on averaged RSS
//! snapshots at the same evaluation cells, which if anything flatters them —
//! they skip the stream-health machinery entirely. RTI needs no fingerprint
//! refresh at all (it inverts live attenuation against a live empty-room
//! baseline) and stale RASS deliberately refuses to refresh; both therefore
//! report a refresh cost of zero, and their error shows what that saving
//! buys.

use crate::runner::run_scenario;
use crate::scenario::find_scenario;
use taf_baselines::{Rass, RassConfig, Rti, RtiConfig};
use taf_rfsim::geometry::Segment;
use taf_rfsim::{campaign, World};
use tafloc_core::db::FingerprintDb;

/// Snapshot averaging depth for the baseline rows (matches the plan
/// scenarios' ~30 s, 1 Hz evaluation streams).
const BASELINE_SAMPLES: usize = 30;

/// One system's place on the cost-vs-accuracy leaderboard.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderboardRow {
    /// Human-readable system label.
    pub system: String,
    /// Link-measurements spent on the drifted-day refresh round (`0` for
    /// systems that never re-survey).
    pub refresh_cost: u64,
    /// Same cost as a fraction of one full reference survey.
    pub cost_fraction: f64,
    /// Mean localization error (m) at the drifted evaluation day.
    pub drifted_loc_mean_m: f64,
}

/// Builds the leaderboard: three TafLoc sensing policies (from the committed
/// plan scenarios) plus RTI and stale RASS on the identical world and
/// evaluation grid. Deterministic — every input is seeded.
pub fn leaderboard() -> Result<Vec<LeaderboardRow>, String> {
    let mut rows = Vec::new();

    for (name, label) in [
        ("plan-full-survey", "TafLoc, full re-survey"),
        ("plan-uncertainty-50", "TafLoc, uncertainty-greedy @ 50% budget"),
        ("plan-fixed-50", "TafLoc, fixed-schedule @ 50% budget"),
    ] {
        let scenario =
            find_scenario(name).ok_or_else(|| format!("missing built-in scenario `{name}`"))?;
        let report = run_scenario(&scenario)?;
        // Cumulative counters cover two survey rounds; round 1 is always a
        // full survey, so the drifted refresh cost is the remainder.
        let per_round = report.full_survey_cost / 2;
        let refresh_cost = report.actual_cost - per_round;
        rows.push(LeaderboardRow {
            system: label.to_string(),
            refresh_cost,
            cost_fraction: refresh_cost as f64 / per_round.max(1) as f64,
            drifted_loc_mean_m: report.drifted.loc.mean,
        });
    }

    // Baselines: same world seed, same drifted day, same evaluation cells.
    let scenario = find_scenario("plan-full-survey").expect("committed scenario");
    let plan = scenario.plan.expect("plan scenario carries a PlanSpec");
    let world = World::new(scenario.world.config(), scenario.seed);
    let day = plan.second_drift_day;
    let eval_cells: Vec<usize> = (0..world.num_cells()).step_by(scenario.eval_stride).collect();

    let x0 = campaign::full_calibration(&world, 0.0, scenario.survey_samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, scenario.survey_samples);
    let db0 = FingerprintDb::from_world(x0, &world).map_err(|e| e.to_string())?;
    let fresh_empty = campaign::empty_snapshot(&world, day, BASELINE_SAMPLES);

    let links: Vec<Segment> = world.deployment().links().iter().map(|l| l.segment).collect();
    let rti = Rti::new(&links, world.grid(), RtiConfig::default()).map_err(|e| e.to_string())?;
    let rass = Rass::new(db0, e0, RassConfig::default()).map_err(|e| e.to_string())?;

    let mut rti_errors = Vec::with_capacity(eval_cells.len());
    let mut rass_errors = Vec::with_capacity(eval_cells.len());
    for &cell in &eval_cells {
        let truth = world.grid().cell_center(cell);
        let y = campaign::snapshot_at_cell(&world, day, cell, BASELINE_SAMPLES);
        let fix = rti.localize(&fresh_empty, &y).map_err(|e| e.to_string())?;
        rti_errors.push(fix.point.distance(&truth));
        let fix = rass.localize(&y).map_err(|e| e.to_string())?;
        rass_errors.push(fix.point.distance(&truth));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    rows.push(LeaderboardRow {
        system: "RTI (no fingerprints)".to_string(),
        refresh_cost: 0,
        cost_fraction: 0.0,
        drifted_loc_mean_m: mean(&rti_errors),
    });
    rows.push(LeaderboardRow {
        system: "RASS (stale database)".to_string(),
        refresh_cost: 0,
        cost_fraction: 0.0,
        drifted_loc_mean_m: mean(&rass_errors),
    });
    Ok(rows)
}

/// Renders the leaderboard as a GitHub-flavored markdown table.
pub fn render_markdown(rows: &[LeaderboardRow]) -> String {
    let mut out = String::from(
        "| System | Refresh cost (link-meas.) | Cost vs full survey | Drifted mean error (m) |\n\
         |---|---:|---:|---:|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {:.0}% | {:.2} |\n",
            r.system,
            r.refresh_cost,
            r.cost_fraction * 100.0,
            r.drifted_loc_mean_m
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_has_one_line_per_row_plus_header() {
        let rows = vec![LeaderboardRow {
            system: "x".into(),
            refresh_cost: 18,
            cost_fraction: 0.5,
            drifted_loc_mean_m: 1.25,
        }];
        let md = render_markdown(&rows);
        assert_eq!(md.lines().count(), 3);
        assert!(md.contains("| x | 18 | 50% | 1.25 |"), "{md}");
    }

    #[test]
    fn markdown_keeps_row_order_and_rounds_for_display() {
        let row = |system: &str, refresh_cost, cost_fraction, drifted_loc_mean_m| LeaderboardRow {
            system: system.into(),
            refresh_cost,
            cost_fraction,
            drifted_loc_mean_m,
        };
        let md = render_markdown(&[row("b", 12, 1.0 / 3.0, 1.234), row("a", 0, 0.0, 2.0)]);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[2], "| b | 12 | 33% | 1.23 |");
        assert_eq!(lines[3], "| a | 0 | 0% | 2.00 |");
        assert_eq!(render_markdown(&[]).lines().count(), 2, "a header without rows");
    }
}
