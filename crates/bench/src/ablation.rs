//! Shared driver for the design-choice ablations (DESIGN.md rows `abl-rank`,
//! `abl-ref`, `abl-terms`): run the 90-day update under a modified
//! configuration and report reconstruction error plus localization quality.

use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::eval::reconstruction_errors;
use tafloc_core::system::{TafLoc, TafLocConfig};

/// Evaluation horizon shared by all ablations (the paper's 3-month point).
pub const HORIZON_DAYS: f64 = 90.0;

/// Outcome of one ablation cell.
#[derive(Debug, Clone, Copy)]
pub struct AblationOutcome {
    /// Mean absolute reconstruction error (dBm) against the drifted truth.
    pub recon_mean_dbm: f64,
    /// Median localization error (m) over the sampled test cells.
    pub loc_median_m: f64,
}

/// Runs calibrate -> 90-day reference update -> localize for one seed under
/// `config`, testing every `cell_step`-th cell.
pub fn evaluate(
    config: TafLocConfig,
    seed: u64,
    samples: usize,
    cell_step: usize,
) -> AblationOutcome {
    let world = World::new(WorldConfig::paper_default(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db = FingerprintDb::from_world(x0, &world).expect("world-consistent db");
    let mut sys = TafLoc::calibrate(config, db, e0).expect("calibration succeeds");

    let t = HORIZON_DAYS;
    let fresh = campaign::measure_columns(&world, t, sys.reference_cells(), samples);
    let empty = campaign::empty_snapshot(&world, t, samples);
    sys.update(&fresh, &empty).expect("update succeeds");

    let truth = world.fingerprint_truth(t);
    let errs = reconstruction_errors(sys.db().rss(), &truth).expect("shapes agree");
    let recon_mean_dbm = errs.iter().sum::<f64>() / errs.len() as f64;

    let mut loc_errs: Vec<f64> = Vec::new();
    for cell in (0..world.num_cells()).step_by(cell_step.max(1)) {
        let y = campaign::snapshot_at_cell(&world, t, cell, samples);
        let fix = sys.localize(&y).expect("localization succeeds");
        loc_errs.push(fix.point.distance(&world.grid().cell_center(cell)));
    }
    let loc_median_m = taf_linalg::stats::median(&loc_errs).expect("non-empty");
    AblationOutcome { recon_mean_dbm, loc_median_m }
}

/// Averages [`evaluate`] over several seeds.
pub fn evaluate_seeds(
    config: TafLocConfig,
    seeds: &[u64],
    samples: usize,
    cell_step: usize,
) -> AblationOutcome {
    let outs: Vec<_> = seeds.iter().map(|&s| evaluate(config, s, samples, cell_step)).collect();
    let n = outs.len() as f64;
    AblationOutcome {
        recon_mean_dbm: outs.iter().map(|o| o.recon_mean_dbm).sum::<f64>() / n,
        loc_median_m: outs.iter().map(|o| o.loc_median_m).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_produces_sane_numbers() {
        let out = evaluate(TafLocConfig::default(), 3, 20, 8);
        assert!(out.recon_mean_dbm > 0.0 && out.recon_mean_dbm < 10.0, "{out:?}");
        assert!(out.loc_median_m >= 0.0 && out.loc_median_m < 5.0, "{out:?}");
    }
}
