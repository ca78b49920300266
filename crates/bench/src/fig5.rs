//! Fig. 5 driver: localization error CDFs of the four systems, three months
//! after calibration.
//!
//! All four systems are driven over **identical** live measurements:
//!
//! * **TafLoc** — database reconstructed at `t = 90 d` from the 10 reference
//!   cells; KNN matching.
//! * **RTI** — no fingerprints; inverts the live attenuation against a live
//!   empty-room baseline (drift-immune, geometry-limited).
//! * **RASS w/ rec.** — the RASS classifier running on TafLoc's reconstructed
//!   database and the fresh baseline (the paper's demonstration that the
//!   reconstruction transfers).
//! * **RASS w/o rec.** — the RASS classifier on the 3-month-old database and
//!   baseline.

use taf_baselines::{Rass, RassConfig, Rti, RtiConfig};
use taf_rfsim::geometry::Segment;
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};

/// The evaluation horizon: 3 months after the initial site survey.
pub const HORIZON_DAYS: f64 = 90.0;

/// Localization errors (m) per system.
#[derive(Debug, Clone, Default)]
pub struct Fig5Result {
    /// TafLoc with LoLi-IR reconstruction.
    pub tafloc: Vec<f64>,
    /// Radio tomographic imaging.
    pub rti: Vec<f64>,
    /// RASS on the reconstructed database.
    pub rass_with_rec: Vec<f64>,
    /// RASS on the stale database.
    pub rass_without_rec: Vec<f64>,
}

impl Fig5Result {
    /// Merges another result's samples into this one.
    pub fn merge(&mut self, other: Fig5Result) {
        self.tafloc.extend(other.tafloc);
        self.rti.extend(other.rti);
        self.rass_with_rec.extend(other.rass_with_rec);
        self.rass_without_rec.extend(other.rass_without_rec);
    }
}

/// Runs the Fig. 5 protocol on one world seed. Every grid cell (stepped by
/// `cell_step` to control runtime) is used as a test position.
pub fn run_seed(seed: u64, samples: usize, cell_step: usize) -> Fig5Result {
    let world = World::new(WorldConfig::paper_default(), seed);
    let t = HORIZON_DAYS;

    // Day-0 site survey.
    let x0 = campaign::full_calibration(&world, 0.0, samples);
    let e0 = campaign::empty_snapshot(&world, 0.0, samples);
    let db0 = FingerprintDb::from_world(x0, &world).expect("world-consistent db");

    // TafLoc: calibrate, then reference-only update at t.
    let mut tafloc = TafLoc::calibrate(TafLocConfig::default(), db0.clone(), e0.clone())
        .expect("calibration succeeds");
    let fresh = campaign::measure_columns(&world, t, tafloc.reference_cells(), samples);
    let fresh_empty = campaign::empty_snapshot(&world, t, samples);
    tafloc.update(&fresh, &fresh_empty).expect("update succeeds");

    // RTI: geometry only.
    let links: Vec<Segment> = world.deployment().links().iter().map(|l| l.segment).collect();
    let rti = Rti::new(&links, world.grid(), RtiConfig::default()).expect("rti builds");

    // RASS without reconstruction: stale DB + stale baseline.
    let rass_stale = Rass::new(db0, e0, RassConfig::default()).expect("rass builds");
    // RASS with reconstruction: TafLoc's reconstructed DB + fresh baseline.
    let rass_rec =
        rass_stale.with_database(tafloc.db().clone(), fresh_empty.clone()).expect("rass rebind");

    let mut out = Fig5Result::default();
    for cell in (0..world.num_cells()).step_by(cell_step.max(1)) {
        let truth = world.grid().cell_center(cell);
        let y = campaign::snapshot_at_cell(&world, t, cell, samples);

        let fix = tafloc.localize(&y).expect("tafloc localizes");
        out.tafloc.push(fix.point.distance(&truth));

        let fix = rti.localize(&fresh_empty, &y).expect("rti localizes");
        out.rti.push(fix.point.distance(&truth));

        let fix = rass_rec.localize(&y).expect("rass(rec) localizes");
        out.rass_with_rec.push(fix.point.distance(&truth));

        let fix = rass_stale.localize(&y).expect("rass(stale) localizes");
        out.rass_without_rec.push(fix.point.distance(&truth));
    }
    out
}

/// Runs the experiment over seeds and merges samples.
pub fn run(seeds: &[u64], samples: usize, cell_step: usize) -> Fig5Result {
    let per_seed: Vec<_> = seeds.iter().map(|&seed| run_seed(seed, samples, cell_step)).collect();
    let mut merged = Fig5Result::default();
    for r in per_seed {
        merged.merge(r);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_linalg::stats::median;

    #[test]
    fn tafloc_wins_and_stale_rass_suffers() {
        // Reduced scale: 1 seed, every 4th cell.
        let r = run(&[5], 30, 4);
        assert!(!r.tafloc.is_empty());
        let med = |v: &[f64]| median(v).unwrap();
        let (t, rti, rwr, rwo) =
            (med(&r.tafloc), med(&r.rti), med(&r.rass_with_rec), med(&r.rass_without_rec));
        // The paper's headline ordering: TafLoc best; RASS w/ rec beats RASS w/o.
        assert!(
            t <= rwr + 0.35,
            "TafLoc {t:.2} should be at or near the front (RASS w/ rec {rwr:.2})"
        );
        assert!(t < rwo, "TafLoc {t:.2} must beat stale RASS {rwo:.2}");
        assert!(t < rti + 0.6, "TafLoc {t:.2} should not trail RTI {rti:.2} meaningfully");
        assert!(rwr < rwo, "reconstruction must help RASS: {rwr:.2} vs {rwo:.2}");
    }
}
