//! RASS — Zhang et al., "RASS: a real-time, accurate, and scalable system for
//! tracking transceiver-free objects", IEEE TPDS 2013.
//!
//! RASS is the fingerprint-*dependent* comparator in the paper's Fig. 5. It
//! classifies the target into a grid cell from the pattern of **influential
//! links** — links whose RSS visibly drops when the target is present — and
//! refines the estimate to the weighted center of the best-matching cells
//! (the original paper interpolates inside its triangle cells; on TafLoc's
//! square grid we use the analogous top-`k` weighted centroid).
//!
//! Because it matches against stored per-cell signatures, RASS inherits the
//! fingerprint-aging problem: Fig. 5 evaluates it both on a 3-month-old database
//! ("RASS w/o rec.") and on a database refreshed by TafLoc's reconstruction
//! scheme ("RASS w/ rec."), demonstrating that the reconstruction transfers to
//! other fingerprint systems.

use taf_rfsim::geometry::Point;
use tafloc_core::db::FingerprintDb;
use tafloc_core::error::TaflocError;
use tafloc_core::matcher::top_k_by;
use tafloc_core::Result;

/// RASS configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RassConfig {
    /// RSS drop (dB) below the empty-room level that makes a link "influential".
    pub influence_threshold_db: f64,
    /// Number of best-matching cells averaged into the position estimate.
    pub top_k: usize,
    /// Weight of non-influential links in the signature distance. RASS's
    /// classification is driven by the influential links; the remaining links
    /// enter at this reduced weight to disambiguate positions along a single
    /// link's ellipse.
    pub background_weight: f64,
}

impl Default for RassConfig {
    fn default() -> Self {
        RassConfig { influence_threshold_db: 2.0, top_k: 3, background_weight: 0.25 }
    }
}

/// A RASS instance bound to a fingerprint database (stale or reconstructed).
///
/// ```
/// use taf_baselines::{Rass, RassConfig};
/// use taf_rfsim::{campaign, World, WorldConfig};
/// use tafloc_core::db::FingerprintDb;
///
/// let world = World::new(WorldConfig::small_test(), 1);
/// let x = campaign::full_calibration(&world, 0.0, 20);
/// let empty = campaign::empty_snapshot(&world, 0.0, 20);
/// let db = FingerprintDb::from_world(x, &world).unwrap();
/// let rass = Rass::new(db, empty, RassConfig::default()).unwrap();
///
/// let y = campaign::snapshot_at_cell(&world, 0.0, 7, 20);
/// let fix = rass.localize(&y).unwrap();
/// assert!(fix.cell < world.num_cells());
/// ```
#[derive(Debug, Clone)]
pub struct Rass {
    config: RassConfig,
    db: FingerprintDb,
    /// Empty-room RSS measured when the database was built.
    db_empty: Vec<f64>,
}

/// One localization output.
#[derive(Debug, Clone)]
pub struct RassFix {
    /// Best-matching cell.
    pub cell: usize,
    /// Weighted centroid of the top cells.
    pub point: Point,
    /// Number of influential links used for the match.
    pub influential_links: usize,
}

impl Rass {
    /// Binds RASS to a database and the empty-room RSS vector that matches it.
    pub fn new(db: FingerprintDb, db_empty: Vec<f64>, config: RassConfig) -> Result<Self> {
        if db_empty.len() != db.num_links() {
            return Err(TaflocError::DimensionMismatch {
                op: "Rass::new",
                expected: (db.num_links(), 1),
                actual: (db_empty.len(), 1),
            });
        }
        if config.top_k == 0 || !(config.influence_threshold_db >= 0.0) {
            return Err(TaflocError::InvalidConfig {
                field: "rass",
                reason: format!(
                    "top_k ({}) must be >= 1 and influence_threshold ({}) >= 0",
                    config.top_k, config.influence_threshold_db
                ),
            });
        }
        Ok(Rass { config, db, db_empty })
    }

    /// The bound database.
    pub fn db(&self) -> &FingerprintDb {
        &self.db
    }

    /// Swaps in a refreshed database (e.g. one reconstructed by TafLoc) together
    /// with the empty-room vector measured at refresh time — the paper's
    /// "RASS w/ rec." configuration.
    pub fn with_database(&self, db: FingerprintDb, db_empty: Vec<f64>) -> Result<Self> {
        Rass::new(db, db_empty, self.config)
    }

    /// Localizes a live target measurement.
    ///
    /// The per-link drop is computed against the **stored** baseline from
    /// database-build time — a deployed device-free system cannot know when the
    /// room is currently empty (detecting the un-instrumented target is the whole
    /// point), so its baseline ages together with its fingerprints. This is
    /// exactly why Fig. 5's "RASS w/o rec." degrades after 3 months and why
    /// refreshing the database (and baseline) with TafLoc's cheap reconstruction
    /// ("RASS w/ rec.") restores it.
    pub fn localize(&self, y: &[f64]) -> Result<RassFix> {
        let m = self.db.num_links();
        if y.len() != m {
            return Err(TaflocError::DimensionMismatch {
                op: "Rass::localize",
                expected: (m, 1),
                actual: (y.len(), 1),
            });
        }
        // Per-link RSS drop relative to the stored baseline.
        let live_drop: Vec<f64> = self.db_empty.iter().zip(y).map(|(e, v)| e - v).collect();
        // Influential links: clear drop now.
        let influential: Vec<usize> =
            (0..m).filter(|&i| live_drop[i] > self.config.influence_threshold_db).collect();
        let num_influential = if influential.is_empty() { m } else { influential.len() };
        let weight: Vec<f64> = (0..m)
            .map(|i| {
                if influential.is_empty() || influential.contains(&i) {
                    1.0
                } else {
                    self.config.background_weight
                }
            })
            .collect();

        // Signature distance per cell: compare stored drops with live drops,
        // influential links dominating.
        let x = self.db.rss();
        let n = self.db.num_cells();
        let mut scores = Vec::with_capacity(n);
        for j in 0..n {
            let mut acc = 0.0;
            for i in 0..m {
                let stored_drop = self.db_empty[i] - x[(i, j)];
                let d = stored_drop - live_drop[i];
                acc += weight[i] * d * d;
            }
            scores.push(acc.sqrt());
        }
        let (best, _) = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .expect("non-empty grid");

        let order = top_k_by(n, self.config.top_k.min(n), |a, b| {
            scores[a].partial_cmp(&scores[b]).expect("finite scores")
        });
        // Same spatial gate as the TafLoc matcher: only cells near the best
        // match join the centroid, so signature aliasing cannot drag the
        // estimate across the room.
        let best_center = self.db.grid().cell_center(best);
        let gate_m = 2.5 * self.db.grid().cell_size();
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut wsum = 0.0;
        for &j in &order {
            let c = self.db.grid().cell_center(j);
            if c.distance(&best_center) > gate_m {
                continue;
            }
            let w = 1.0 / (scores[j] + 1e-6);
            wx += w * c.x;
            wy += w * c.y;
            wsum += w;
        }
        Ok(RassFix {
            cell: best,
            point: Point::new(wx / wsum, wy / wsum),
            influential_links: num_influential,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::{campaign, World, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig::paper_default(), 31)
    }

    fn fresh_rass(world: &World, t: f64) -> Rass {
        let x = campaign::full_calibration(world, t, 50);
        let empty = campaign::empty_snapshot(world, t, 50);
        let db = FingerprintDb::from_world(x, world).unwrap();
        Rass::new(db, empty, RassConfig::default()).unwrap()
    }

    #[test]
    fn fresh_database_localizes_well() {
        let w = world();
        let rass = fresh_rass(&w, 0.0);
        let mut errors = Vec::new();
        for cell in (0..w.num_cells()).step_by(5) {
            let y = campaign::snapshot_at_cell(&w, 0.0, cell, 50);
            let fix = rass.localize(&y).unwrap();
            errors.push(fix.point.distance(&w.grid().cell_center(cell)));
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        assert!(mean < 1.6, "fresh RASS mean error {mean:.2} m");
    }

    #[test]
    fn stale_database_degrades() {
        let w = world();
        let rass = fresh_rass(&w, 0.0); // calibrated at day 0
        let t = 90.0;
        let err_of = |r: &Rass| {
            let mut errors = Vec::new();
            for cell in (0..w.num_cells()).step_by(5) {
                let y = campaign::snapshot_at_cell(&w, t, cell, 50);
                let fix = r.localize(&y).unwrap();
                errors.push(fix.point.distance(&w.grid().cell_center(cell)));
            }
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        let stale_err = err_of(&rass);
        let refreshed = fresh_rass(&w, t); // full re-survey at day 90
        let fresh_err = err_of(&refreshed);
        assert!(
            stale_err > fresh_err,
            "3-month-old fingerprints must hurt RASS: stale {stale_err:.2} m vs fresh {fresh_err:.2} m"
        );
    }

    #[test]
    fn with_database_swaps_fingerprints() {
        let w = world();
        let rass = fresh_rass(&w, 0.0);
        let x90 = campaign::full_calibration(&w, 90.0, 50);
        let e90 = campaign::empty_snapshot(&w, 90.0, 50);
        let db90 = FingerprintDb::from_world(x90, &w).unwrap();
        let swapped = rass.with_database(db90, e90).unwrap();
        assert!(!std::ptr::eq(rass.db(), swapped.db()));
    }

    #[test]
    fn influential_links_detected() {
        let w = world();
        let rass = fresh_rass(&w, 0.0);
        // Find a cell on some link's LoS: it must make that link influential.
        let seg = w.deployment().link(0).segment;
        let (cell, _) = (0..w.num_cells())
            .map(|c| (c, seg.distance_to_point(&w.grid().cell_center(c))))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let y = campaign::snapshot_at_cell(&w, 0.0, cell, 50);
        let fix = rass.localize(&y).unwrap();
        assert!(fix.influential_links >= 1);
        assert!(fix.influential_links <= w.num_links());
    }

    #[test]
    fn validates_inputs() {
        let w = world();
        let x = campaign::full_calibration(&w, 0.0, 10);
        let db = FingerprintDb::from_world(x, &w).unwrap();
        assert!(Rass::new(db.clone(), vec![0.0; 2], RassConfig::default()).is_err());
        let bad = RassConfig { top_k: 0, ..Default::default() };
        assert!(Rass::new(db.clone(), vec![-40.0; 10], bad).is_err());
        let bad = RassConfig { influence_threshold_db: -1.0, ..Default::default() };
        assert!(Rass::new(db.clone(), vec![-40.0; 10], bad).is_err());

        let rass = Rass::new(db, vec![-40.0; 10], RassConfig::default()).unwrap();
        assert!(rass.localize(&[0.0; 2]).is_err());
    }

    #[test]
    fn no_influential_links_falls_back_to_all() {
        let w = world();
        let rass = fresh_rass(&w, 0.0);
        // Live measurement equal to the stored baseline -> no drops anywhere.
        let baseline = campaign::empty_snapshot(&w, 0.0, 50);
        let fix = rass.localize(&baseline).unwrap();
        assert_eq!(fix.influential_links, w.num_links());
    }
}
