//! Target tracking: a particle filter over the fingerprint database.
//!
//! The paper's applications track *moving* people ("fine-grained" localization
//! over time), and its comparator RASS is explicitly a tracking system. This
//! module fuses per-snapshot fingerprint likelihoods with a simple human-motion
//! model:
//!
//! * **predict** — particles random-walk with a step scale `speed · dt`,
//!   reflected at the monitored-region boundary;
//! * **update** — each particle is weighted by the Gaussian likelihood of the
//!   live RSS vector against the fingerprint of the particle's cell;
//! * **resample** — systematic resampling whenever the effective sample size
//!   collapses below a configured fraction.
//!
//! Compared to snapshot matching, tracking suppresses the fingerprint-aliasing
//! outliers (a far-away cell with a coincidentally similar fingerprint is
//! unreachable under the motion model).

use crate::db::FingerprintDb;
use crate::error::TaflocError;
use crate::Result;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use taf_rfsim::geometry::Point;
use taf_rfsim::rng::GaussianSource;

/// Particle-filter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Number of particles.
    pub num_particles: usize,
    /// Motion-model speed scale (m/s): the per-step displacement std is
    /// `speed_mps · dt`.
    pub speed_mps: f64,
    /// RSS likelihood scale (dB) — the assumed measurement noise per link.
    pub sigma_db: f64,
    /// Resample when the effective sample size falls below this fraction of
    /// `num_particles` (in `(0, 1]`).
    pub resample_fraction: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig { num_particles: 400, speed_mps: 1.2, sigma_db: 2.5, resample_fraction: 0.5 }
    }
}

/// One tracking estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackEstimate {
    /// Weighted-mean position.
    pub point: Point,
    /// Effective sample size at estimate time (diagnostic; low = degenerate).
    pub effective_sample_size: f64,
}

/// A particle filter bound to a fingerprint database.
///
/// ```
/// use taf_rfsim::{campaign, World, WorldConfig};
/// use tafloc_core::db::FingerprintDb;
/// use tafloc_core::tracking::{ParticleFilter, TrackerConfig};
///
/// let world = World::new(WorldConfig::small_test(), 1);
/// let db = FingerprintDb::from_world(campaign::full_calibration(&world, 0.0, 20), &world).unwrap();
/// let mut pf = ParticleFilter::new(&db, TrackerConfig::default(), 7).unwrap();
/// for _step in 0..5 {
///     let y = campaign::snapshot_at_cell(&world, 0.0, 12, 20);
///     let est = pf.step(&db, &y, 1.0).unwrap();
///     assert!(est.point.x.is_finite());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ParticleFilter {
    config: TrackerConfig,
    particles: Vec<Point>,
    weights: Vec<f64>,
    rng: StdRng,
}

impl ParticleFilter {
    /// Creates a filter with particles spread uniformly over the monitored
    /// region of `db`'s grid.
    pub fn new(db: &FingerprintDb, config: TrackerConfig, seed: u64) -> Result<Self> {
        if config.num_particles == 0 {
            return Err(TaflocError::InvalidConfig {
                field: "num_particles",
                reason: "must be >= 1".into(),
            });
        }
        if !(config.sigma_db > 0.0) || !(config.speed_mps > 0.0) {
            return Err(TaflocError::InvalidConfig {
                field: "tracker",
                reason: "speed and sigma must be positive".into(),
            });
        }
        if !(config.resample_fraction > 0.0 && config.resample_fraction <= 1.0) {
            return Err(TaflocError::InvalidConfig {
                field: "resample_fraction",
                reason: format!("must be in (0, 1], got {}", config.resample_fraction),
            });
        }
        let g = db.grid();
        let mut rng = StdRng::seed_from_u64(seed);
        let particles = (0..config.num_particles)
            .map(|_| {
                Point::new(
                    g.origin().x + g.width() * rng.random::<f64>(),
                    g.origin().y + g.height() * rng.random::<f64>(),
                )
            })
            .collect();
        let weights = vec![1.0 / config.num_particles as f64; config.num_particles];
        Ok(ParticleFilter { config, particles, weights, rng })
    }

    /// Advances the filter by one measurement: motion prediction, likelihood
    /// weighting against `db`, optional resampling; returns the estimate.
    ///
    /// `dt_s` is the time since the previous measurement, in seconds.
    pub fn step(&mut self, db: &FingerprintDb, y: &[f64], dt_s: f64) -> Result<TrackEstimate> {
        if y.len() != db.num_links() {
            return Err(TaflocError::DimensionMismatch {
                op: "ParticleFilter::step",
                expected: (db.num_links(), 1),
                actual: (y.len(), 1),
            });
        }
        if !(dt_s > 0.0) {
            return Err(TaflocError::InvalidConfig {
                field: "dt_s",
                reason: format!("must be positive, got {dt_s}"),
            });
        }
        let g = db.grid();
        let (x0, y0) = (g.origin().x, g.origin().y);
        let (x1, y1) = (x0 + g.width(), y0 + g.height());
        let step_std = self.config.speed_mps * dt_s;

        // Predict: Gaussian random walk, reflected into the region.
        let mut gauss = GaussianSource::new(&mut self.rng);
        for p in &mut self.particles {
            let nx = p.x + step_std * gauss.sample();
            let ny = p.y + step_std * gauss.sample();
            p.x = reflect(nx, x0, x1);
            p.y = reflect(ny, y0, y1);
        }

        // Update: Gaussian fingerprint likelihood of the particle's cell.
        let x = db.rss();
        let scale = 2.0 * self.config.sigma_db * self.config.sigma_db;
        let mut log_w: Vec<f64> = Vec::with_capacity(self.particles.len());
        for (p, w) in self.particles.iter().zip(&self.weights) {
            let cell = g.cell_at(p).ok_or_else(|| TaflocError::SolverFailure {
                solver: "particle-filter",
                reason: "reflected particle left the region".into(),
            })?;
            let mut ll = 0.0;
            for (i, &yi) in y.iter().enumerate() {
                let d = yi - x[(i, cell)];
                ll -= d * d / scale;
            }
            log_w.push(w.max(1e-300).ln() + ll);
        }
        // Normalize in log space.
        let max_lw = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for (w, lw) in self.weights.iter_mut().zip(&log_w) {
            *w = (lw - max_lw).exp();
            sum += *w;
        }
        for w in &mut self.weights {
            *w /= sum;
        }

        // Estimate + ESS.
        let ess = 1.0 / self.weights.iter().map(|w| w * w).sum::<f64>();
        let mut ex = 0.0;
        let mut ey = 0.0;
        for (p, &w) in self.particles.iter().zip(&self.weights) {
            ex += w * p.x;
            ey += w * p.y;
        }

        // Resample if degenerate.
        if ess < self.config.resample_fraction * self.config.num_particles as f64 {
            self.systematic_resample();
        }
        Ok(TrackEstimate { point: Point::new(ex, ey), effective_sample_size: ess })
    }

    /// Systematic (low-variance) resampling; resets weights to uniform.
    fn systematic_resample(&mut self) {
        let n = self.particles.len();
        let start: f64 = self.rng.random::<f64>() / n as f64;
        let mut new_particles = Vec::with_capacity(n);
        let mut cum = self.weights[0];
        let mut i = 0;
        for k in 0..n {
            let u = start + k as f64 / n as f64;
            while u > cum && i + 1 < n {
                i += 1;
                cum += self.weights[i];
            }
            new_particles.push(self.particles[i]);
        }
        self.particles = new_particles;
        self.weights.iter_mut().for_each(|w| *w = 1.0 / n as f64);
    }

    /// Current particle positions (diagnostics, plotting).
    pub fn particles(&self) -> &[Point] {
        &self.particles
    }
}

/// Reflects `v` into `[lo, hi]` (one bounce is enough for human step sizes;
/// falls back to clamping for pathological jumps).
fn reflect(v: f64, lo: f64, hi: f64) -> f64 {
    let r = if v < lo {
        2.0 * lo - v
    } else if v > hi {
        2.0 * hi - v
    } else {
        v
    };
    // Keep strictly inside so `cell_at` stays Some even on the boundary.
    r.clamp(lo, hi - 1e-9).max(lo + 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_rfsim::{campaign, trajectory, World, WorldConfig};

    fn db_and_world(seed: u64) -> (World, FingerprintDb) {
        let world = World::new(WorldConfig::paper_default(), seed);
        let x = campaign::full_calibration(&world, 0.0, 50);
        let db = FingerprintDb::from_world(x, &world).unwrap();
        (world, db)
    }

    #[test]
    fn reflect_keeps_in_range() {
        assert!((reflect(-0.5, 0.0, 4.0) - 0.5).abs() < 1e-12);
        assert!((reflect(4.5, 0.0, 4.0) - 3.5).abs() < 1e-12);
        assert_eq!(reflect(2.0, 0.0, 4.0), 2.0);
        // Pathological jump clamps rather than leaving the region.
        let r = reflect(100.0, 0.0, 4.0);
        assert!((0.0..4.0).contains(&r));
    }

    #[test]
    fn tracks_static_target() {
        let (world, db) = db_and_world(1);
        let mut pf = ParticleFilter::new(&db, TrackerConfig::default(), 7).unwrap();
        let cell = 44;
        let truth = world.grid().cell_center(cell);
        let mut last = None;
        for k in 0..15 {
            let y = campaign::snapshot_at_cell(&world, 0.001 * k as f64, cell, 50);
            last = Some(pf.step(&db, &y, 1.0).unwrap());
        }
        let est = last.unwrap();
        let err = est.point.distance(&truth);
        assert!(err < 1.0, "static target error {err:.2} m after convergence");
    }

    #[test]
    fn tracks_moving_target_better_than_snapshots() {
        let (world, db) = db_and_world(2);
        let traj = trajectory::random_waypoint(
            world.grid(),
            &trajectory::WaypointConfig::default(),
            40,
            3,
        );
        let mut pf = ParticleFilter::new(&db, TrackerConfig::default(), 7).unwrap();
        let mut pf_errs = Vec::new();
        let mut snap_errs = Vec::new();
        for (k, pos) in traj.points.iter().enumerate() {
            let y = campaign::snapshot_at_point(&world, 0.001 * k as f64, pos, 30);
            let est = pf.step(&db, &y, traj.sample_period_s).unwrap();
            pf_errs.push(est.point.distance(pos));
            let snap = crate::matcher::localize(&db, &y, crate::matcher::MatchMethod::Knn { k: 3 })
                .unwrap();
            snap_errs.push(snap.point.distance(pos));
        }
        // Discard the filter's burn-in.
        let pf_mean: f64 = pf_errs[5..].iter().sum::<f64>() / (pf_errs.len() - 5) as f64;
        let snap_mean: f64 = snap_errs[5..].iter().sum::<f64>() / (snap_errs.len() - 5) as f64;
        assert!(
            pf_mean < snap_mean + 0.1,
            "tracking ({pf_mean:.2} m) should not trail snapshot matching ({snap_mean:.2} m)"
        );
        assert!(pf_mean < 1.2, "moving-target tracking error {pf_mean:.2} m");
    }

    #[test]
    fn ess_reported_and_resampling_keeps_filter_alive() {
        let (world, db) = db_and_world(3);
        let mut pf =
            ParticleFilter::new(&db, TrackerConfig { num_particles: 100, ..Default::default() }, 1)
                .unwrap();
        for k in 0..10 {
            let y = campaign::snapshot_at_cell(&world, 0.001 * k as f64, 10, 30);
            let est = pf.step(&db, &y, 1.0).unwrap();
            assert!(est.effective_sample_size >= 1.0);
            assert!(est.effective_sample_size <= 100.0 + 1e-9);
        }
        assert_eq!(pf.particles().len(), 100);
    }

    #[test]
    fn validates_config_and_input() {
        let (_, db) = db_and_world(4);
        assert!(ParticleFilter::new(
            &db,
            TrackerConfig { num_particles: 0, ..Default::default() },
            1
        )
        .is_err());
        assert!(ParticleFilter::new(&db, TrackerConfig { sigma_db: 0.0, ..Default::default() }, 1)
            .is_err());
        assert!(ParticleFilter::new(
            &db,
            TrackerConfig { speed_mps: 0.0, ..Default::default() },
            1
        )
        .is_err());
        assert!(ParticleFilter::new(
            &db,
            TrackerConfig { resample_fraction: 0.0, ..Default::default() },
            1
        )
        .is_err());
        let mut pf = ParticleFilter::new(&db, TrackerConfig::default(), 1).unwrap();
        assert!(pf.step(&db, &[0.0; 3], 1.0).is_err());
        let y = vec![-50.0; db.num_links()];
        assert!(pf.step(&db, &y, 0.0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let (world, db) = db_and_world(5);
        let y = campaign::snapshot_at_cell(&world, 0.0, 20, 30);
        let mut a = ParticleFilter::new(&db, TrackerConfig::default(), 9).unwrap();
        let mut b = ParticleFilter::new(&db, TrackerConfig::default(), 9).unwrap();
        let ea = a.step(&db, &y, 1.0).unwrap();
        let eb = b.step(&db, &y, 1.0).unwrap();
        assert_eq!(ea, eb);
    }
}
