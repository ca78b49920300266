//! Drift monitoring: *when* should the database be updated?
//!
//! The paper updates on a schedule it evaluates post hoc (3 d / 15 d / 45 d /
//! 3 mo). A deployed system can do better: the reference cells are cheap to
//! spot-check, and the discrepancy between a freshly measured reference column
//! and the stored one is an unbiased probe of how far the whole database has
//! drifted (the same structural properties that make reconstruction work make
//! the reference columns representative). This module implements that
//! "time-adaptive" scheduling loop — measure a couple of reference cells,
//! estimate the current database error, and recommend an update when it
//! crosses a threshold.

use crate::error::TaflocError;
use crate::Result;
use taf_linalg::Matrix;

taf_wire::schema! {
    /// Monitor configuration.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MonitorConfig {
        /// Estimated database error (dB) above which an update is recommended.
        pub error_threshold_db: f64,
        /// Minimum days between recommended updates (hysteresis).
        pub min_interval_days: f64,
    }
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { error_threshold_db: 3.0, min_interval_days: 2.0 }
    }
}

/// The monitor's verdict after a spot check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recommendation {
    /// The database still matches reality well enough.
    Healthy {
        /// Estimated mean absolute database error in dB.
        estimated_error_db: f64,
    },
    /// Time to run a reference-location update.
    UpdateRecommended {
        /// Estimated mean absolute database error in dB.
        estimated_error_db: f64,
    },
    /// Error is high but the minimum interval since the last update has not
    /// elapsed yet (avoids thrashing on a noisy spot check).
    Cooldown {
        /// Estimated mean absolute database error in dB.
        estimated_error_db: f64,
        /// Days remaining until an update may be recommended again.
        days_remaining: f64,
    },
}

impl Recommendation {
    /// The error estimate carried by any variant.
    pub fn estimated_error_db(&self) -> f64 {
        match *self {
            Recommendation::Healthy { estimated_error_db }
            | Recommendation::UpdateRecommended { estimated_error_db }
            | Recommendation::Cooldown { estimated_error_db, .. } => estimated_error_db,
        }
    }
}

/// Tracks database staleness from cheap reference-cell spot checks.
///
/// ```
/// use taf_linalg::Matrix;
/// use tafloc_core::monitor::{DriftMonitor, MonitorConfig, Recommendation};
/// let stored = Matrix::filled(4, 2, -50.0); // columns at the 2 monitored cells
/// let m = DriftMonitor::new(stored, vec![3, 7], 0.0, MonitorConfig::default()).unwrap();
/// // A fresh spot check that drifted 5 dB triggers an update recommendation.
/// let fresh = Matrix::filled(4, 2, -55.0);
/// assert!(matches!(m.check(10.0, &fresh).unwrap(), Recommendation::UpdateRecommended { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    config: MonitorConfig,
    /// Stored fingerprint columns at the monitored reference cells (`M x k`).
    stored: Matrix,
    /// Which reference cells the stored columns correspond to.
    cells: Vec<usize>,
    /// Day of the last completed update.
    last_update_day: f64,
}

impl DriftMonitor {
    /// Creates a monitor from the database columns at the chosen spot-check
    /// cells (a subset of the reference cells), as of the last update at
    /// `last_update_day`.
    pub fn new(
        stored_columns: Matrix,
        cells: Vec<usize>,
        last_update_day: f64,
        config: MonitorConfig,
    ) -> Result<Self> {
        if cells.is_empty() || stored_columns.cols() != cells.len() {
            return Err(TaflocError::InvalidConfig {
                field: "cells",
                reason: format!(
                    "need one stored column per monitored cell ({} columns, {} cells)",
                    stored_columns.cols(),
                    cells.len()
                ),
            });
        }
        if !(config.error_threshold_db > 0.0) || config.min_interval_days < 0.0 {
            return Err(TaflocError::InvalidConfig {
                field: "monitor",
                reason: "threshold must be > 0 and interval >= 0".into(),
            });
        }
        Ok(DriftMonitor { config, stored: stored_columns, cells, last_update_day })
    }

    /// The monitored cells.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// The stored comparison baseline (`M x k`, one column per monitored
    /// cell). Exposed so the serving layer can persist monitor state.
    pub fn stored(&self) -> &Matrix {
        &self.stored
    }

    /// Day of the last completed update (the cooldown anchor).
    pub fn last_update_day(&self) -> f64 {
        self.last_update_day
    }

    /// The thresholds in force.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Feeds a spot check: freshly measured columns at the monitored cells
    /// (`M x k`, same order), on day `day`. Returns the recommendation.
    pub fn check(&self, day: f64, fresh_columns: &Matrix) -> Result<Recommendation> {
        if fresh_columns.shape() != self.stored.shape() {
            return Err(TaflocError::DimensionMismatch {
                op: "DriftMonitor::check",
                expected: self.stored.shape(),
                actual: fresh_columns.shape(),
            });
        }
        let estimated_error_db = self.stored.sub(fresh_columns)?.map(f64::abs).mean();
        if estimated_error_db <= self.config.error_threshold_db {
            return Ok(Recommendation::Healthy { estimated_error_db });
        }
        let elapsed = day - self.last_update_day;
        if elapsed < self.config.min_interval_days {
            return Ok(Recommendation::Cooldown {
                estimated_error_db,
                days_remaining: self.config.min_interval_days - elapsed,
            });
        }
        Ok(Recommendation::UpdateRecommended { estimated_error_db })
    }

    /// Records that an update completed on `day` with the given refreshed
    /// columns (the new comparison baseline).
    pub fn record_update(&mut self, day: f64, refreshed_columns: Matrix) -> Result<()> {
        if refreshed_columns.shape() != self.stored.shape() {
            return Err(TaflocError::DimensionMismatch {
                op: "DriftMonitor::record_update",
                expected: self.stored.shape(),
                actual: refreshed_columns.shape(),
            });
        }
        self.stored = refreshed_columns;
        self.last_update_day = day;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> DriftMonitor {
        let stored = Matrix::filled(4, 2, -50.0);
        DriftMonitor::new(stored, vec![3, 7], 0.0, MonitorConfig::default()).unwrap()
    }

    #[test]
    fn healthy_when_columns_match() {
        let m = monitor();
        let fresh = Matrix::filled(4, 2, -50.5);
        let r = m.check(5.0, &fresh).unwrap();
        assert!(matches!(r, Recommendation::Healthy { .. }));
        assert!((r.estimated_error_db() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recommends_update_past_threshold() {
        let m = monitor();
        let fresh = Matrix::filled(4, 2, -55.0);
        let r = m.check(5.0, &fresh).unwrap();
        assert!(matches!(r, Recommendation::UpdateRecommended { .. }));
        assert!((r.estimated_error_db() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cooldown_respects_min_interval() {
        let m = monitor();
        let fresh = Matrix::filled(4, 2, -55.0);
        // Last update at day 0, min interval 2: day 1 is inside the cooldown.
        let r = m.check(1.0, &fresh).unwrap();
        match r {
            Recommendation::Cooldown { days_remaining, .. } => {
                assert!((days_remaining - 1.0).abs() < 1e-12);
            }
            other => panic!("expected cooldown, got {other:?}"),
        }
    }

    #[test]
    fn record_update_resets_baseline_and_clock() {
        let mut m = monitor();
        m.record_update(10.0, Matrix::filled(4, 2, -55.0)).unwrap();
        // Fresh data equals the new baseline: healthy again.
        let r = m.check(10.5, &Matrix::filled(4, 2, -55.0)).unwrap();
        assert!(matches!(r, Recommendation::Healthy { .. }));
        // Large error shortly after the update: cooldown, not recommendation.
        let r = m.check(11.0, &Matrix::filled(4, 2, -65.0)).unwrap();
        assert!(matches!(r, Recommendation::Cooldown { .. }));
        assert!(m.record_update(11.0, Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn validates_construction_and_input() {
        assert!(
            DriftMonitor::new(Matrix::zeros(4, 2), vec![1], 0.0, MonitorConfig::default()).is_err()
        );
        assert!(
            DriftMonitor::new(Matrix::zeros(4, 0), vec![], 0.0, MonitorConfig::default()).is_err()
        );
        let bad = MonitorConfig { error_threshold_db: 0.0, ..Default::default() };
        assert!(DriftMonitor::new(Matrix::zeros(4, 1), vec![0], 0.0, bad).is_err());
        let m = monitor();
        assert!(m.check(1.0, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn spot_check_tracks_real_drift() {
        // Against the simulator: the spot-check estimate must grow with the
        // true database error as the world drifts.
        use taf_rfsim::{campaign, World, WorldConfig};
        let world = World::new(WorldConfig::paper_default(), 77);
        let x0 = campaign::full_calibration(&world, 0.0, 50);
        let cells = vec![10, 50, 90];
        let stored = x0.select_cols(&cells).unwrap();
        let monitor =
            DriftMonitor::new(stored, cells.clone(), 0.0, MonitorConfig::default()).unwrap();

        let mut prev = 0.0;
        for &t in &[5.0, 45.0, 90.0] {
            let fresh = campaign::measure_columns(&world, t, &cells, 50);
            let est = monitor.check(t, &fresh).unwrap().estimated_error_db();
            assert!(est > prev, "estimate must grow with drift: {est:.2} at day {t}");
            prev = est;
        }
        // And the day-90 estimate is in the ballpark of the true mean error.
        let truth = world.fingerprint_truth(90.0);
        let true_err = x0.sub(&truth).unwrap().map(f64::abs).mean();
        let fresh = campaign::measure_columns(&world, 90.0, &cells, 50);
        let est = monitor.check(90.0, &fresh).unwrap().estimated_error_db();
        assert!(
            (est - true_err).abs() / true_err < 0.6,
            "spot-check {est:.2} dB vs true {true_err:.2} dB"
        );
    }
}
