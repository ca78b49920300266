//! Target motion: waypoint paths across the monitored area.
//!
//! The localization paper evaluates static positions, but its motivating
//! applications (elderly care, intruder detection) involve *moving* targets.
//! This module generates continuous trajectories for the tracking extension:
//! a random-waypoint walk clipped to the monitored region, sampled at a fixed
//! measurement period.

use crate::geometry::Point;
use crate::grid::FloorGrid;
use crate::rng::hash_u64;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Random-waypoint motion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointConfig {
    /// Walking speed in m/s (human indoor pace ≈ 0.5-1.5).
    pub speed_mps: f64,
    /// Pause at each waypoint, in seconds.
    pub pause_s: f64,
    /// Measurement period in seconds (one RSS snapshot per period).
    pub sample_period_s: f64,
    /// Keep-out margin from the region boundary, in meters.
    pub margin_m: f64,
}

impl Default for WaypointConfig {
    fn default() -> Self {
        WaypointConfig { speed_mps: 1.0, pause_s: 2.0, sample_period_s: 1.0, margin_m: 0.3 }
    }
}

/// A sampled trajectory: positions at consecutive measurement instants.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Time between consecutive samples, in seconds.
    pub sample_period_s: f64,
    /// Positions, one per sample instant.
    pub points: Vec<Point>,
}

impl Trajectory {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the trajectory has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total path length in meters.
    pub fn path_length(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(&w[1])).sum()
    }

    /// Maximum displacement between consecutive samples (m) — bounded by
    /// `speed x period` for a physical walk.
    pub fn max_step(&self) -> f64 {
        self.points.windows(2).map(|w| w[0].distance(&w[1])).fold(0.0, f64::max)
    }
}

/// Generates a random-waypoint trajectory of `num_samples` positions inside
/// `grid` (deterministic per `seed`).
///
/// Panics if the keep-out margin leaves no room to walk in — a configuration
/// error, not a runtime condition.
pub fn random_waypoint(
    grid: &FloorGrid,
    config: &WaypointConfig,
    num_samples: usize,
    seed: u64,
) -> Trajectory {
    let o = grid.origin();
    let (x0, y0) = (o.x + config.margin_m, o.y + config.margin_m);
    let (x1, y1) = (o.x + grid.width() - config.margin_m, o.y + grid.height() - config.margin_m);
    assert!(x1 > x0 && y1 > y0, "margin {} leaves no walkable area", config.margin_m);
    assert!(
        config.speed_mps > 0.0 && config.sample_period_s > 0.0,
        "speed and period must be positive"
    );

    let mut rng = StdRng::seed_from_u64(hash_u64(seed, 0x7261_6A65, 0));
    let mut draw = |lo: f64, hi: f64| lo + (hi - lo) * rng.random::<f64>();

    let mut points = Vec::with_capacity(num_samples);
    let mut pos = Point::new(draw(x0, x1), draw(y0, y1));
    let mut goal = Point::new(draw(x0, x1), draw(y0, y1));
    let mut pause_left = 0.0;
    let step = config.speed_mps * config.sample_period_s;

    while points.len() < num_samples {
        points.push(pos);
        if pause_left > 0.0 {
            pause_left -= config.sample_period_s;
            continue;
        }
        let d = pos.distance(&goal);
        if d <= step {
            pos = goal;
            goal = Point::new(draw(x0, x1), draw(y0, y1));
            pause_left = config.pause_s;
        } else {
            let f = step / d;
            pos = Point::new(pos.x + (goal.x - pos.x) * f, pos.y + (goal.y - pos.y) * f);
        }
    }
    Trajectory { sample_period_s: config.sample_period_s, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> FloorGrid {
        FloorGrid::new(Point::new(0.0, 0.0), 0.6, 8, 12)
    }

    #[test]
    fn trajectory_length_and_determinism() {
        let t1 = random_waypoint(&grid(), &WaypointConfig::default(), 100, 7);
        let t2 = random_waypoint(&grid(), &WaypointConfig::default(), 100, 7);
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 100);
        let t3 = random_waypoint(&grid(), &WaypointConfig::default(), 100, 8);
        assert_ne!(t1, t3);
    }

    #[test]
    fn stays_inside_margin() {
        let g = grid();
        let cfg = WaypointConfig { margin_m: 0.3, ..Default::default() };
        let t = random_waypoint(&g, &cfg, 500, 3);
        for p in &t.points {
            assert!(p.x >= 0.3 - 1e-9 && p.x <= g.width() - 0.3 + 1e-9, "x = {}", p.x);
            assert!(p.y >= 0.3 - 1e-9 && p.y <= g.height() - 0.3 + 1e-9, "y = {}", p.y);
        }
    }

    #[test]
    fn steps_bounded_by_speed() {
        let cfg = WaypointConfig { speed_mps: 1.2, sample_period_s: 1.0, ..Default::default() };
        let t = random_waypoint(&grid(), &cfg, 300, 5);
        assert!(t.max_step() <= 1.2 + 1e-9, "max step {}", t.max_step());
    }

    #[test]
    fn pauses_produce_repeated_points() {
        let cfg = WaypointConfig { pause_s: 3.0, ..Default::default() };
        let t = random_waypoint(&grid(), &cfg, 300, 5);
        let repeats = t.points.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats > 0, "waypoint pauses should hold position for a few samples");
    }

    #[test]
    fn path_metrics() {
        let t = Trajectory {
            sample_period_s: 1.0,
            points: vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0), Point::new(3.0, 4.0)],
        };
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!((t.path_length() - 5.0).abs() < 1e-12);
        assert!((t.max_step() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn excessive_margin_panics() {
        let cfg = WaypointConfig { margin_m: 10.0, ..Default::default() };
        random_waypoint(&grid(), &cfg, 10, 1);
    }
}
