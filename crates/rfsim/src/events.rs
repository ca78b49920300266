//! Discrete environment changes: furniture moves, doors, new equipment.
//!
//! The paper's introduction lists *"the movement of furniture, door opening and
//! closing"* as fingerprint-expiry causes alongside slow drift. These are step
//! changes, not diffusion: at some instant a link's propagation environment
//! changes and stays changed. This module models them as per-link RSS offsets
//! that switch on at a given day, with a spatially smooth effect on the
//! target-present entries near the moved object.

use crate::geometry::Point;

taf_wire::schema! {
    /// One environment-change event.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EnvironmentEvent {
        /// Day the change happens (effects apply for `t >= day`).
        pub day: f64,
        /// Where the object moved to (center of its new position).
        pub location: Point,
        /// Radius (m) within which fingerprint entries are affected.
        pub radius_m: f64,
        /// RSS change (dB) applied to links whose line-of-sight passes within
        /// `radius_m` of `location` (typically negative: a cabinet now blocks them).
        pub link_delta_db: f64,
        /// Peak extra change (dB) for fingerprint entries whose *cell* lies within
        /// `radius_m` of the object (the multipath around the object is reshaped).
        pub entry_delta_db: f64,
    }
}

impl EnvironmentEvent {
    /// `true` when this event is active at time `t_days`.
    pub fn active_at(&self, t_days: f64) -> bool {
        t_days >= self.day
    }

    /// The event's contribution to a link's empty-room RSS at `t_days`, given
    /// the link's distance from the object's new location.
    pub fn link_effect(&self, link_distance_m: f64, t_days: f64) -> f64 {
        if !self.active_at(t_days) || link_distance_m > self.radius_m {
            0.0
        } else {
            self.link_delta_db
        }
    }

    /// The event's extra contribution to a fingerprint entry whose cell center
    /// is at `cell_pos`. Decays linearly to zero at `radius_m`.
    pub fn entry_effect(&self, cell_pos: &Point, t_days: f64) -> f64 {
        if !self.active_at(t_days) {
            return 0.0;
        }
        let d = cell_pos.distance(&self.location);
        if d > self.radius_m {
            0.0
        } else {
            self.entry_delta_db * (1.0 - d / self.radius_m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> EnvironmentEvent {
        EnvironmentEvent {
            day: 30.0,
            location: Point::new(2.0, 3.0),
            radius_m: 1.5,
            link_delta_db: -4.0,
            entry_delta_db: 2.0,
        }
    }

    #[test]
    fn inactive_before_day() {
        let e = event();
        assert!(!e.active_at(29.9));
        assert_eq!(e.link_effect(0.5, 29.9), 0.0);
        assert_eq!(e.entry_effect(&Point::new(2.0, 3.0), 29.9), 0.0);
    }

    #[test]
    fn link_effect_is_binary_within_radius() {
        let e = event();
        assert_eq!(e.link_effect(0.5, 31.0), -4.0);
        assert_eq!(e.link_effect(1.5, 31.0), -4.0);
        assert_eq!(e.link_effect(1.6, 31.0), 0.0);
    }

    #[test]
    fn entry_effect_decays_linearly() {
        let e = event();
        let at_center = e.entry_effect(&Point::new(2.0, 3.0), 31.0);
        assert!((at_center - 2.0).abs() < 1e-12);
        let half = e.entry_effect(&Point::new(2.75, 3.0), 31.0);
        assert!((half - 1.0).abs() < 1e-12);
        let outside = e.entry_effect(&Point::new(4.0, 3.0), 31.0);
        assert_eq!(outside, 0.0);
    }

    #[test]
    fn activation_boundary_inclusive() {
        let e = event();
        assert!(e.active_at(30.0));
        assert_eq!(e.link_effect(0.0, 30.0), -4.0);
    }
}
