//! The target's effect on link RSS: elliptical shadowing plus diffuse multipath.
//!
//! A device-free target perturbs a link in two ways:
//!
//! * **Line-of-sight shadowing** — when the target stands inside the link's first
//!   Fresnel zone it attenuates the direct path. Following the radio-tomography
//!   literature (and RTI's weight model), the attenuation decays exponentially in
//!   the *excess path length* of the target position relative to the direct path,
//!   so it is largest on the LoS and fades smoothly — exactly the "largely
//!   distorted, continuous along the link, similar across adjacent links"
//!   structure the TafLoc poster describes.
//! * **Diffuse multipath scattering** — off the LoS the body still reflects
//!   energy, producing small positive or negative RSS changes. Modeled as a
//!   smooth, link-dependent pseudo-random field so that it is reproducible per
//!   world seed yet varies across links and positions.

use crate::geometry::{Point, Segment};

taf_wire::schema! {
    /// Target perturbation model parameters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TargetModel {
        /// Peak line-of-sight attenuation (dB) when the target stands on the direct
        /// path. Human bodies at 2.4 GHz typically shadow 5-15 dB.
        pub max_attenuation_db: f64,
        /// Exponential decay constant (meters of excess path length) of the
        /// shadowing — the "width" of the sensitive ellipse.
        pub decay_m: f64,
        /// Amplitude (dB) of the diffuse scattering field.
        pub scatter_db: f64,
        /// Spatial frequency (rad/m) of the scattering field.
        pub scatter_freq: f64,
    }
}

impl Default for TargetModel {
    fn default() -> Self {
        TargetModel { max_attenuation_db: 10.0, decay_m: 0.5, scatter_db: 1.2, scatter_freq: 3.0 }
    }
}

impl TargetModel {
    /// Line-of-sight shadowing (dB, non-negative) caused by a target at `p` on the
    /// link with segment `seg`.
    pub fn shadowing_db(&self, seg: &Segment, p: &Point) -> f64 {
        let excess = seg.excess_path_length(p);
        self.max_attenuation_db * (-excess / self.decay_m).exp()
    }

    /// Diffuse scattering (dB, signed) for link `link_idx` of the world with
    /// `seed`, target at `p`.
    ///
    /// Modeled as a superposition of three plane waves with per-link
    /// deterministic orientations, frequencies and phases: smooth in `p` (so the
    /// continuity property survives), rich enough spatially that distinct cells
    /// produce distinct fingerprints (real indoor multipath makes every position
    /// perturb every link a little, which is what makes 0.6 m fingerprinting
    /// possible at all), and decorrelated across links and seeds.
    pub fn scatter_db(&self, seed: u64, link_idx: usize, p: &Point) -> f64 {
        if self.scatter_db == 0.0 {
            return 0.0;
        }
        let link = link_idx as u64;
        let mut acc = 0.0;
        for comp in 0..3u64 {
            let theta = phase(seed, link, 3 * comp); // wave orientation
            let jitter = phase(seed, link, 3 * comp + 1) / std::f64::consts::TAU; // [0,1)
            let f = self.scatter_freq * (0.6 + 0.9 * jitter);
            let phi = phase(seed, link, 3 * comp + 2);
            acc += (f * (p.x * theta.cos() + p.y * theta.sin()) + phi).sin();
        }
        // Normalize so the field's standard deviation is ~scatter_db
        // (each sin has variance 1/2; three independent components sum to 3/2).
        self.scatter_db * acc / 1.5_f64.sqrt()
    }

    /// Total RSS change (dB, typically negative) on a link when the target stands
    /// at `p`: `-(shadowing) + scattering`.
    pub fn rss_delta_db(&self, seed: u64, link_idx: usize, seg: &Segment, p: &Point) -> f64 {
        -self.shadowing_db(seg, p) + self.scatter_db(seed, link_idx, p)
    }
}

/// Deterministic phase in `[0, 2π)` for `(seed, link, which)`.
fn phase(seed: u64, link: u64, which: u64) -> f64 {
    crate::rng::uniform(seed ^ 0x7A4F_10C5_55AA_33CC, link, which) * std::f64::consts::TAU
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0))
    }

    #[test]
    fn shadowing_max_on_los() {
        let m = TargetModel::default();
        let on_los = m.shadowing_db(&seg(), &Point::new(5.0, 0.0));
        assert!((on_los - m.max_attenuation_db).abs() < 1e-12);
    }

    #[test]
    fn shadowing_decays_off_axis() {
        let m = TargetModel::default();
        let a = m.shadowing_db(&seg(), &Point::new(5.0, 0.3));
        let b = m.shadowing_db(&seg(), &Point::new(5.0, 1.0));
        let c = m.shadowing_db(&seg(), &Point::new(5.0, 4.0));
        assert!(a > b && b > c);
        assert!(c < 0.3, "far off-axis shadowing should be negligible, got {c}");
    }

    #[test]
    fn shadowing_continuous_along_link() {
        // Property P3 (continuity): moving the target along the link axis changes
        // shadowing smoothly.
        let m = TargetModel::default();
        let mut prev = m.shadowing_db(&seg(), &Point::new(1.0, 0.4));
        for k in 1..40 {
            let x = 1.0 + 8.0 * k as f64 / 40.0;
            let cur = m.shadowing_db(&seg(), &Point::new(x, 0.4));
            assert!((cur - prev).abs() < 1.0, "jump at x={x}: {prev} -> {cur}");
            prev = cur;
        }
    }

    #[test]
    fn scatter_is_bounded_and_deterministic() {
        let m = TargetModel::default();
        let p = Point::new(3.3, 4.4);
        let a = m.scatter_db(7, 2, &p);
        let b = m.scatter_db(7, 2, &p);
        assert_eq!(a, b);
        assert!(a.abs() <= m.scatter_db * 2.5, "scatter {a} out of range");
    }

    #[test]
    fn scatter_varies_across_links_and_seeds() {
        let m = TargetModel::default();
        let p = Point::new(2.0, 1.0);
        let by_link: Vec<f64> = (0..6).map(|l| m.scatter_db(7, l, &p)).collect();
        let distinct = by_link.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9);
        assert!(distinct, "scatter should differ across links: {by_link:?}");
        assert_ne!(m.scatter_db(7, 0, &p), m.scatter_db(8, 0, &p));
    }

    #[test]
    fn zero_scatter_config() {
        let m = TargetModel { scatter_db: 0.0, ..TargetModel::default() };
        assert_eq!(m.scatter_db(1, 0, &Point::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn rss_delta_negative_on_los() {
        let m = TargetModel::default();
        let delta = m.rss_delta_db(7, 0, &seg(), &Point::new(5.0, 0.0));
        let bound = -(m.max_attenuation_db - 2.5 * m.scatter_db);
        assert!(delta < bound, "LoS block must clearly decrease RSS, got {delta}");
    }

    #[test]
    fn rss_delta_small_far_away() {
        let m = TargetModel::default();
        let delta = m.rss_delta_db(7, 0, &seg(), &Point::new(5.0, 5.0));
        assert!(delta.abs() <= 2.5 * m.scatter_db + 0.1);
    }
}
