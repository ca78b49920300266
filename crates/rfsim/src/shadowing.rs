//! Spatially correlated log-normal shadowing.
//!
//! Each link receives a static shadowing offset (dB) drawn from a zero-mean
//! Gaussian whose covariance decays exponentially with the distance between link
//! midpoints (the Gudmundson model). Correlated shadowing matters here: it is one
//! of the mechanisms that keeps the fingerprint matrix approximately low-rank —
//! links that run close to each other see similar environments.

use crate::deployment::Deployment;
use crate::rng::GaussianSource;
use taf_linalg::Matrix;

taf_wire::schema! {
    /// Shadowing model parameters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ShadowingConfig {
        /// Standard deviation of the shadowing offset per link (dB).
        pub sigma_db: f64,
        /// Decorrelation distance (m): covariance between two links is
        /// `sigma² · exp(−d/δ)` for midpoint distance `d`.
        pub decorrelation_m: f64,
    }
}

impl Default for ShadowingConfig {
    fn default() -> Self {
        ShadowingConfig { sigma_db: 3.0, decorrelation_m: 4.0 }
    }
}

impl ShadowingConfig {
    /// Builds the `M x M` covariance matrix over a deployment's links.
    pub fn covariance(&self, deployment: &Deployment) -> Matrix {
        let m = deployment.num_links();
        let mids: Vec<_> = deployment.links().iter().map(|l| l.segment.midpoint()).collect();
        Matrix::from_fn(m, m, |i, j| {
            let d = mids[i].distance(&mids[j]);
            self.sigma_db * self.sigma_db * (-d / self.decorrelation_m).exp()
        })
    }

    /// Samples one correlated shadowing offset per link.
    ///
    /// The covariance gets a tiny diagonal jitter before Cholesky so that exactly
    /// coincident midpoints (fully correlated links) remain factorable.
    pub fn sample<R: rand::Rng>(&self, deployment: &Deployment, rng: &mut R) -> Vec<f64> {
        let m = deployment.num_links();
        if self.sigma_db == 0.0 {
            return vec![0.0; m];
        }
        let mut cov = self.covariance(deployment);
        cov.add_diag(1e-9 * self.sigma_db * self.sigma_db).expect("square");
        let chol = cov.cholesky().expect("jittered covariance is SPD");
        let mut g = GaussianSource::new(rng);
        let z: Vec<f64> = (0..m).map(|_| g.sample()).collect();
        chol.correlate(&z).expect("length matches")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::FloorGrid;
    use crate::Point;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn deployment() -> Deployment {
        let g = FloorGrid::new(Point::new(0.0, 0.0), 0.6, 8, 12);
        Deployment::perimeter(&g, 10, 0.3)
    }

    #[test]
    fn covariance_diagonal_is_sigma_squared() {
        let cfg = ShadowingConfig { sigma_db: 3.0, decorrelation_m: 4.0 };
        let cov = cfg.covariance(&deployment());
        for i in 0..10 {
            assert!((cov[(i, i)] - 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn covariance_decays_with_distance() {
        let cfg = ShadowingConfig::default();
        let d = deployment();
        let cov = cfg.covariance(&d);
        // Off-diagonal entries are positive and below the diagonal.
        for i in 0..d.num_links() {
            for j in 0..d.num_links() {
                if i != j {
                    assert!(cov[(i, j)] > 0.0);
                    assert!(cov[(i, j)] <= cov[(i, i)] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let cfg = ShadowingConfig::default();
        let d = deployment();
        let a = cfg.sample(&d, &mut StdRng::seed_from_u64(9));
        let b = cfg.sample(&d, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = cfg.sample(&d, &mut StdRng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn sample_statistics_match_sigma() {
        let cfg = ShadowingConfig { sigma_db: 3.0, decorrelation_m: 4.0 };
        let d = deployment();
        let mut rng = StdRng::seed_from_u64(1);
        let mut all = Vec::new();
        for _ in 0..500 {
            all.extend(cfg.sample(&d, &mut rng));
        }
        let mean: f64 = all.iter().sum::<f64>() / all.len() as f64;
        let var: f64 = all.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / all.len() as f64;
        assert!(mean.abs() < 0.3, "mean = {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.3, "std = {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_yields_zero_offsets() {
        let cfg = ShadowingConfig { sigma_db: 0.0, decorrelation_m: 4.0 };
        let offsets = cfg.sample(&deployment(), &mut StdRng::seed_from_u64(4));
        assert!(offsets.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nearby_links_more_correlated_than_distant() {
        let cfg = ShadowingConfig::default();
        let d = deployment();
        let cov = cfg.covariance(&d);
        // Find the closest and farthest pairs of link midpoints and compare.
        let mids: Vec<_> = d.links().iter().map(|l| l.segment.midpoint()).collect();
        let mut close = (0, 1);
        let mut far = (0, 1);
        for i in 0..mids.len() {
            for j in (i + 1)..mids.len() {
                if mids[i].distance(&mids[j]) < mids[close.0].distance(&mids[close.1]) {
                    close = (i, j);
                }
                if mids[i].distance(&mids[j]) > mids[far.0].distance(&mids[far.1]) {
                    far = (i, j);
                }
            }
        }
        assert!(cov[(close.0, close.1)] > cov[(far.0, far.1)]);
    }
}
