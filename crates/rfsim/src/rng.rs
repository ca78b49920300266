//! Deterministic random-access random numbers.
//!
//! Drift processes need Gaussian increments addressable by `(seed, stream, step)`
//! without storing trajectories: evaluating the drift of entry `(link, cell)` at day
//! `d` must give the same answer no matter the query order or what else was
//! sampled. A counter-based generator (SplitMix64 over a mixed key) provides that;
//! Box-Muller turns pairs of uniforms into standard normals.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic 64-bit value for `(seed, stream, step)`.
pub fn hash_u64(seed: u64, stream: u64, step: u64) -> u64 {
    // Mix the three keys through successive SplitMix rounds; each round fully
    // avalanches, so distinct inputs give effectively independent outputs.
    splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ step)
}

/// Deterministic uniform sample in the open interval `(0, 1)`.
pub fn uniform(seed: u64, stream: u64, step: u64) -> f64 {
    // 53 random mantissa bits; +0.5 keeps the value strictly inside (0, 1).
    let bits = hash_u64(seed, stream, step) >> 11;
    (bits as f64 + 0.5) / (1u64 << 53) as f64
}

/// Deterministic standard-normal sample for `(seed, stream, step)` via Box-Muller.
pub fn gaussian(seed: u64, stream: u64, step: u64) -> f64 {
    let u1 = uniform(seed, stream, step.wrapping_mul(2));
    let u2 = uniform(seed, stream, step.wrapping_mul(2).wrapping_add(1));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A stateful Gaussian sampler over an `rand::Rng`, for the measurement-noise path
/// where sequential sampling is natural. Implements Box-Muller with caching of the
/// second variate.
#[derive(Debug)]
pub struct GaussianSource<R> {
    rng: R,
    spare: Option<f64>,
}

impl<R: rand::Rng> GaussianSource<R> {
    /// Wraps an RNG.
    pub fn new(rng: R) -> Self {
        GaussianSource { rng, spare: None }
    }

    /// Draws one standard-normal sample.
    pub fn sample(&mut self) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        // Draw uniforms in (0,1); `random::<f64>()` yields [0,1), so flip to (0,1].
        let u1: f64 = 1.0 - self.rng.random::<f64>();
        let u2: f64 = self.rng.random::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws a normal sample with the given mean and standard deviation.
    pub fn sample_scaled(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hash_is_deterministic_and_sensitive() {
        assert_eq!(hash_u64(1, 2, 3), hash_u64(1, 2, 3));
        assert_ne!(hash_u64(1, 2, 3), hash_u64(1, 2, 4));
        assert_ne!(hash_u64(1, 2, 3), hash_u64(1, 3, 3));
        assert_ne!(hash_u64(1, 2, 3), hash_u64(2, 2, 3));
    }

    #[test]
    fn uniform_in_open_interval() {
        for step in 0..10_000 {
            let u = uniform(7, 1, step);
            assert!(u > 0.0 && u < 1.0, "u = {u}");
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let n = 20_000;
        let mean: f64 = (0..n).map(|s| uniform(11, 0, s)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|s| gaussian(3, 9, s)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn gaussian_deterministic_random_access() {
        let a = gaussian(5, 2, 77);
        let b = gaussian(5, 2, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn gaussian_source_moments() {
        let mut g = GaussianSource::new(StdRng::seed_from_u64(1));
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn gaussian_source_scaled() {
        let mut g = GaussianSource::new(StdRng::seed_from_u64(2));
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| g.sample_scaled(10.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn gaussian_source_all_finite() {
        let mut g = GaussianSource::new(StdRng::seed_from_u64(3));
        for _ in 0..10_000 {
            assert!(g.sample().is_finite());
        }
    }
}
