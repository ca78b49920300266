//! Measurement noise: per-sample Gaussian dBm noise with hardware quantization.
//!
//! The paper notes that RSS noise "is usually within 1~4 dBm" and that each grid
//! is surveyed with 100 samples collected at 1 Hz. Atheros NICs report RSS as
//! integers, so samples are quantized to 1 dBm before averaging.

use crate::rng::GaussianSource;

taf_wire::schema! {
    /// Measurement-noise parameters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NoiseConfig {
        /// Per-sample Gaussian noise standard deviation (dB).
        pub sigma_db: f64,
        /// Quantization step (dB); `0` disables quantization. Atheros hardware
        /// reports integer dBm, i.e. a step of 1.
        pub quantization_db: f64,
        /// Probability of a burst outlier per sample (interference spike).
        pub outlier_prob: f64,
        /// Magnitude of an outlier (dB, applied with random sign).
        pub outlier_db: f64,
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig { sigma_db: 1.5, quantization_db: 1.0, outlier_prob: 0.01, outlier_db: 6.0 }
    }
}

impl NoiseConfig {
    /// Noise-free configuration (tests, ablations).
    pub fn none() -> Self {
        NoiseConfig { sigma_db: 0.0, quantization_db: 0.0, outlier_prob: 0.0, outlier_db: 0.0 }
    }

    /// One noisy, quantized observation of a true RSS value.
    pub fn observe<R: rand::Rng>(&self, true_rss: f64, rng: &mut R) -> f64 {
        let mut v = true_rss;
        if self.sigma_db > 0.0 {
            let mut g = GaussianSource::new(&mut *rng);
            v += self.sigma_db * g.sample();
        }
        if self.outlier_prob > 0.0 && rng.random::<f64>() < self.outlier_prob {
            let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
            v += sign * self.outlier_db;
        }
        if self.quantization_db > 0.0 {
            v = (v / self.quantization_db).round() * self.quantization_db;
        }
        v
    }

    /// Mean of `samples` independent observations — the paper's "100 continuous
    /// RSS, one per second" survey of a single grid.
    pub fn observe_averaged<R: rand::Rng>(
        &self,
        true_rss: f64,
        samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(samples > 0, "need at least one sample");
        let sum: f64 = (0..samples).map(|_| self.observe(true_rss, rng)).sum();
        sum / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_identity_except_quantization() {
        let cfg = NoiseConfig::none();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cfg.observe(-47.3, &mut rng), -47.3);
    }

    #[test]
    fn quantization_rounds_to_step() {
        let cfg =
            NoiseConfig { sigma_db: 0.0, quantization_db: 1.0, outlier_prob: 0.0, outlier_db: 0.0 };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cfg.observe(-47.3, &mut rng), -47.0);
        assert_eq!(cfg.observe(-47.6, &mut rng), -48.0);
    }

    #[test]
    fn noise_spread_matches_sigma() {
        let cfg =
            NoiseConfig { sigma_db: 2.0, quantization_db: 0.0, outlier_prob: 0.0, outlier_db: 0.0 };
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| cfg.observe(-50.0, &mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64).sqrt();
        assert!((mean + 50.0).abs() < 0.05, "mean = {mean}");
        assert!((sd - 2.0).abs() < 0.05, "sd = {sd}");
    }

    #[test]
    fn default_noise_within_paper_band() {
        // "noise is usually within 1~4 dBm": the default per-sample std (noise +
        // quantization) must land in that band.
        let cfg = NoiseConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| cfg.observe(-50.0, &mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let sd = (samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64).sqrt();
        assert!((1.0..=4.0).contains(&sd), "per-sample noise std {sd} outside 1-4 dBm");
    }

    #[test]
    fn averaging_reduces_noise() {
        let cfg = NoiseConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let n = 500;
        let singles: Vec<f64> = (0..n).map(|_| cfg.observe(-50.0, &mut rng)).collect();
        let averaged: Vec<f64> =
            (0..n).map(|_| cfg.observe_averaged(-50.0, 100, &mut rng)).collect();
        let spread = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!(spread(&averaged) < spread(&singles) / 3.0);
    }

    #[test]
    fn outliers_present_at_configured_rate() {
        let cfg = NoiseConfig {
            sigma_db: 0.0,
            quantization_db: 0.0,
            outlier_prob: 0.5,
            outlier_db: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10_000;
        let count = (0..n).filter(|_| cfg.observe(0.0, &mut rng).abs() > 5.0).count();
        let rate = count as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "outlier rate = {rate}");
    }

    #[test]
    #[should_panic]
    fn zero_samples_panics() {
        let cfg = NoiseConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        cfg.observe_averaged(0.0, 0, &mut rng);
    }
}
