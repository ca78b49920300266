//! Temporal RSS drift.
//!
//! The paper's key observation is that fingerprints expire: *"even without any
//! change in the environment, the RSS measurements still change slowly in the
//! scale of days due to temperature and humidity changes. In our experiments, the
//! RSS values change 2.5 dBm and 6 dBm respectively after 5 and 45 days."*
//!
//! We model drift as Ornstein-Uhlenbeck (OU) processes sampled at daily
//! resolution, started from stationarity:
//!
//! * a **per-link** component (dominant; temperature/humidity affect a whole
//!   radio path and the transceiver electronics), and
//! * a smaller **per-entry** component (the target-present multipath pattern of
//!   each (link, cell) pair also ages), which is what makes reconstruction
//!   degrade gracefully with horizon length as in Fig. 3.
//!
//! For an OU process with stationary variance `σ²` and time constant `τ`, the
//! increment over `t` days has variance `2σ²(1 − e^{−t/τ})`, hence mean absolute
//! change `σ_Δ(t)·√(2/π)`. [`DriftConfig::paper_calibrated`] solves these for the
//! paper's (2.5 dBm @ 5 d, 6 dBm @ 45 d) pair, giving `τ ≈ 40` days and
//! `σ ≈ 6.4` dBm for the total drift, split between the two components.
//!
//! Evaluation is *random access*: `drift(t)` for any day is reproducible for a
//! given world seed regardless of query order, implemented with the counter-based
//! Gaussian generator in [`crate::rng`].

use crate::rng::gaussian;

taf_wire::schema! {
    /// Drift model parameters.
    ///
    /// Three OU components with different roles:
    ///
    /// * **link** (`link_sigma_db`, `tau_days`) — the slow environmental drift of a
    ///   whole radio path (temperature/humidity, transceiver electronics). This is
    ///   what the paper's in-text anchors measure: *"the RSS values change 2.5 dBm
    ///   and 6 dBm respectively after 5 and 45 days"*.
    /// * **entry, slow** (`entry_sigma_db`, `tau_days`) — the target-present
    ///   multipath pattern of each (link, cell) pair ages on the same timescale;
    ///   this is what makes reconstruction degrade with horizon length (Fig. 3's
    ///   growth).
    /// * **entry, fast** (`entry_fast_sigma_db`, `entry_fast_tau_days`) — channel
    ///   variation that decorrelates within hours. It is why even a 3-day-old
    ///   correlation structure cannot reconstruct perfectly (the paper's ~2.7 dBm
    ///   floor at 3 days, against link drift of well under 2.5 dBm).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct DriftConfig {
        /// Stationary standard deviation (dB) of the per-link OU component.
        pub link_sigma_db: f64,
        /// Stationary standard deviation (dB) of the slow per-entry OU component.
        pub entry_sigma_db: f64,
        /// OU time constant in days (link and slow-entry components).
        pub tau_days: f64,
        /// Stationary standard deviation (dB) of the fast per-entry OU component.
        pub entry_fast_sigma_db: f64,
        /// OU time constant (days) of the fast per-entry component.
        pub entry_fast_tau_days: f64,
    }
}

impl DriftConfig {
    /// Calibration matching the paper's in-text drift magnitudes on the link
    /// level — mean |ΔRSS| ≈ 2.5 dBm after 5 days and ≈ 6 dBm after 45 days —
    /// plus entry-level aging consistent with the Fig. 3 reconstruction-error
    /// floor and growth.
    ///
    /// Derivation of the link component: with `r(t) = 2(1 − e^{−t/τ})`,
    /// matching the ratio `(6/2.5)² = r(45)/r(5)` gives `τ ≈ 40` days; the
    /// level then fixes the stationary σ at ≈ 6.5 dB.
    pub fn paper_calibrated() -> Self {
        let tau: f64 = 40.0;
        // E|Δ| = σ_Δ·√(2/π)  =>  σ_Δ(5) = 2.5 / √(2/π) ≈ 3.133.
        let sigma_delta_5 = 2.5 / (2.0 / std::f64::consts::PI).sqrt();
        let link_var = sigma_delta_5 * sigma_delta_5 / (2.0 * (1.0 - (-5.0 / tau).exp()));
        DriftConfig {
            link_sigma_db: link_var.sqrt(),
            entry_sigma_db: 2.2,
            tau_days: tau,
            entry_fast_sigma_db: 0.8,
            entry_fast_tau_days: 0.5,
        }
    }

    /// A drift-free configuration (for tests and ablations).
    pub fn none() -> Self {
        DriftConfig {
            link_sigma_db: 0.0,
            entry_sigma_db: 0.0,
            tau_days: 1.0,
            entry_fast_sigma_db: 0.0,
            entry_fast_tau_days: 1.0,
        }
    }

    /// Standard deviation of the change of the **link-level** drift between day
    /// 0 and day `t`, in dB.
    pub fn link_delta_sigma(&self, t_days: f64) -> f64 {
        (2.0 * self.link_sigma_db.powi(2) * (1.0 - (-t_days / self.tau_days).exp())).sqrt()
    }

    /// Expected mean absolute change of the **link-level** drift after `t`
    /// days, in dB (`E|Δ| = σ_Δ·√(2/π)` for a Gaussian increment) — the
    /// quantity the paper's 2.5 dBm / 6 dBm anchors refer to.
    pub fn expected_abs_change(&self, t_days: f64) -> f64 {
        self.link_delta_sigma(t_days) * (2.0 / std::f64::consts::PI).sqrt()
    }

    /// Standard deviation of the change of one fingerprint **entry** between
    /// day 0 and day `t` (all three components), in dB.
    pub fn entry_delta_sigma(&self, t_days: f64) -> f64 {
        let slow = 2.0
            * (self.link_sigma_db.powi(2) + self.entry_sigma_db.powi(2))
            * (1.0 - (-t_days / self.tau_days).exp());
        let fast = 2.0
            * self.entry_fast_sigma_db.powi(2)
            * (1.0 - (-t_days / self.entry_fast_tau_days).exp());
        (slow + fast).sqrt()
    }
}

/// One OU trajectory, addressed by integer day, evaluated deterministically from
/// `(seed, stream)` with an internal cache for cheap sequential access.
///
/// Day 0 is a stationary draw; day `d` follows the exact OU discretization
/// `x_d = ρ·x_{d−1} + σ·√(1−ρ²)·ξ_d` with `ρ = e^{−1/τ}`.
///
/// ```
/// use taf_rfsim::drift::OuProcess;
/// let p = OuProcess::new(42, 0, 2.0, 40.0);
/// // Random access is deterministic: any query order gives the same values.
/// let v = p.at_day(90);
/// assert_eq!(OuProcess::new(42, 0, 2.0, 40.0).at_day(90), v);
/// ```
#[derive(Debug, Clone)]
pub struct OuProcess {
    seed: u64,
    stream: u64,
    sigma: f64,
    rho: f64,
    /// Cache of the most recently evaluated `(day, value)`.
    cache: std::cell::Cell<(u64, f64)>,
    cache_valid: std::cell::Cell<bool>,
}

impl OuProcess {
    /// Creates the process for a `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64, sigma: f64, tau_days: f64) -> Self {
        assert!(tau_days > 0.0, "tau must be positive");
        OuProcess {
            seed,
            stream,
            sigma,
            rho: (-1.0 / tau_days).exp(),
            cache: std::cell::Cell::new((0, 0.0)),
            cache_valid: std::cell::Cell::new(false),
        }
    }

    /// Value at integer day `d` (deterministic, random-access).
    pub fn at_day(&self, d: u64) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        let (mut day, mut x) = if self.cache_valid.get() && self.cache.get().0 <= d {
            self.cache.get()
        } else {
            (0, self.sigma * gaussian(self.seed, self.stream, 0))
        };
        let step_scale = self.sigma * (1.0 - self.rho * self.rho).sqrt();
        while day < d {
            day += 1;
            x = self.rho * x + step_scale * gaussian(self.seed, self.stream, day);
        }
        self.cache.set((day, x));
        self.cache_valid.set(true);
        x
    }

    /// Value at (possibly fractional) `t` days, by linear interpolation between
    /// the surrounding integer days. Negative times evaluate at day 0.
    pub fn at(&self, t_days: f64) -> f64 {
        if t_days <= 0.0 {
            return self.at_day(0);
        }
        let lo = t_days.floor() as u64;
        let hi = lo + 1;
        let frac = t_days - lo as f64;
        if frac == 0.0 {
            self.at_day(lo)
        } else {
            self.at_day(lo) * (1.0 - frac) + self.at_day(hi) * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration_hits_both_anchors() {
        let cfg = DriftConfig::paper_calibrated();
        let at5 = cfg.expected_abs_change(5.0);
        let at45 = cfg.expected_abs_change(45.0);
        assert!((at5 - 2.5).abs() < 0.1, "5-day drift {at5} should be ~2.5 dBm");
        assert!((at45 - 6.0).abs() < 0.35, "45-day drift {at45} should be ~6 dBm");
    }

    #[test]
    fn expected_change_monotone_in_time() {
        let cfg = DriftConfig::paper_calibrated();
        let mut prev = 0.0;
        for d in [1.0, 3.0, 5.0, 15.0, 45.0, 90.0] {
            let v = cfg.expected_abs_change(d);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn none_config_is_zero() {
        let cfg = DriftConfig::none();
        assert_eq!(cfg.expected_abs_change(45.0), 0.0);
        let p = OuProcess::new(1, 2, cfg.link_sigma_db, cfg.tau_days);
        assert_eq!(p.at(45.0), 0.0);
    }

    #[test]
    fn ou_deterministic_random_access() {
        let p = OuProcess::new(11, 3, 2.0, 40.0);
        let q = OuProcess::new(11, 3, 2.0, 40.0);
        // Query q out of order; must agree with p's in-order evaluation.
        let v90 = q.at_day(90);
        let v5 = q.at_day(5);
        assert_eq!(p.at_day(5), v5);
        assert_eq!(p.at_day(90), v90);
    }

    #[test]
    fn ou_streams_independent() {
        let p = OuProcess::new(11, 0, 2.0, 40.0);
        let q = OuProcess::new(11, 1, 2.0, 40.0);
        assert_ne!(p.at_day(10), q.at_day(10));
    }

    #[test]
    fn ou_interpolates_fractional_days() {
        let p = OuProcess::new(5, 0, 2.0, 40.0);
        let a = p.at_day(3);
        let b = p.at_day(4);
        let mid = p.at(3.5);
        assert!((mid - (a + b) / 2.0).abs() < 1e-12);
        assert_eq!(p.at(-1.0), p.at_day(0));
        assert_eq!(p.at(3.0), a);
    }

    #[test]
    fn ou_increment_statistics_match_theory() {
        // Monte-Carlo over many independent streams: Var[x(t) − x(0)] must match
        // 2σ²(1 − e^{−t/τ}).
        let sigma = 3.0;
        let tau = 40.0;
        let t = 45u64;
        let n = 4000;
        let mut sq = 0.0;
        for s in 0..n {
            let p = OuProcess::new(99, s, sigma, tau);
            let d = p.at_day(t) - p.at_day(0);
            sq += d * d;
        }
        let var = sq / n as f64;
        let expect = 2.0 * sigma * sigma * (1.0 - (-(t as f64) / tau).exp());
        assert!((var - expect).abs() / expect < 0.1, "empirical {var:.3} vs theory {expect:.3}");
    }

    #[test]
    fn ou_stationary_variance() {
        let sigma = 2.0;
        let n = 4000;
        let mut sq = 0.0;
        for s in 0..n {
            let p = OuProcess::new(123, s, sigma, 40.0);
            let v = p.at_day(0);
            sq += v * v;
        }
        let var = sq / n as f64;
        assert!((var - 4.0).abs() < 0.4, "stationary var {var} should be ~4");
    }

    #[test]
    #[should_panic]
    fn non_positive_tau_panics() {
        OuProcess::new(1, 1, 1.0, 0.0);
    }
}
