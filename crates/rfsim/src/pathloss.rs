//! Large-scale path loss: the log-distance model.
//!
//! Baseline (no-target) RSS of each link is produced by the classic indoor
//! log-distance model: `RSS(d) = P₀ − 10·n·log₁₀(d / d₀)`, with `P₀` the received
//! power at reference distance `d₀` and `n` the path-loss exponent (≈ 2 free
//! space, 2.5-4 indoors).

taf_wire::schema! {
    /// Log-distance path-loss model parameters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LogDistance {
        /// Received power (dBm) at the reference distance.
        pub p0_dbm: f64,
        /// Reference distance in meters (must be positive).
        pub d0: f64,
        /// Path-loss exponent.
        pub exponent: f64,
    }
}

impl LogDistance {
    /// Typical 2.4 GHz indoor parameterization: −30 dBm at 1 m, exponent 3.0.
    pub fn indoor_2_4ghz() -> Self {
        LogDistance { p0_dbm: -30.0, d0: 1.0, exponent: 3.0 }
    }

    /// Received signal strength (dBm) at distance `d` meters.
    ///
    /// Distances below `d0` are clamped to `d0` — the model is not meaningful in
    /// the near field and the clamp keeps RSS finite for co-located nodes.
    pub fn rss(&self, d: f64) -> f64 {
        let d = d.max(self.d0);
        self.p0_dbm - 10.0 * self.exponent * (d / self.d0).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_at_reference_distance() {
        let m = LogDistance::indoor_2_4ghz();
        assert_eq!(m.rss(1.0), -30.0);
    }

    #[test]
    fn rss_decreases_with_distance() {
        let m = LogDistance::indoor_2_4ghz();
        assert!(m.rss(2.0) < m.rss(1.0));
        assert!(m.rss(10.0) < m.rss(2.0));
    }

    #[test]
    fn decade_slope_matches_exponent() {
        let m = LogDistance { p0_dbm: -30.0, d0: 1.0, exponent: 3.0 };
        // One decade of distance = 10 * n dB of loss.
        assert!((m.rss(1.0) - m.rss(10.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn near_field_clamped() {
        let m = LogDistance::indoor_2_4ghz();
        assert_eq!(m.rss(0.0), -30.0);
        assert_eq!(m.rss(0.5), -30.0);
    }

    #[test]
    fn custom_reference_distance() {
        let m = LogDistance { p0_dbm: -40.0, d0: 2.0, exponent: 2.0 };
        assert_eq!(m.rss(2.0), -40.0);
        assert!((m.rss(20.0) - (-60.0)).abs() < 1e-12);
    }
}
