//! Pipeline configuration.

use crate::error::{IngestError, Result};

/// How a window of retained samples is reduced to one per-link RSS value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Aggregator {
    /// Median of the retained (outlier-filtered) samples. The most robust
    /// choice and the default.
    #[default]
    Median,
    /// Exponentially weighted moving average over the retained samples in
    /// time order — cheaper memory of old samples, faster reaction.
    Ewma {
        /// Smoothing factor in `(0, 1]`; larger = faster reaction.
        alpha: f64,
    },
}

/// Ingestion pipeline configuration.
///
/// Defaults match the paper's measurement regime: radios sampling at ~1 Hz,
/// fingerprints averaged over tens of samples, RSS quantized to 1 dBm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Maximum samples retained per link (ring capacity).
    pub window_capacity: usize,
    /// Window horizon in stream-clock seconds: samples older than
    /// `newest - window_s` are evicted (and arrivals older than that are
    /// dropped as late).
    pub window_s: f64,
    /// Minimum retained samples before a link's aggregate is trusted for
    /// assembly; below it the link is imputed and flagged.
    pub min_samples: usize,
    /// A link whose newest sample is older than this (vs the stream clock)
    /// is flagged stale; stale links still contribute their aggregate.
    pub stale_after_s: f64,
    /// Hampel multiplier `k`: samples farther than `k * 1.4826 * MAD` from
    /// the window median are excluded from aggregation. `0` disables
    /// rejection.
    pub hampel_k: f64,
    /// Floor on the Hampel scale estimate (dB) so integer-quantized RSS
    /// (MAD frequently 0) does not reject every off-median sample.
    pub hampel_floor_db: f64,
    /// Window → value reduction.
    pub aggregator: Aggregator,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            window_capacity: 128,
            window_s: 30.0,
            min_samples: 3,
            stale_after_s: 10.0,
            hampel_k: 3.0,
            hampel_floor_db: 0.75,
            aggregator: Aggregator::default(),
        }
    }
}

impl IngestConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.window_capacity == 0 {
            return Err(IngestError::InvalidConfig {
                field: "window_capacity",
                reason: "must retain at least one sample".into(),
            });
        }
        if !(self.window_s > 0.0) {
            return Err(IngestError::InvalidConfig {
                field: "window_s",
                reason: format!("horizon must be positive, got {}", self.window_s),
            });
        }
        if self.min_samples == 0 {
            return Err(IngestError::InvalidConfig {
                field: "min_samples",
                reason: "must require at least one sample".into(),
            });
        }
        if !(self.stale_after_s > 0.0) {
            return Err(IngestError::InvalidConfig {
                field: "stale_after_s",
                reason: format!("staleness bound must be positive, got {}", self.stale_after_s),
            });
        }
        if self.hampel_k < 0.0 || !self.hampel_k.is_finite() {
            return Err(IngestError::InvalidConfig {
                field: "hampel_k",
                reason: format!("must be finite and >= 0, got {}", self.hampel_k),
            });
        }
        if !(self.hampel_floor_db >= 0.0) {
            return Err(IngestError::InvalidConfig {
                field: "hampel_floor_db",
                reason: format!("must be >= 0, got {}", self.hampel_floor_db),
            });
        }
        if let Aggregator::Ewma { alpha } = self.aggregator {
            if !(alpha > 0.0 && alpha <= 1.0) {
                return Err(IngestError::InvalidConfig {
                    field: "aggregator.alpha",
                    reason: format!("EWMA alpha must be in (0, 1], got {alpha}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        IngestConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_fields_are_rejected() {
        let bad = [
            IngestConfig { window_capacity: 0, ..Default::default() },
            IngestConfig { window_s: 0.0, ..Default::default() },
            IngestConfig { window_s: f64::NAN, ..Default::default() },
            IngestConfig { min_samples: 0, ..Default::default() },
            IngestConfig { stale_after_s: -1.0, ..Default::default() },
            IngestConfig { hampel_k: -0.5, ..Default::default() },
            IngestConfig { hampel_floor_db: f64::NAN, ..Default::default() },
            IngestConfig { aggregator: Aggregator::Ewma { alpha: 0.0 }, ..Default::default() },
            IngestConfig { aggregator: Aggregator::Ewma { alpha: 1.5 }, ..Default::default() },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?} must be rejected");
        }
    }

    #[test]
    fn closed_bounds_are_accepted() {
        let edges = [
            IngestConfig { window_capacity: 1, min_samples: 1, ..Default::default() },
            IngestConfig { hampel_k: 0.0, hampel_floor_db: 0.0, ..Default::default() },
            IngestConfig { aggregator: Aggregator::Ewma { alpha: 1.0 }, ..Default::default() },
        ];
        for cfg in edges {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn rejection_names_the_offending_field() {
        let field = |cfg: IngestConfig| match cfg.validate() {
            Err(IngestError::InvalidConfig { field, .. }) => field,
            other => panic!("{cfg:?} gave {other:?}"),
        };
        assert_eq!(
            field(IngestConfig { stale_after_s: 0.0, ..Default::default() }),
            "stale_after_s"
        );
        assert_eq!(
            field(IngestConfig { hampel_k: f64::INFINITY, ..Default::default() }),
            "hampel_k"
        );
        let ewma =
            IngestConfig { aggregator: Aggregator::Ewma { alpha: -0.1 }, ..Default::default() };
        assert_eq!(field(ewma), "aggregator.alpha");
    }
}
