//! Presence detection: deciding *whether* a device-free target is in the area
//! before asking *where*.
//!
//! The paper's intruder-detection motivation needs this step. Two detectors are
//! provided:
//!
//! * a **snapshot detector** — alarm when any link's RSS drops more than a
//!   threshold below the empty-room baseline (a person on a link's LoS shadows
//!   it by ~10 dB, far above the 1-4 dBm noise); and
//! * a **CUSUM detector** — a per-link cumulative-sum changepoint test that
//!   accumulates weak evidence across time, catching targets that never stand
//!   directly on a LoS (where the per-snapshot drop may sit inside the noise).

use crate::error::TaflocError;
use crate::Result;

/// Detection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Snapshot alarm threshold (dB): max per-link drop that triggers instantly.
    pub snapshot_threshold_db: f64,
    /// CUSUM reference value `k` (dB): drops below this are ignored.
    pub cusum_k_db: f64,
    /// CUSUM decision threshold `h` (dB-seconds of accumulated evidence).
    pub cusum_h: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig { snapshot_threshold_db: 4.0, cusum_k_db: 1.0, cusum_h: 6.0 }
    }
}

/// Outcome of feeding one measurement to the detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detection {
    /// No evidence of a target.
    Absent,
    /// A single snapshot crossed the instant threshold.
    PresentInstant {
        /// The triggering link.
        link: usize,
        /// Its RSS drop in dB.
        drop_db: f64,
    },
    /// The accumulated CUSUM statistic crossed its threshold.
    PresentAccumulated {
        /// The triggering link.
        link: usize,
        /// The accumulated statistic value.
        statistic: f64,
    },
}

impl Detection {
    /// `true` for either kind of presence.
    pub fn is_present(&self) -> bool {
        !matches!(self, Detection::Absent)
    }
}

/// A stateful presence detector bound to an empty-room baseline.
///
/// ```
/// use tafloc_core::detection::{Detection, DetectorConfig, PresenceDetector};
/// let mut d = PresenceDetector::new(vec![-40.0, -45.0], DetectorConfig::default()).unwrap();
/// assert_eq!(d.update(&[-40.1, -44.9]).unwrap(), Detection::Absent);
/// assert!(d.update(&[-40.0, -53.0]).unwrap().is_present()); // 8 dB drop on link 1
/// ```
#[derive(Debug, Clone)]
pub struct PresenceDetector {
    config: DetectorConfig,
    baseline: Vec<f64>,
    cusum: Vec<f64>,
}

impl PresenceDetector {
    /// Creates a detector from the current empty-room RSS baseline.
    pub fn new(baseline: Vec<f64>, config: DetectorConfig) -> Result<Self> {
        if baseline.is_empty() {
            return Err(TaflocError::InvalidConfig {
                field: "baseline",
                reason: "need at least one link".into(),
            });
        }
        if !(config.snapshot_threshold_db > 0.0)
            || !(config.cusum_h > 0.0)
            || config.cusum_k_db < 0.0
        {
            return Err(TaflocError::InvalidConfig {
                field: "detector",
                reason: "thresholds must be positive (k >= 0)".into(),
            });
        }
        let n = baseline.len();
        Ok(PresenceDetector { config, baseline, cusum: vec![0.0; n] })
    }

    /// Replaces the baseline (e.g. after a TafLoc update's fresh empty-room
    /// snapshot) and resets the accumulated statistics.
    pub fn rebaseline(&mut self, baseline: Vec<f64>) -> Result<()> {
        if baseline.len() != self.baseline.len() {
            return Err(TaflocError::DimensionMismatch {
                op: "PresenceDetector::rebaseline",
                expected: (self.baseline.len(), 1),
                actual: (baseline.len(), 1),
            });
        }
        self.baseline = baseline;
        self.reset();
        Ok(())
    }

    /// Clears the CUSUM state (after an alarm has been handled).
    pub fn reset(&mut self) {
        self.cusum.iter_mut().for_each(|s| *s = 0.0);
    }

    /// The instantaneous anomaly score: the largest per-link RSS drop (dB).
    pub fn score(&self, y: &[f64]) -> Result<f64> {
        if y.len() != self.baseline.len() {
            return Err(TaflocError::DimensionMismatch {
                op: "PresenceDetector::score",
                expected: (self.baseline.len(), 1),
                actual: (y.len(), 1),
            });
        }
        Ok(self.baseline.iter().zip(y).map(|(b, v)| b - v).fold(f64::NEG_INFINITY, f64::max))
    }

    /// Feeds one measurement; updates the CUSUM state and returns the decision.
    pub fn update(&mut self, y: &[f64]) -> Result<Detection> {
        if y.len() != self.baseline.len() {
            return Err(TaflocError::DimensionMismatch {
                op: "PresenceDetector::update",
                expected: (self.baseline.len(), 1),
                actual: (y.len(), 1),
            });
        }
        let mut best_instant: Option<(usize, f64)> = None;
        let mut best_cusum: Option<(usize, f64)> = None;
        for (i, (&b, &v)) in self.baseline.iter().zip(y).enumerate() {
            let drop = b - v;
            if drop > self.config.snapshot_threshold_db
                && best_instant.map_or(true, |(_, d)| drop > d)
            {
                best_instant = Some((i, drop));
            }
            // One-sided CUSUM on positive drops.
            self.cusum[i] = (self.cusum[i] + drop - self.config.cusum_k_db).max(0.0);
            if self.cusum[i] > self.config.cusum_h
                && best_cusum.map_or(true, |(_, s)| self.cusum[i] > s)
            {
                best_cusum = Some((i, self.cusum[i]));
            }
        }
        if let Some((link, drop_db)) = best_instant {
            return Ok(Detection::PresentInstant { link, drop_db });
        }
        if let Some((link, statistic)) = best_cusum {
            return Ok(Detection::PresentAccumulated { link, statistic });
        }
        Ok(Detection::Absent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> PresenceDetector {
        PresenceDetector::new(vec![-40.0, -45.0, -50.0], DetectorConfig::default()).unwrap()
    }

    #[test]
    fn quiet_room_stays_absent() {
        let mut d = detector();
        for _ in 0..50 {
            let r = d.update(&[-40.2, -44.9, -50.1]).unwrap();
            assert_eq!(r, Detection::Absent);
        }
    }

    #[test]
    fn big_drop_triggers_instantly() {
        let mut d = detector();
        let r = d.update(&[-40.0, -53.0, -50.0]).unwrap();
        match r {
            Detection::PresentInstant { link, drop_db } => {
                assert_eq!(link, 1);
                assert!((drop_db - 8.0).abs() < 1e-12);
            }
            other => panic!("expected instant detection, got {other:?}"),
        }
        assert!(r.is_present());
    }

    #[test]
    fn weak_persistent_drop_accumulates() {
        let mut d = detector();
        // 2.5 dB drop: below the 4 dB snapshot threshold, above CUSUM k = 1.
        let mut detected_at = None;
        for step in 0..20 {
            let r = d.update(&[-42.5, -45.0, -50.0]).unwrap();
            if r.is_present() {
                detected_at = Some((step, r));
                break;
            }
        }
        let (step, r) = detected_at.expect("CUSUM must eventually fire");
        assert!(step >= 2, "needs a few samples to accumulate, fired at {step}");
        assert!(matches!(r, Detection::PresentAccumulated { link: 0, .. }));
    }

    #[test]
    fn cusum_resets() {
        let mut d = detector();
        for _ in 0..10 {
            let _ = d.update(&[-42.5, -45.0, -50.0]).unwrap();
        }
        d.reset();
        let r = d.update(&[-42.5, -45.0, -50.0]).unwrap();
        assert_eq!(r, Detection::Absent, "fresh CUSUM must not fire immediately");
    }

    #[test]
    fn rebaseline_swaps_reference() {
        let mut d = detector();
        d.rebaseline(vec![-45.0, -50.0, -55.0]).unwrap();
        assert_eq!(d.update(&[-45.0, -50.0, -55.0]).unwrap(), Detection::Absent);
        assert!(d.rebaseline(vec![-40.0]).is_err());
    }

    #[test]
    fn score_is_max_drop() {
        let d = detector();
        let s = d.score(&[-41.0, -49.0, -50.0]).unwrap();
        assert!((s - 4.0).abs() < 1e-12);
        assert!(d.score(&[-41.0]).is_err());
    }

    #[test]
    fn validates_construction() {
        assert!(PresenceDetector::new(vec![], DetectorConfig::default()).is_err());
        let bad = DetectorConfig { snapshot_threshold_db: 0.0, ..Default::default() };
        assert!(PresenceDetector::new(vec![-40.0], bad).is_err());
        let bad = DetectorConfig { cusum_k_db: -1.0, ..Default::default() };
        assert!(PresenceDetector::new(vec![-40.0], bad).is_err());
    }

    #[test]
    fn update_validates_length() {
        let mut d = detector();
        assert!(d.update(&[-40.0]).is_err());
    }

    #[test]
    fn noise_within_band_does_not_false_alarm() {
        // Zero-mean noise within the paper's 1-4 dBm band, averaged over 100
        // samples as the campaigns do, must not trip the detector.
        let mut d = detector();
        for k in 0..200 {
            let jitter = 0.4 * ((k as f64) * 0.7).sin();
            let r = d.update(&[-40.0 + jitter, -45.0 - jitter, -50.0 + jitter]).unwrap();
            assert_eq!(r, Detection::Absent, "false alarm at step {k}");
        }
    }
}
