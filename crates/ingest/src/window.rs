//! Per-link sliding windows and robust aggregation.
//!
//! A [`LinkWindow`] owns the recent samples of one link, ordered by stream
//! time, bounded both by count (ring capacity) and by age (the window
//! horizon). Reducing a window to one RSS value goes through a Hampel-style
//! outlier filter first: samples farther than `k` robust standard deviations
//! (`1.4826 * MAD`) from the window median are excluded, which kills the
//! interference spikes real radios emit without biasing the estimate the way
//! a plain trimmed mean would.

use crate::config::{Aggregator, IngestConfig};
use crate::sample::LinkSample;
use std::collections::VecDeque;

/// Health classification of one link at a given stream-clock instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkStatus {
    /// Fresh samples, enough of them: the aggregate is trustworthy.
    Live,
    /// Has an aggregate but its newest sample is older than the staleness
    /// bound — usable, flagged.
    Stale,
    /// No usable aggregate (never reported, or fewer than `min_samples`
    /// retained): the link must be imputed.
    Dead,
}

/// The published per-link reduction: everything assembly needs, immutable.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkAggregate {
    /// Robust RSS estimate (dBm) over the retained window.
    pub rss_dbm: f64,
    /// Samples retained in the window (after eviction, before Hampel).
    pub samples: usize,
    /// Samples the Hampel filter excluded from this aggregate.
    pub rejected: usize,
    /// Newest sample time in the window (stream seconds).
    pub last_t_s: f64,
    /// Sample standard deviation (dB) of the retained samples (0 for n < 2).
    pub spread_db: f64,
}

/// Sliding window of one link's samples plus its health bookkeeping.
#[derive(Debug)]
pub struct LinkWindow {
    /// `(t_s, rss_dbm)` in non-decreasing `t_s` order.
    samples: VecDeque<(f64, f64)>,
    /// Hampel exclusion events over the window's lifetime; an in-window
    /// outlier is counted again on every re-aggregation.
    rejected_total: u64,
    /// Times the link went quiet (crossed the staleness bound) and came back.
    flaps: u64,
    /// Whether the link was stale/dead at its last observation instant.
    was_quiet: bool,
}

impl LinkWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        LinkWindow { samples: VecDeque::new(), rejected_total: 0, flaps: 0, was_quiet: true }
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Lifetime Hampel exclusion events (re-counted per aggregation).
    pub fn rejected_total(&self) -> u64 {
        self.rejected_total
    }

    /// Times the link recovered after going quiet (flapping indicator).
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Newest sample time, if any.
    pub fn last_t_s(&self) -> Option<f64> {
        self.samples.back().map(|&(t, _)| t)
    }

    /// Inserts one sample, keeping time order (out-of-order arrivals within
    /// the horizon are sorted into place). Returns `false` when the sample is
    /// older than the horizon and was dropped as late. `now_s` is the stream
    /// clock (the newest timestamp the whole pipeline has seen).
    pub fn push(&mut self, sample: &LinkSample, now_s: f64, config: &IngestConfig) -> bool {
        let horizon = now_s - config.window_s;
        if sample.t_s < horizon {
            return false;
        }
        // Flap accounting: a sample arriving on a link that had gone quiet.
        if self.was_quiet && !self.is_empty() {
            self.flaps += 1;
        }
        self.was_quiet = false;

        // Typical case: append; reordered case: walk back to the slot.
        let pos =
            self.samples.iter().rposition(|&(t, _)| t <= sample.t_s).map(|p| p + 1).unwrap_or(0);
        self.samples.insert(pos, (sample.t_s, sample.rss_dbm));
        self.evict(now_s, config);
        true
    }

    /// Drops samples beyond capacity or older than the horizon.
    pub fn evict(&mut self, now_s: f64, config: &IngestConfig) {
        let horizon = now_s - config.window_s;
        while let Some(&(t, _)) = self.samples.front() {
            if t < horizon || self.samples.len() > config.window_capacity {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Health of the window at stream-clock `now_s`.
    pub fn status(&mut self, now_s: f64, config: &IngestConfig) -> LinkStatus {
        if self.samples.len() < config.min_samples {
            self.was_quiet = true;
            return LinkStatus::Dead;
        }
        let last = self.samples.back().map(|&(t, _)| t).unwrap_or(f64::NEG_INFINITY);
        if now_s - last > config.stale_after_s {
            self.was_quiet = true;
            LinkStatus::Stale
        } else {
            LinkStatus::Live
        }
    }

    /// Reduces the window to a published aggregate, or `None` when empty.
    /// Updates the lifetime rejection counter.
    pub fn aggregate(&mut self, config: &IngestConfig) -> Option<LinkAggregate> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = self.samples.iter().map(|&(_, v)| v).collect();
        let median = median_in_place(&mut sorted);
        let retained: Vec<(f64, f64)> = if config.hampel_k > 0.0 {
            let mut deviations: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
            let mad = median_in_place(&mut deviations);
            let scale = (1.4826 * mad).max(config.hampel_floor_db);
            let bound = config.hampel_k * scale;
            self.samples.iter().copied().filter(|&(_, v)| (v - median).abs() <= bound).collect()
        } else {
            self.samples.iter().copied().collect()
        };
        // Degenerate guard: the filter cannot reject everything because the
        // median itself always passes, but stay safe against float edge cases.
        let retained = if retained.is_empty() {
            self.samples.iter().copied().collect::<Vec<_>>()
        } else {
            retained
        };
        let rejected = self.samples.len() - retained.len();
        self.rejected_total += rejected as u64;

        let rss_dbm = match config.aggregator {
            Aggregator::Median => {
                let mut vals: Vec<f64> = retained.iter().map(|&(_, v)| v).collect();
                median_in_place(&mut vals)
            }
            Aggregator::Ewma { alpha } => {
                let mut acc = retained[0].1;
                for &(_, v) in &retained[1..] {
                    acc += alpha * (v - acc);
                }
                acc
            }
        };
        let n = retained.len();
        let mean = retained.iter().map(|&(_, v)| v).sum::<f64>() / n as f64;
        let spread_db = if n < 2 {
            0.0
        } else {
            (retained.iter().map(|&(_, v)| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0))
                .sqrt()
        };
        Some(LinkAggregate {
            rss_dbm,
            samples: self.samples.len(),
            rejected,
            last_t_s: self.samples.back().map(|&(t, _)| t).unwrap_or(0.0),
            spread_db,
        })
    }
}

impl Default for LinkWindow {
    fn default() -> Self {
        LinkWindow::new()
    }
}

/// Median by partial sort; `values` must be non-empty.
fn median_in_place(values: &mut [f64]) -> f64 {
    debug_assert!(!values.is_empty());
    let mid = values.len() / 2;
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite RSS values"));
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> IngestConfig {
        IngestConfig { window_s: 10.0, stale_after_s: 3.0, min_samples: 2, ..Default::default() }
    }

    fn push_all(w: &mut LinkWindow, samples: &[(f64, f64)], cfg: &IngestConfig) {
        let mut now = f64::NEG_INFINITY;
        for &(t, v) in samples {
            now = now.max(t);
            assert!(w.push(&LinkSample::new(0, t, v), now, cfg));
        }
    }

    #[test]
    fn median_aggregation_is_exact() {
        let c = cfg();
        let mut w = LinkWindow::new();
        push_all(&mut w, &[(1.0, -50.0), (2.0, -52.0), (3.0, -51.0)], &c);
        let agg = w.aggregate(&c).unwrap();
        assert_eq!(agg.rss_dbm, -51.0);
        assert_eq!(agg.samples, 3);
        assert_eq!(agg.rejected, 0);
        assert_eq!(agg.last_t_s, 3.0);
    }

    #[test]
    fn hampel_rejects_a_spike_median_survives() {
        let c = cfg();
        let mut w = LinkWindow::new();
        // 9 well-behaved samples around -50 plus one +30 dB interference burst.
        let mut samples: Vec<(f64, f64)> =
            (0..9).map(|k| (k as f64 * 0.5, -50.0 + 0.2 * (k % 3) as f64)).collect();
        samples.push((4.5, -20.0));
        push_all(&mut w, &samples, &c);
        let agg = w.aggregate(&c).unwrap();
        assert_eq!(agg.rejected, 1, "the burst must be excluded");
        assert!((agg.rss_dbm - -50.0).abs() < 0.5);
        assert_eq!(w.rejected_total(), 1);
    }

    #[test]
    fn ewma_tracks_a_level_shift_faster_than_median() {
        let c = IngestConfig { aggregator: Aggregator::Ewma { alpha: 0.5 }, ..cfg() };
        let m = cfg();
        let mut we = LinkWindow::new();
        let mut wm = LinkWindow::new();
        let mut samples: Vec<(f64, f64)> = (0..6).map(|k| (k as f64, -60.0)).collect();
        samples.extend((6..9).map(|k| (k as f64, -50.0)));
        // A 10 dB step would Hampel-reject the new level; disable for this test.
        let c = IngestConfig { hampel_k: 0.0, ..c };
        let m = IngestConfig { hampel_k: 0.0, ..m };
        push_all(&mut we, &samples, &c);
        push_all(&mut wm, &samples, &m);
        let e = we.aggregate(&c).unwrap().rss_dbm;
        let md = wm.aggregate(&m).unwrap().rss_dbm;
        assert!(e > md, "EWMA ({e}) must react faster than the median ({md})");
    }

    #[test]
    fn horizon_and_capacity_evict() {
        let c = IngestConfig { window_capacity: 4, ..cfg() };
        let mut w = LinkWindow::new();
        push_all(&mut w, &[(0.0, -50.0), (1.0, -50.0), (2.0, -50.0)], &c);
        // Jump the clock: the horizon (10 s) evicts everything before t=5.
        assert!(w.push(&LinkSample::new(0, 15.0, -48.0), 15.0, &c));
        assert_eq!(w.len(), 1);
        // Capacity bound.
        for k in 0..10 {
            w.push(&LinkSample::new(0, 15.0 + k as f64 * 0.1, -48.0), 16.0, &c);
        }
        assert!(w.len() <= 4);
    }

    #[test]
    fn late_sample_is_dropped_reordered_sample_is_sorted_in() {
        let c = cfg();
        let mut w = LinkWindow::new();
        assert!(w.push(&LinkSample::new(0, 20.0, -50.0), 20.0, &c));
        // 15 > 20 - 10, so this reordered sample is kept, in order.
        assert!(w.push(&LinkSample::new(0, 15.0, -51.0), 20.0, &c));
        // 5 < 20 - 10: too late.
        assert!(!w.push(&LinkSample::new(0, 5.0, -52.0), 20.0, &c));
        assert_eq!(w.len(), 2);
        assert_eq!(w.last_t_s(), Some(20.0));
    }

    #[test]
    fn status_transitions_and_flaps() {
        let c = cfg();
        let mut w = LinkWindow::new();
        assert_eq!(w.status(0.0, &c), LinkStatus::Dead);
        push_all(&mut w, &[(0.0, -50.0), (0.5, -50.0), (1.0, -50.0)], &c);
        assert_eq!(w.status(1.0, &c), LinkStatus::Live);
        assert_eq!(w.status(8.0, &c), LinkStatus::Stale);
        // Recovery after quiet counts as one flap.
        assert!(w.push(&LinkSample::new(0, 9.0, -50.0), 9.0, &c));
        assert_eq!(w.status(9.0, &c), LinkStatus::Live);
        assert_eq!(w.flaps(), 1);
    }

    #[test]
    fn spread_is_the_sample_std_of_retained_values() {
        let c = cfg();
        let mut w = LinkWindow::new();
        push_all(&mut w, &[(1.0, -50.0)], &c);
        assert_eq!(w.aggregate(&c).unwrap().spread_db, 0.0, "one sample has no spread");
        push_all(&mut w, &[(2.0, -52.0), (3.0, -51.0)], &c);
        assert!((w.aggregate(&c).unwrap().spread_db - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hampel_floor_keeps_a_flat_window_from_rejecting_wiggles() {
        // Five identical samples give MAD = 0, so the scale is the floor
        // (0.75 dB) and the bound is k = 3 times that: 2.25 dB.
        let c = cfg();
        let mut w = LinkWindow::new();
        let mut samples: Vec<(f64, f64)> = (0..5).map(|k| (k as f64, -50.0)).collect();
        samples.push((5.0, -48.0));
        push_all(&mut w, &samples, &c);
        assert_eq!(w.aggregate(&c).unwrap().rejected, 0, "a 2 dB wiggle is within the bound");
        push_all(&mut w, &[(6.0, -47.0)], &c);
        assert_eq!(w.aggregate(&c).unwrap().rejected, 1, "3 dB is past it");
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        // With alpha = 1 the EWMA is the last retained sample.
        let c =
            IngestConfig { aggregator: Aggregator::Ewma { alpha: 1.0 }, hampel_k: 0.0, ..cfg() };
        let mut w = LinkWindow::new();
        push_all(&mut w, &[(1.0, -50.0), (2.0, -60.0), (2.0, -40.0)], &c);
        assert_eq!(w.aggregate(&c).unwrap().rss_dbm, -40.0);
    }

    #[test]
    fn empty_window_has_no_aggregate() {
        let c = cfg();
        let mut w = LinkWindow::new();
        assert!(w.aggregate(&c).is_none());
    }

    #[test]
    fn median_of_even_count_averages_middle_pair() {
        let mut v = [1.0, 3.0, 2.0, 4.0];
        assert_eq!(median_in_place(&mut v), 2.5);
    }
}
