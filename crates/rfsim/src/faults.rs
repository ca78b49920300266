//! Deterministic fault schedules composed over raw sample streams.
//!
//! A [`FaultSchedule`] is a declarative list of adversities — loss bursts,
//! link death and flapping, drift ramps, reorder storms, clock skew — applied
//! as a pure transformation of an already-generated [`LinkSample`] stream.
//! Because faults act on the delivered stream rather than inside the sample
//! generator, the *underlying* measurements are identical with and without
//! the schedule: a test can compare the faulted and clean runs of the same
//! `(world seed, stream seed)` pair and attribute every difference to the
//! schedule alone. All randomness (the reorder storm's shuffle) is
//! counter-based off the fault's own seed, so applying a schedule is
//! deterministic and independent of application order elsewhere.
//!
//! Time spans are in stream seconds, half-open `[start_s, end_s)`, matching
//! [`LinkSample::t_s`]. Faults are applied in list order; later faults see the
//! stream as transformed by earlier ones (e.g. a clock skew before a loss
//! burst shifts which samples the burst catches).

use crate::rng::hash_u64;
use tafloc_ingest::LinkSample;

/// One deterministic adversity applied to a raw sample stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Every sample in `[start_s, end_s)` is lost — on one link, or on all
    /// links when `link` is `None` (a site-wide outage).
    LossBurst {
        /// Span start (stream seconds, inclusive).
        start_s: f64,
        /// Span end (stream seconds, exclusive).
        end_s: f64,
        /// Affected link, or `None` for every link.
        link: Option<usize>,
    },
    /// A link stops reporting permanently at `at_s` (radio death).
    LinkDeath {
        /// The dying link.
        link: usize,
        /// Stream time of the last delivered sample (exclusive).
        at_s: f64,
    },
    /// A link alternates `period_s` on / `period_s` off from `start_s` on
    /// (intermittent connectivity; each off phase drops its samples).
    LinkFlap {
        /// The flapping link.
        link: usize,
        /// Stream time the flapping starts.
        start_s: f64,
        /// Length of each on and each off phase (seconds, must be `> 0`).
        period_s: f64,
    },
    /// RSS bias ramping linearly from 0 dB at `start_s` to `bias_db` at
    /// `end_s`, constant afterwards — an environmental drift transient
    /// faster than the world's own day-scale drift.
    DriftRamp {
        /// Ramp start (stream seconds).
        start_s: f64,
        /// Ramp end; must be `> start_s`.
        end_s: f64,
        /// Bias reached at the end of the ramp (dB, may be negative).
        bias_db: f64,
        /// Affected link, or `None` for every link.
        link: Option<usize>,
    },
    /// Delivery order inside `[start_s, end_s)` is scrambled by a seeded
    /// Fisher-Yates shuffle (timestamps are untouched — this models severe
    /// transport reordering, far beyond `StreamConfig::reorder_prob`).
    ReorderStorm {
        /// Span start (stream seconds).
        start_s: f64,
        /// Span end (stream seconds).
        end_s: f64,
        /// Shuffle seed; the storm is deterministic in it.
        seed: u64,
    },
    /// A link's clock runs offset by `offset_s`: its timestamps are shifted
    /// (clamped at 0), so its samples age differently than its peers'.
    ClockSkew {
        /// The skewed link.
        link: usize,
        /// Clock offset added to every timestamp (seconds, may be negative).
        offset_s: f64,
    },
}

impl Fault {
    /// Panics on an internally inconsistent fault (empty or reversed span,
    /// non-positive flap period, non-finite parameters). Called by
    /// [`FaultSchedule::apply`] on every fault; public so scenario
    /// definitions can fail fast at construction instead.
    pub fn assert_valid(&self) {
        match *self {
            Fault::LossBurst { start_s, end_s, .. } => {
                assert!(
                    start_s.is_finite() && end_s.is_finite() && end_s >= start_s,
                    "loss burst needs a finite span with end >= start, got [{start_s}, {end_s})"
                );
            }
            Fault::LinkDeath { at_s, .. } => {
                assert!(at_s.is_finite(), "link death time must be finite");
            }
            Fault::LinkFlap { start_s, period_s, .. } => {
                assert!(start_s.is_finite(), "flap start must be finite");
                assert!(
                    period_s.is_finite() && period_s > 0.0,
                    "flap period must be positive, got {period_s}"
                );
            }
            Fault::DriftRamp { start_s, end_s, bias_db, .. } => {
                assert!(
                    start_s.is_finite() && end_s.is_finite() && end_s > start_s,
                    "drift ramp needs a finite span with end > start, got [{start_s}, {end_s})"
                );
                assert!(bias_db.is_finite(), "drift bias must be finite, got {bias_db}");
            }
            Fault::ReorderStorm { start_s, end_s, .. } => {
                assert!(
                    start_s.is_finite() && end_s.is_finite() && end_s >= start_s,
                    "reorder storm needs a finite span, got [{start_s}, {end_s})"
                );
            }
            Fault::ClockSkew { offset_s, .. } => {
                assert!(offset_s.is_finite(), "clock skew must be finite, got {offset_s}");
            }
        }
    }

    /// Applies this fault in place.
    fn apply(&self, samples: &mut Vec<LinkSample>) {
        match *self {
            Fault::LossBurst { start_s, end_s, link } => {
                samples.retain(|s| {
                    !(s.t_s >= start_s && s.t_s < end_s && link.map_or(true, |l| s.link == l))
                });
            }
            Fault::LinkDeath { link, at_s } => {
                samples.retain(|s| !(s.link == link && s.t_s >= at_s));
            }
            Fault::LinkFlap { link, start_s, period_s } => {
                samples.retain(|s| {
                    if s.link != link || s.t_s < start_s {
                        return true;
                    }
                    // Phase 0 is on, phase 1 is off, alternating.
                    let phase = ((s.t_s - start_s) / period_s) as u64;
                    phase % 2 == 0
                });
            }
            Fault::DriftRamp { start_s, end_s, bias_db, link } => {
                for s in samples.iter_mut() {
                    if link.map_or(true, |l| s.link == l) {
                        let t = ((s.t_s - start_s) / (end_s - start_s)).clamp(0.0, 1.0);
                        s.rss_dbm += bias_db * t;
                    }
                }
            }
            Fault::ReorderStorm { start_s, end_s, seed } => {
                let span: Vec<usize> = (0..samples.len())
                    .filter(|&i| samples[i].t_s >= start_s && samples[i].t_s < end_s)
                    .collect();
                // Fisher-Yates over the span's positions, counter-based so the
                // shuffle is a pure function of (seed, span length).
                for k in (1..span.len()).rev() {
                    let j = (hash_u64(seed, span.len() as u64, k as u64) % (k as u64 + 1)) as usize;
                    samples.swap(span[k], span[j]);
                }
            }
            Fault::ClockSkew { link, offset_s } => {
                for s in samples.iter_mut() {
                    if s.link == link {
                        s.t_s = (s.t_s + offset_s).max(0.0);
                    }
                }
            }
        }
    }
}

/// An ordered list of faults applied to a stream as one transformation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    /// Faults in application order.
    pub faults: Vec<Fault>,
}

impl FaultSchedule {
    /// The empty schedule (identity transformation).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from faults in application order.
    pub fn new(faults: impl Into<Vec<Fault>>) -> Self {
        FaultSchedule { faults: faults.into() }
    }

    /// Whether the schedule carries no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies every fault in order, in place. Panics on invalid fault
    /// parameters (mirroring `StreamConfig::assert_valid`).
    pub fn apply(&self, samples: &mut Vec<LinkSample>) {
        for fault in &self.faults {
            fault.assert_valid();
            fault.apply(samples);
        }
    }

    /// Convenience: applies the schedule to a copy of `samples`.
    pub fn applied(&self, samples: &[LinkSample]) -> Vec<LinkSample> {
        let mut out = samples.to_vec();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{empty_stream, StreamConfig};
    use crate::world::{World, WorldConfig};

    fn stream() -> Vec<LinkSample> {
        let w = World::new(WorldConfig::small_test(), 7);
        empty_stream(&w, 0.0, &StreamConfig { duration_s: 30.0, ..Default::default() }, 3)
    }

    #[test]
    fn empty_schedule_is_identity() {
        let base = stream();
        assert_eq!(FaultSchedule::none().applied(&base), base);
        assert!(FaultSchedule::none().is_empty());
    }

    #[test]
    fn schedule_application_is_deterministic() {
        let sched = FaultSchedule::new(vec![
            Fault::LossBurst { start_s: 5.0, end_s: 10.0, link: None },
            Fault::ReorderStorm { start_s: 10.0, end_s: 20.0, seed: 9 },
            Fault::DriftRamp { start_s: 0.0, end_s: 30.0, bias_db: 4.0, link: Some(1) },
        ]);
        assert_eq!(sched.applied(&stream()), sched.applied(&stream()));
    }

    #[test]
    fn loss_burst_empties_the_span() {
        let sched =
            FaultSchedule::new(vec![Fault::LossBurst { start_s: 5.0, end_s: 10.0, link: None }]);
        let out = sched.applied(&stream());
        assert!(out.iter().all(|s| s.t_s < 5.0 || s.t_s >= 10.0));
        assert!(!out.is_empty());
    }

    #[test]
    fn single_link_loss_burst_spares_other_links() {
        let sched =
            FaultSchedule::new(vec![Fault::LossBurst { start_s: 0.0, end_s: 30.0, link: Some(2) }]);
        let out = sched.applied(&stream());
        assert!(out.iter().all(|s| s.link != 2));
        assert!(out.iter().any(|s| s.link == 0));
    }

    #[test]
    fn link_death_silences_the_tail() {
        let sched = FaultSchedule::new(vec![Fault::LinkDeath { link: 1, at_s: 12.0 }]);
        let out = sched.applied(&stream());
        assert!(out.iter().all(|s| s.link != 1 || s.t_s < 12.0));
        assert!(out.iter().any(|s| s.link == 1), "samples before death survive");
    }

    #[test]
    fn link_flap_alternates_phases() {
        let sched =
            FaultSchedule::new(vec![Fault::LinkFlap { link: 0, start_s: 0.0, period_s: 5.0 }]);
        let out = sched.applied(&stream());
        for s in out.iter().filter(|s| s.link == 0) {
            let phase = (s.t_s / 5.0) as u64;
            assert_eq!(phase % 2, 0, "off-phase sample survived at t={}", s.t_s);
        }
        assert!(out.iter().any(|s| s.link == 0));
    }

    #[test]
    fn drift_ramp_biases_monotonically() {
        let base = stream();
        let sched = FaultSchedule::new(vec![Fault::DriftRamp {
            start_s: 0.0,
            end_s: 30.0,
            bias_db: 6.0,
            link: None,
        }]);
        let out = sched.applied(&base);
        assert_eq!(out.len(), base.len());
        for (a, b) in base.iter().zip(&out) {
            let bias = b.rss_dbm - a.rss_dbm;
            let expected = 6.0 * (a.t_s / 30.0).clamp(0.0, 1.0);
            assert!((bias - expected).abs() < 1e-9, "t={} bias={bias}", a.t_s);
        }
    }

    #[test]
    fn reorder_storm_preserves_multiset() {
        let base = stream();
        let sched =
            FaultSchedule::new(vec![Fault::ReorderStorm { start_s: 0.0, end_s: 30.0, seed: 4 }]);
        let out = sched.applied(&base);
        assert_eq!(out.len(), base.len());
        let key = |s: &LinkSample| (s.link, s.t_s.to_bits(), s.rss_dbm.to_bits());
        let mut a = base.clone();
        let mut b = out.clone();
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "a storm must not add, drop or alter samples");
        assert_ne!(base, out, "a full-span storm must actually scramble");
    }

    #[test]
    fn clock_skew_shifts_one_link() {
        let base = stream();
        let sched = FaultSchedule::new(vec![Fault::ClockSkew { link: 3, offset_s: 7.5 }]);
        let out = sched.applied(&base);
        for (a, b) in base.iter().zip(&out) {
            if a.link == 3 {
                assert!((b.t_s - (a.t_s + 7.5)).abs() < 1e-12);
            } else {
                assert_eq!(a.t_s.to_bits(), b.t_s.to_bits());
            }
        }
    }

    #[test]
    fn faults_apply_in_schedule_order() {
        // Killing link 2 at 10 s and then skewing it by +20 s keeps its early
        // samples, shifted; skewing first moves them all past the death time.
        let base = stream();
        let death = Fault::LinkDeath { link: 2, at_s: 10.0 };
        let skew = Fault::ClockSkew { link: 2, offset_s: 20.0 };
        let link2 =
            |v: &[LinkSample]| v.iter().filter(|s| s.link == 2).cloned().collect::<Vec<_>>();
        let death_first = link2(&FaultSchedule::new(vec![death, skew]).applied(&base));
        assert!(!death_first.is_empty());
        assert!(death_first.iter().all(|s| s.t_s >= 20.0 && s.t_s < 30.0));
        assert!(link2(&FaultSchedule::new(vec![skew, death]).applied(&base)).is_empty());
    }

    #[test]
    #[should_panic(expected = "flap period")]
    fn invalid_flap_period_panics() {
        let mut s = stream();
        FaultSchedule::new(vec![Fault::LinkFlap { link: 0, start_s: 0.0, period_s: 0.0 }])
            .apply(&mut s);
    }
}
