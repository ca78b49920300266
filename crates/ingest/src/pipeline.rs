//! The ingestion pipeline: sharded per-link windows feeding wait-free
//! published aggregates.
//!
//! Writers ([`Ingestor::apply_batch`]) group a batch by shard and take each
//! shard's mutex exactly once; a shard holds the windows of every `link` with
//! `link % shards == shard_index`, so concurrent producers only contend when
//! they carry samples for the same shard. After mutating a window the writer
//! re-publishes that link's [`LinkAggregate`] behind an `RwLock<Arc<_>>`
//! whose critical section is one pointer copy — the same discipline
//! `tafloc-serve` uses for site snapshots.
//!
//! Readers ([`Ingestor::assemble`]) never touch a shard mutex: they load the
//! `M` published aggregate pointers and work on immutable data, so assembly
//! is wait-free with respect to producers for any practical purpose.

use crate::clock::ClockMode;
use crate::config::IngestConfig;
use crate::error::{IngestError, Result};
use crate::sample::{BatchReport, LinkSample};
use crate::window::{LinkAggregate, LinkStatus, LinkWindow};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Why an assembled link value is flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFlag {
    /// Fresh aggregate from enough samples.
    Live,
    /// Aggregate exists but the link has gone quiet; value may lag reality.
    Stale,
    /// No usable aggregate; the value was imputed from the fallback vector.
    Imputed,
}

/// One complete `M`-dimensional fingerprint vector with explicit quality.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledVector {
    /// Per-link RSS (dBm), imputed where flagged — never NaN.
    pub y: Vec<f64>,
    /// Per-link provenance flag, same order as `y`.
    pub flags: Vec<LinkFlag>,
    /// Indices of imputed links (convenience view of `flags`).
    pub missing: Vec<usize>,
    /// Indices of stale links.
    pub stale: Vec<usize>,
    /// Newest sample time across all links (stream seconds); `None` before
    /// any sample arrived.
    pub latest_t_s: Option<f64>,
    /// Samples currently retained across all windows.
    pub window_samples: usize,
}

impl AssembledVector {
    /// Whether every link contributed a fresh aggregate.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty() && self.stale.is_empty()
    }
}

/// Cumulative pipeline counters, cheap enough to read on every stats call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Samples admitted into windows.
    pub accepted: u64,
    /// Samples dropped as older than the window horizon.
    pub dropped_late: u64,
    /// Samples dropped for naming an unknown link.
    pub dropped_unknown_link: u64,
    /// Samples dropped for NaN/infinite fields.
    pub dropped_non_finite: u64,
    /// Batches a producer shed in front of the pipeline
    /// ([`Ingestor::record_queue_drop`]).
    pub dropped_queue_batches: u64,
    /// Samples inside those refused batches.
    pub dropped_queue_samples: u64,
    /// Hampel exclusion events summed over every aggregation pass. An
    /// outlier is re-counted each time its window re-aggregates while it
    /// remains inside it, so this gauges gate activity and can exceed
    /// `accepted`; it is not a distinct-sample count.
    pub rejected_outliers: u64,
    /// Link recoveries after going quiet, summed over links (flapping).
    pub link_flaps: u64,
    /// Links whose current status is live.
    pub live_links: usize,
    /// Links whose current status is stale.
    pub stale_links: usize,
    /// Links whose current status is dead (no usable aggregate).
    pub dead_links: usize,
    /// Vectors assembled so far.
    pub assemblies: u64,
}

/// The published, reader-visible half of one link.
#[derive(Debug, Default)]
struct PublishedLink {
    /// `None` until the first aggregate exists.
    slot: RwLock<Option<Arc<LinkAggregate>>>,
}

impl PublishedLink {
    fn load(&self) -> Option<Arc<LinkAggregate>> {
        match self.slot.read() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn store(&self, agg: Option<Arc<LinkAggregate>>) {
        let mut g = match self.slot.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *g = agg;
    }
}

/// One shard: the mutable windows of the links it owns.
#[derive(Debug)]
struct Shard {
    /// Indexed by `link / num_shards` (links are striped across shards).
    windows: Vec<LinkWindow>,
}

/// The streaming ingestion pipeline for one site.
#[derive(Debug)]
pub struct Ingestor {
    config: IngestConfig,
    num_links: usize,
    shards: Vec<Mutex<Shard>>,
    published: Vec<PublishedLink>,
    /// Stream clock: max sample time seen, in microsecond ticks (atomic max).
    clock_us: AtomicU64,
    /// Whether samples advance the clock or only `advance_clock_to` does.
    clock_mode: ClockMode,
    accepted: AtomicU64,
    dropped_late: AtomicU64,
    dropped_unknown: AtomicU64,
    dropped_non_finite: AtomicU64,
    dropped_queue_batches: AtomicU64,
    dropped_queue_samples: AtomicU64,
    assemblies: AtomicU64,
}

fn clock_ticks(t_s: f64) -> u64 {
    // Stream clocks start at 0 in practice; clamp negatives to keep the
    // atomic-max encoding simple.
    (t_s.max(0.0) * 1e6).round() as u64
}

impl Ingestor {
    /// Creates a pipeline for `num_links` links, striped over `shards`
    /// mutexes (clamped to at least 1, at most one per link). The stream
    /// clock is sample-driven (the production default).
    pub fn new(config: IngestConfig, num_links: usize, shards: usize) -> Result<Ingestor> {
        Ingestor::with_clock(config, num_links, shards, ClockMode::SampleDriven)
    }

    /// Creates a pipeline with an explicit [`ClockMode`]. Test harnesses use
    /// [`ClockMode::Manual`] so staleness and late-drop decisions stay
    /// deterministic under injected faults (see [`crate::clock`]).
    pub fn with_clock(
        config: IngestConfig,
        num_links: usize,
        shards: usize,
        clock_mode: ClockMode,
    ) -> Result<Ingestor> {
        config.validate()?;
        if num_links == 0 {
            return Err(IngestError::InvalidConfig {
                field: "num_links",
                reason: "a site has at least one link".into(),
            });
        }
        let nshards = shards.clamp(1, num_links);
        let shards = (0..nshards)
            .map(|s| {
                let owned = (s..num_links).step_by(nshards).count();
                Mutex::new(Shard { windows: (0..owned).map(|_| LinkWindow::new()).collect() })
            })
            .collect();
        Ok(Ingestor {
            config,
            num_links,
            shards,
            published: (0..num_links).map(|_| PublishedLink::default()).collect(),
            clock_us: AtomicU64::new(0),
            clock_mode,
            accepted: AtomicU64::new(0),
            dropped_late: AtomicU64::new(0),
            dropped_unknown: AtomicU64::new(0),
            dropped_non_finite: AtomicU64::new(0),
            dropped_queue_batches: AtomicU64::new(0),
            dropped_queue_samples: AtomicU64::new(0),
            assemblies: AtomicU64::new(0),
        })
    }

    /// The pipeline's link count `M`.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// The configuration in force.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Current stream clock in seconds (`0.0` before any sample).
    pub fn stream_clock_s(&self) -> f64 {
        self.clock_us.load(Ordering::Acquire) as f64 / 1e6
    }

    /// The clock discipline in force.
    pub fn clock_mode(&self) -> ClockMode {
        self.clock_mode
    }

    /// Advances the stream clock to `t_s` (monotone: earlier times are
    /// no-ops). In [`ClockMode::Manual`] this is the *only* way the clock
    /// moves; in [`ClockMode::SampleDriven`] it composes with sample-driven
    /// advancement (useful to deterministically age windows past the stale
    /// horizon when every link has gone quiet).
    pub fn advance_clock_to(&self, t_s: f64) {
        self.advance_clock(t_s);
    }

    fn advance_clock(&self, t_s: f64) {
        self.clock_us.fetch_max(clock_ticks(t_s), Ordering::AcqRel);
    }

    /// Applies one batch of samples synchronously and republishes the
    /// aggregates of every touched link. Returns per-batch accounting.
    pub fn apply_batch(&self, samples: &[LinkSample]) -> BatchReport {
        let mut report = BatchReport::default();
        // Advance the stream clock first so every window in the batch sees
        // the batch's own newest timestamp (late-drop decisions included).
        // Under a manual clock the harness owns "now"; samples don't move it.
        if self.clock_mode == ClockMode::SampleDriven {
            for s in samples {
                if s.is_finite() {
                    self.advance_clock(s.t_s);
                }
            }
        }
        let now = self.stream_clock_s();
        let nshards = self.shards.len();

        // Group by shard, lock each shard once.
        let mut by_shard: Vec<Vec<&LinkSample>> = vec![Vec::new(); nshards];
        for s in samples {
            if !s.is_finite() {
                report.dropped_non_finite += 1;
            } else if s.link >= self.num_links {
                report.dropped_unknown_link += 1;
            } else {
                by_shard[s.link % nshards].push(s);
            }
        }
        for (shard_idx, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut shard = match self.shards[shard_idx].lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let mut touched: Vec<usize> = Vec::new();
            for s in group {
                let w = &mut shard.windows[s.link / nshards];
                if w.push(s, now, &self.config) {
                    report.accepted += 1;
                    if !touched.contains(&s.link) {
                        touched.push(s.link);
                    }
                } else {
                    report.dropped_late += 1;
                }
            }
            // Republish once per touched link, not once per sample.
            for link in touched {
                let w = &mut shard.windows[link / nshards];
                w.evict(now, &self.config);
                let agg = w.aggregate(&self.config).map(Arc::new);
                self.published[link].store(agg);
            }
        }
        self.accepted.fetch_add(report.accepted, Ordering::Relaxed);
        self.dropped_late.fetch_add(report.dropped_late, Ordering::Relaxed);
        self.dropped_unknown.fetch_add(report.dropped_unknown_link, Ordering::Relaxed);
        self.dropped_non_finite.fetch_add(report.dropped_non_finite, Ordering::Relaxed);
        report
    }

    /// Records a batch a producer shed instead of applying (drop accounting
    /// for producer-side backpressure, e.g. a full queue in front of the
    /// pipeline).
    pub fn record_queue_drop(&self, samples: usize) {
        self.dropped_queue_batches.fetch_add(1, Ordering::Relaxed);
        self.dropped_queue_samples.fetch_add(samples as u64, Ordering::Relaxed);
    }

    /// Classifies one published aggregate at stream time `now_s`.
    fn classify(&self, agg: Option<&LinkAggregate>, now_s: f64) -> LinkStatus {
        match agg {
            None => LinkStatus::Dead,
            Some(a) if a.samples < self.config.min_samples => LinkStatus::Dead,
            Some(a) if now_s - a.last_t_s > self.config.stale_after_s => LinkStatus::Stale,
            Some(_) => LinkStatus::Live,
        }
    }

    /// Assembles a complete `M`-vector from the published aggregates.
    ///
    /// Links without a usable aggregate take their value from `fallback`
    /// (typically the site's empty-room baseline — the maximum-entropy guess
    /// "nobody is shadowing this link") and are flagged [`LinkFlag::Imputed`];
    /// quiet links keep their last aggregate and are flagged
    /// [`LinkFlag::Stale`]. The result never contains NaN.
    pub fn assemble(&self, fallback: &[f64]) -> Result<AssembledVector> {
        if fallback.len() != self.num_links {
            return Err(IngestError::FallbackLength {
                expected: self.num_links,
                actual: fallback.len(),
            });
        }
        let now = self.stream_clock_s();
        let mut y = Vec::with_capacity(self.num_links);
        let mut flags = Vec::with_capacity(self.num_links);
        let mut missing = Vec::new();
        let mut stale = Vec::new();
        let mut latest: Option<f64> = None;
        let mut window_samples = 0usize;
        for (link, &fb) in fallback.iter().enumerate() {
            let agg = self.published[link].load();
            match self.classify(agg.as_deref(), now) {
                LinkStatus::Dead => {
                    y.push(fb);
                    flags.push(LinkFlag::Imputed);
                    missing.push(link);
                }
                status => {
                    let a = agg.expect("live/stale links have an aggregate");
                    y.push(a.rss_dbm);
                    window_samples += a.samples;
                    latest = Some(latest.map_or(a.last_t_s, |t: f64| t.max(a.last_t_s)));
                    if status == LinkStatus::Stale {
                        flags.push(LinkFlag::Stale);
                        stale.push(link);
                    } else {
                        flags.push(LinkFlag::Live);
                    }
                }
            }
        }
        self.assemblies.fetch_add(1, Ordering::Relaxed);
        Ok(AssembledVector { y, flags, missing, stale, latest_t_s: latest, window_samples })
    }

    /// Current per-link health, indexed by link id.
    ///
    /// The same classification [`stats`](Ingestor::stats) aggregates into
    /// counts, exposed per link so a measurement planner can exclude dead
    /// links from the re-survey budget and deprioritize stale ones.
    pub fn link_statuses(&self) -> Vec<LinkStatus> {
        let now = self.stream_clock_s();
        (0..self.num_links)
            .map(|link| {
                let agg = self.published[link].load();
                self.classify(agg.as_deref(), now)
            })
            .collect()
    }

    /// Cumulative counters plus a current link-health census.
    pub fn stats(&self) -> IngestStats {
        let now = self.stream_clock_s();
        let (mut live, mut stale, mut dead) = (0usize, 0usize, 0usize);
        let mut rejected = 0u64;
        for link in 0..self.num_links {
            let agg = self.published[link].load();
            match self.classify(agg.as_deref(), now) {
                LinkStatus::Live => live += 1,
                LinkStatus::Stale => stale += 1,
                LinkStatus::Dead => dead += 1,
            }
        }
        let mut flaps = 0u64;
        for shard in &self.shards {
            let s = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for w in &s.windows {
                rejected += w.rejected_total();
                flaps += w.flaps();
            }
        }
        IngestStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            dropped_late: self.dropped_late.load(Ordering::Relaxed),
            dropped_unknown_link: self.dropped_unknown.load(Ordering::Relaxed),
            dropped_non_finite: self.dropped_non_finite.load(Ordering::Relaxed),
            dropped_queue_batches: self.dropped_queue_batches.load(Ordering::Relaxed),
            dropped_queue_samples: self.dropped_queue_samples.load(Ordering::Relaxed),
            rejected_outliers: rejected,
            link_flaps: flaps,
            live_links: live,
            stale_links: stale,
            dead_links: dead,
            assemblies: self.assemblies.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> IngestConfig {
        IngestConfig { window_s: 10.0, stale_after_s: 3.0, min_samples: 2, ..Default::default() }
    }

    fn batch_for(link: usize, t0: f64, n: usize, rss: f64) -> Vec<LinkSample> {
        (0..n).map(|k| LinkSample::new(link, t0 + k as f64 * 0.5, rss)).collect()
    }

    #[test]
    fn accepted_samples_produce_a_live_vector() {
        let ing = Ingestor::new(cfg(), 3, 2).unwrap();
        for link in 0..3 {
            let report = ing.apply_batch(&batch_for(link, 0.0, 5, -50.0 - link as f64));
            assert_eq!(report.accepted, 5);
            assert_eq!(report.total(), 5);
        }
        let v = ing.assemble(&[-40.0; 3]).unwrap();
        assert!(v.is_complete());
        assert_eq!(v.flags, vec![LinkFlag::Live; 3]);
        assert_eq!(v.y, vec![-50.0, -51.0, -52.0]);
        assert_eq!(v.window_samples, 15);
        assert_eq!(v.latest_t_s, Some(2.0));
    }

    #[test]
    fn dead_link_is_imputed_and_flagged() {
        let ing = Ingestor::new(cfg(), 3, 1).unwrap();
        ing.apply_batch(&batch_for(0, 0.0, 5, -50.0));
        ing.apply_batch(&batch_for(2, 0.0, 5, -52.0));
        let v = ing.assemble(&[-40.0, -41.0, -42.0]).unwrap();
        assert_eq!(v.missing, vec![1]);
        assert_eq!(v.flags[1], LinkFlag::Imputed);
        assert_eq!(v.y[1], -41.0);
        assert!(v.y.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn quiet_link_turns_stale_then_value_is_retained() {
        let ing = Ingestor::new(cfg(), 2, 2).unwrap();
        ing.apply_batch(&batch_for(0, 0.0, 5, -50.0));
        ing.apply_batch(&batch_for(1, 0.0, 5, -60.0));
        // Advance the stream clock via link 0 only; link 1 goes quiet.
        ing.apply_batch(&batch_for(0, 6.0, 4, -50.0));
        let v = ing.assemble(&[-40.0; 2]).unwrap();
        assert_eq!(v.stale, vec![1]);
        assert_eq!(v.flags[1], LinkFlag::Stale);
        assert_eq!(v.y[1], -60.0, "stale links keep their last aggregate");
        let stats = ing.stats();
        assert_eq!(stats.live_links, 1);
        assert_eq!(stats.stale_links, 1);
    }

    #[test]
    fn link_statuses_mirror_the_stats_census() {
        let ing = Ingestor::new(cfg(), 3, 2).unwrap();
        ing.apply_batch(&batch_for(0, 0.0, 5, -50.0));
        ing.apply_batch(&batch_for(1, 0.0, 5, -60.0));
        // Advance the stream clock via link 0 only; link 1 goes quiet and
        // link 2 never reports.
        ing.apply_batch(&batch_for(0, 6.0, 4, -50.0));
        let statuses = ing.link_statuses();
        assert_eq!(statuses, vec![LinkStatus::Live, LinkStatus::Stale, LinkStatus::Dead]);
        let stats = ing.stats();
        assert_eq!(stats.live_links, 1);
        assert_eq!(stats.stale_links, 1);
        assert_eq!(stats.dead_links, 1);
    }

    #[test]
    fn unknown_and_non_finite_samples_are_dropped_and_counted() {
        let ing = Ingestor::new(cfg(), 2, 1).unwrap();
        let report = ing.apply_batch(&[
            LinkSample::new(0, 1.0, -50.0),
            LinkSample::new(7, 1.0, -50.0),
            LinkSample::new(1, f64::NAN, -50.0),
            LinkSample::new(1, 1.0, f64::NAN),
        ]);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.dropped_unknown_link, 1);
        assert_eq!(report.dropped_non_finite, 2);
        let stats = ing.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.dropped_unknown_link, 1);
        assert_eq!(stats.dropped_non_finite, 2);
    }

    #[test]
    fn queue_drops_are_counted_not_applied() {
        let ing = Ingestor::new(cfg(), 2, 1).unwrap();
        ing.apply_batch(&batch_for(0, 0.0, 3, -50.0));
        ing.record_queue_drop(5);
        ing.record_queue_drop(2);
        let stats = ing.stats();
        assert_eq!(stats.dropped_queue_batches, 2);
        assert_eq!(stats.dropped_queue_samples, 7);
        assert_eq!(stats.accepted, 3, "shed samples never reach the windows");
        assert_eq!(stats.dropped_late + stats.dropped_unknown_link + stats.dropped_non_finite, 0);
    }

    #[test]
    fn late_samples_are_dropped_after_the_clock_advances() {
        let ing = Ingestor::new(cfg(), 1, 1).unwrap();
        ing.apply_batch(&batch_for(0, 100.0, 3, -50.0));
        let report = ing.apply_batch(&[LinkSample::new(0, 1.0, -99.0)]);
        assert_eq!(report.dropped_late, 1);
        let v = ing.assemble(&[-40.0]).unwrap();
        assert_eq!(v.y[0], -50.0, "the late straggler must not poison the aggregate");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let ing =
            Arc::new(Ingestor::new(IngestConfig { window_capacity: 4096, ..cfg() }, 8, 4).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|link| {
                let ing = Arc::clone(&ing);
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let batch = batch_for(link, round as f64 * 0.1, 10, -50.0);
                        ing.apply_batch(&batch);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ing.stats().accepted, 8 * 50 * 10);
        let v = ing.assemble(&[-40.0; 8]).unwrap();
        assert!(v.is_complete());
    }

    #[test]
    fn manual_clock_only_moves_on_explicit_advance() {
        let ing = Ingestor::with_clock(cfg(), 2, 1, ClockMode::Manual).unwrap();
        assert_eq!(ing.clock_mode(), ClockMode::Manual);
        let report = ing.apply_batch(&batch_for(0, 50.0, 3, -50.0));
        assert_eq!(report.accepted, 3);
        assert_eq!(ing.stream_clock_s(), 0.0, "samples must not move a manual clock");
        ing.advance_clock_to(10.0);
        assert_eq!(ing.stream_clock_s(), 10.0);
        ing.advance_clock_to(5.0);
        assert_eq!(ing.stream_clock_s(), 10.0, "the clock is monotone");
    }

    #[test]
    fn manual_clock_forces_staleness_without_new_samples() {
        let ing = Ingestor::with_clock(cfg(), 1, 1, ClockMode::Manual).unwrap();
        ing.apply_batch(&batch_for(0, 0.0, 3, -50.0));
        assert!(ing.assemble(&[-40.0]).unwrap().is_complete());
        // A total outage: no samples arrive, but scenario time moves on.
        ing.advance_clock_to(8.0);
        let v = ing.assemble(&[-40.0]).unwrap();
        assert_eq!(v.stale, vec![0], "aging past stale_after_s must flag the link");
    }

    #[test]
    fn sample_driven_clock_composes_with_manual_advance() {
        let ing = Ingestor::new(cfg(), 1, 1).unwrap();
        ing.apply_batch(&batch_for(0, 0.0, 3, -50.0));
        assert_eq!(ing.stream_clock_s(), 1.0);
        ing.advance_clock_to(6.0);
        assert_eq!(ing.stream_clock_s(), 6.0);
    }

    #[test]
    fn assemble_rejects_wrong_fallback_length() {
        let ing = Ingestor::new(cfg(), 4, 2).unwrap();
        assert!(matches!(
            ing.assemble(&[-40.0; 3]),
            Err(IngestError::FallbackLength { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn zero_links_rejected() {
        assert!(Ingestor::new(cfg(), 0, 2).is_err());
    }
}
