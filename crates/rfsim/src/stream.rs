//! Raw per-link sample streams: what radios actually emit.
//!
//! The campaigns in [`crate::campaign`] return *averaged* fingerprint vectors —
//! the idealized input the paper's algorithms consume. Real deployments never
//! see that directly: each link reports individual RSS samples at some rate,
//! timestamps jitter, packets are lost, and delivery order is only
//! approximately chronological. This module simulates that raw layer so the
//! ingestion pipeline (`tafloc-ingest`) can be exercised end to end: a stream
//! here, windowed and aggregated there, should reproduce what
//! [`crate::campaign::snapshot_at_cell`] hands the localizer directly. A
//! stream is a list of the pipeline's own [`LinkSample`]s, so it feeds the
//! pipeline, the daemon's `ingest` request and the CLI's stream file as is.
//!
//! Streams are deterministic given `(world seed, stream seed, kind)` — the same
//! discipline as campaigns — so tests and benches are replayable.

use crate::geometry::Point;
use crate::rng::hash_u64;
use crate::world::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tafloc_ingest::LinkSample;

/// Campaign-kind key for stream RNG separation (campaigns use 0x01–0x03).
const KIND_STREAM: u64 = 0x04;

/// Shape of a simulated raw sample stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Per-link sampling rate (Hz). The paper's testbed reports ~1 Hz.
    pub rate_hz: f64,
    /// Stream length in seconds; each link nominally emits
    /// `duration_s * rate_hz` samples.
    pub duration_s: f64,
    /// Timestamp jitter as a fraction of the sample period: each timestamp is
    /// perturbed by up to `±jitter_frac/2` periods around its nominal tick.
    pub jitter_frac: f64,
    /// Independent per-sample loss probability in `[0, 1)`.
    pub loss_rate: f64,
    /// Probability of swapping each adjacent pair in the delivered stream,
    /// simulating mild network reordering.
    pub reorder_prob: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            rate_hz: 1.0,
            duration_s: 60.0,
            jitter_frac: 0.05,
            loss_rate: 0.0,
            reorder_prob: 0.0,
        }
    }
}

impl StreamConfig {
    /// Panics on out-of-range parameters. Called by every stream generator;
    /// public so scenario definitions (taf-testkit) can fail fast too.
    pub fn assert_valid(&self) {
        assert!(self.rate_hz > 0.0 && self.rate_hz.is_finite(), "rate_hz must be positive");
        assert!(
            self.duration_s > 0.0 && self.duration_s.is_finite(),
            "duration_s must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.jitter_frac),
            "jitter_frac must be in [0, 1], got {}",
            self.jitter_frac
        );
        assert!(
            (0.0..1.0).contains(&self.loss_rate),
            "loss_rate must be in [0, 1), got {}",
            self.loss_rate
        );
        assert!(
            (0.0..=1.0).contains(&self.reorder_prob),
            "reorder_prob must be in [0, 1], got {}",
            self.reorder_prob
        );
    }

    /// Nominal number of samples each link emits before loss.
    pub fn samples_per_link(&self) -> usize {
        ((self.duration_s * self.rate_hz).round() as usize).max(1)
    }
}

fn stream_rng(world: &World, t_days: f64, stream_seed: u64, link: u64) -> StdRng {
    let t_key = (t_days * 1000.0).round() as i64 as u64;
    StdRng::seed_from_u64(hash_u64(
        world.seed() ^ KIND_STREAM.wrapping_mul(0x9E37_79B9),
        t_key,
        stream_seed.wrapping_mul(0x517C_C1B7_2722_0A95) ^ link,
    ))
}

/// Simulates the raw sample stream for a stationary scene at `t_days`:
/// `target = Some(p)` for a person standing at `p`, `None` for the empty room.
///
/// Every link samples at `config.rate_hz` for `config.duration_s` seconds;
/// timestamps jitter around nominal ticks, samples are lost independently, and
/// the merged stream is delivered in near-chronological order with optional
/// adjacent swaps. Deterministic in all arguments.
pub fn sample_stream(
    world: &World,
    t_days: f64,
    target: Option<&Point>,
    config: &StreamConfig,
    stream_seed: u64,
) -> Vec<LinkSample> {
    config.assert_valid();
    let noise = world.config().noise;
    let dt = 1.0 / config.rate_hz;
    let per_link = config.samples_per_link();
    let mut out: Vec<LinkSample> = Vec::with_capacity(per_link * world.num_links());
    for link in 0..world.num_links() {
        let mut rng = stream_rng(world, t_days, stream_seed, link as u64);
        let truth = match target {
            Some(p) => world.rss_with_target_at(link, p, t_days),
            None => world.empty_rss(link, t_days),
        };
        for k in 0..per_link {
            // Draw per-sample randomness unconditionally so the kept samples'
            // values do not depend on which other samples were lost.
            let jitter = (rng.random::<f64>() - 0.5) * config.jitter_frac * dt;
            let rss = noise.observe(truth, &mut rng);
            let lost = rng.random::<f64>() < config.loss_rate;
            if lost {
                continue;
            }
            let t_s = (k as f64 * dt + jitter).max(0.0);
            out.push(LinkSample::new(link, t_s, rss));
        }
    }
    // Radios interleave: deliver globally by timestamp, then perturb with
    // adjacent swaps to model mild transport reordering.
    out.sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.link.cmp(&b.link)));
    if config.reorder_prob > 0.0 {
        let mut rng = stream_rng(world, t_days, stream_seed, u64::MAX);
        for i in 1..out.len() {
            if rng.random::<f64>() < config.reorder_prob {
                out.swap(i - 1, i);
            }
        }
    }
    out
}

/// Stream with the target standing at the center of `cell` — the raw-layer
/// analogue of [`crate::campaign::snapshot_at_cell`].
pub fn stream_at_cell(
    world: &World,
    t_days: f64,
    cell: usize,
    config: &StreamConfig,
    stream_seed: u64,
) -> Vec<LinkSample> {
    assert!(cell < world.num_cells(), "cell {cell} out of range");
    let p = world.grid().cell_center(cell);
    sample_stream(world, t_days, Some(&p), config, stream_seed)
}

/// Stream of the empty room — the raw-layer analogue of
/// [`crate::campaign::empty_snapshot`].
pub fn empty_stream(
    world: &World,
    t_days: f64,
    config: &StreamConfig,
    stream_seed: u64,
) -> Vec<LinkSample> {
    sample_stream(world, t_days, None, config, stream_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn world() -> World {
        World::new(WorldConfig::small_test(), 7)
    }

    fn cfg() -> StreamConfig {
        StreamConfig { duration_s: 30.0, ..Default::default() }
    }

    #[test]
    fn stream_is_deterministic() {
        let w = world();
        let a = stream_at_cell(&w, 3.0, 2, &cfg(), 11);
        let b = stream_at_cell(&w, 3.0, 2, &cfg(), 11);
        assert_eq!(a, b);
        let c = stream_at_cell(&w, 3.0, 2, &cfg(), 12);
        assert_ne!(a, c, "different stream seeds must differ");
    }

    #[test]
    fn lossless_stream_has_full_count_per_link() {
        let w = world();
        let s = empty_stream(&w, 0.0, &cfg(), 1);
        let per_link = cfg().samples_per_link();
        assert_eq!(s.len(), per_link * w.num_links());
        for link in 0..w.num_links() {
            let n = s.iter().filter(|r| r.link == link).count();
            assert_eq!(n, per_link, "link {link}");
        }
    }

    #[test]
    fn timestamps_are_bounded_and_near_sorted() {
        let c = cfg();
        let s = empty_stream(&world(), 0.0, &c, 2);
        for r in &s {
            assert!(r.t_s >= 0.0 && r.t_s <= c.duration_s + 1.0 / c.rate_hz, "t = {}", r.t_s);
            assert!(r.rss_dbm.is_finite());
        }
        let sorted = s.windows(2).all(|w| w[0].t_s <= w[1].t_s);
        assert!(sorted, "zero reorder_prob must deliver in timestamp order");
    }

    #[test]
    fn loss_rate_thins_the_stream() {
        let w = world();
        let c = StreamConfig { loss_rate: 0.3, duration_s: 120.0, ..Default::default() };
        let s = empty_stream(&w, 0.0, &c, 3);
        let expected = (c.samples_per_link() * w.num_links()) as f64 * 0.7;
        let got = s.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "kept {got} samples, expected about {expected}"
        );
        assert!(!s.is_empty());
    }

    #[test]
    fn loss_does_not_change_surviving_values() {
        // Same seed with and without loss: the kept samples must be a
        // subsequence of the lossless stream (loss draws are independent).
        let w = world();
        let lossless = empty_stream(&w, 0.0, &cfg(), 4);
        let lossy = empty_stream(&w, 0.0, &StreamConfig { loss_rate: 0.4, ..cfg() }, 4);
        let mut it = lossless.iter();
        for kept in &lossy {
            assert!(
                it.any(|r| r == kept),
                "lossy sample {kept:?} not found in order in the lossless stream"
            );
        }
    }

    #[test]
    fn reordering_perturbs_but_preserves_multiset() {
        let w = world();
        let base = empty_stream(&w, 0.0, &cfg(), 5);
        let shuffled = empty_stream(&w, 0.0, &StreamConfig { reorder_prob: 0.5, ..cfg() }, 5);
        assert_eq!(base.len(), shuffled.len());
        let mut a = base.clone();
        let mut b = shuffled.clone();
        let key = |r: &LinkSample| (r.link, r.t_s.to_bits(), r.rss_dbm.to_bits());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "reordering must not add, drop or alter samples");
        assert_ne!(base, shuffled, "with prob 0.5 some pair must have swapped");
    }

    #[test]
    fn target_presence_changes_the_stream() {
        let w = world();
        let empty = empty_stream(&w, 0.0, &cfg(), 6);
        let occupied = stream_at_cell(&w, 0.0, 0, &cfg(), 6);
        assert_eq!(empty.len(), occupied.len());
        assert_ne!(empty, occupied);
    }

    #[test]
    #[should_panic(expected = "loss_rate")]
    fn full_loss_is_rejected() {
        empty_stream(&world(), 0.0, &StreamConfig { loss_rate: 1.0, ..cfg() }, 0);
    }
}
