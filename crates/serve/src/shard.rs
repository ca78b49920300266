//! Worker shards: consistent-hash site ownership plus credit-based
//! admission control.
//!
//! A single [`crate::registry::Registry`] with one maintenance thread
//! serializes background work for every site in the daemon, and the ingest
//! path accepts unbounded concurrent work per site. This module splits the
//! serving plane into N **shards**:
//!
//! * [`ShardRing`] — a seeded jump-consistent-hash ring (Lamping–Veach)
//!   mapping site names to shard indices. Assignment is a pure function of
//!   `(seed, name, shard_count)`, so a restarted daemon re-shards
//!   *identically* by construction — no assignment table is persisted, and
//!   none is needed. Growing the ring from N to N+1 shards moves only ~K/N
//!   of K keys, and every moved key lands on the new shard.
//! * [`ShardSet`] — N shards, each owning its sites' snapshots in a private
//!   [`Registry`] with its own maintenance scheduler, plus a per-shard
//!   [`AdmissionGate`].
//! * [`AdmissionGate`] — credit-based backpressure for ingest: admission
//!   reserves sample credits against a per-site quota and a per-shard
//!   budget, *blocking up to a deadline* when credits are short instead of
//!   silently shedding. Past the deadline the offer is **deferred** (client
//!   told to retry) and a batch that can never fit is **rejected** — both
//!   surfaced as explicit overload frames on the wire and conserved in the
//!   counters: `admitted + deferred + rejected == offered`.

use crate::registry::Registry;
use crate::site::Site;
use crate::Result;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default ring seed. Changing the seed re-shuffles site ownership, so a
/// persistent deployment must keep it stable across restarts; the default is
/// compiled in and used everywhere unless a config overrides it.
pub const DEFAULT_SHARD_SEED: u64 = 0x7461_666c_6f63_5f38; // "tafloc_8"

/// Default per-site in-flight ingest quota (samples). Generous: plain
/// unsharded deployments should never notice the gate.
pub const DEFAULT_MAX_INFLIGHT_PER_SITE: usize = 1 << 16;

/// How long an ingest admission blocks waiting for credits before the offer
/// is deferred back to the client.
pub const DEFAULT_ADMIT_DEADLINE: Duration = Duration::from_millis(25);

/// 64-bit FNV-1a over the seed (little-endian) then the key bytes.
fn seeded_fnv1a64(seed: u64, key: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in seed.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    for b in key.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(PRIME);
    }
    h
}

/// Lamping–Veach jump consistent hash: maps a key hash to one of `buckets`
/// buckets such that growing the bucket count only ever moves keys *onto the
/// new bucket*, never between old ones.
fn jump_hash(mut key: u64, buckets: usize) -> usize {
    debug_assert!(buckets >= 1);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < buckets as i64 {
        b = j;
        key = key.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(1);
        j = (((b + 1) as f64) * ((1i64 << 31) as f64 / (((key >> 33) + 1) as f64))) as i64;
    }
    b as usize
}

/// A deterministic, seeded consistent-hash ring over N shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRing {
    shards: usize,
    seed: u64,
}

impl ShardRing {
    /// A ring over `shards` shards (clamped to at least 1) with the given
    /// seed.
    pub fn new(shards: usize, seed: u64) -> ShardRing {
        ShardRing { shards: shards.max(1), seed }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The ring seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `key`. Pure: same seed + same shard count → same
    /// answer, in this process or the next.
    pub fn shard_of(&self, key: &str) -> usize {
        jump_hash(seeded_fnv1a64(self.seed, key), self.shards)
    }
}

/// Verdict from [`AdmissionGate::admit`] / [`ShardSet::admit`].
#[derive(Debug)]
pub enum Admit<'a> {
    /// Credits reserved; dropping the permit releases them.
    Granted(AdmitPermit<'a>),
    /// Credits were short for the whole deadline; the client should retry
    /// after the hint.
    Deferred {
        /// Shard that deferred the work.
        shard: usize,
        /// Suggested client back-off (ms).
        retry_after_ms: u64,
    },
    /// The batch can never be admitted (exceeds the per-site quota or the
    /// shard budget outright).
    Rejected {
        /// Shard that rejected the work.
        shard: usize,
    },
}

/// RAII credit reservation: holds `samples` credits against one site on one
/// gate until dropped.
#[derive(Debug)]
pub struct AdmitPermit<'a> {
    gate: &'a AdmissionGate,
    site: String,
    samples: usize,
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(&self.site, self.samples);
    }
}

/// Admission-control limits for one shard's gate.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// In-flight sample quota per site.
    pub max_inflight_per_site: usize,
    /// In-flight sample budget for the whole shard.
    pub max_inflight_per_shard: usize,
    /// How long `admit` blocks for credits before deferring.
    pub admit_deadline: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_inflight_per_site: DEFAULT_MAX_INFLIGHT_PER_SITE,
            max_inflight_per_shard: DEFAULT_MAX_INFLIGHT_PER_SITE * 4,
            admit_deadline: DEFAULT_ADMIT_DEADLINE,
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    in_flight_total: usize,
    in_flight_by_site: HashMap<String, usize>,
}

#[derive(Debug, Default)]
struct GateCounters {
    offered_batches: AtomicU64,
    offered_samples: AtomicU64,
    admitted_batches: AtomicU64,
    admitted_samples: AtomicU64,
    deferred_batches: AtomicU64,
    deferred_samples: AtomicU64,
    rejected_batches: AtomicU64,
    rejected_samples: AtomicU64,
}

/// Per-shard credit gate: bounds in-flight ingest samples per site and per
/// shard, blocking admissions up to a deadline before deferring.
#[derive(Debug)]
pub struct AdmissionGate {
    shard: usize,
    config: AdmissionConfig,
    state: Mutex<GateState>,
    freed: Condvar,
    counters: GateCounters,
}

impl AdmissionGate {
    /// A gate for shard index `shard` with the given limits (both caps
    /// clamped to at least 1 sample).
    pub fn new(shard: usize, mut config: AdmissionConfig) -> AdmissionGate {
        config.max_inflight_per_site = config.max_inflight_per_site.max(1);
        config.max_inflight_per_shard = config.max_inflight_per_shard.max(1);
        AdmissionGate {
            shard,
            config,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            counters: GateCounters::default(),
        }
    }

    /// Offers `samples` credits' worth of work for `site`, blocking up to the
    /// configured deadline. Every call gets exactly one conserved verdict.
    pub fn admit(&self, site: &str, samples: usize) -> Admit<'_> {
        self.counters.offered_batches.fetch_add(1, Ordering::Relaxed);
        self.counters.offered_samples.fetch_add(samples as u64, Ordering::Relaxed);
        if samples > self.config.max_inflight_per_site
            || samples > self.config.max_inflight_per_shard
        {
            // Larger than a whole quota: waiting can never help.
            self.counters.rejected_batches.fetch_add(1, Ordering::Relaxed);
            self.counters.rejected_samples.fetch_add(samples as u64, Ordering::Relaxed);
            return Admit::Rejected { shard: self.shard };
        }
        let deadline = self.config.admit_deadline;
        let start = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let site_load = st.in_flight_by_site.get(site).copied().unwrap_or(0);
            if st.in_flight_total + samples <= self.config.max_inflight_per_shard
                && site_load + samples <= self.config.max_inflight_per_site
            {
                st.in_flight_total += samples;
                *st.in_flight_by_site.entry(site.to_string()).or_insert(0) += samples;
                self.counters.admitted_batches.fetch_add(1, Ordering::Relaxed);
                self.counters.admitted_samples.fetch_add(samples as u64, Ordering::Relaxed);
                return Admit::Granted(AdmitPermit { gate: self, site: site.to_string(), samples });
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                drop(st);
                self.counters.deferred_batches.fetch_add(1, Ordering::Relaxed);
                self.counters.deferred_samples.fetch_add(samples as u64, Ordering::Relaxed);
                return Admit::Deferred {
                    shard: self.shard,
                    retry_after_ms: (deadline.as_millis() as u64).max(1),
                };
            }
            let (guard, _) =
                self.freed.wait_timeout(st, deadline - elapsed).unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    fn release(&self, site: &str, samples: usize) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.in_flight_total = st.in_flight_total.saturating_sub(samples);
        if let Some(load) = st.in_flight_by_site.get_mut(site) {
            *load = load.saturating_sub(samples);
            if *load == 0 {
                st.in_flight_by_site.remove(site);
            }
        }
        drop(st);
        self.freed.notify_all();
    }

    /// Samples currently holding credits on this shard.
    pub fn depth_samples(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).in_flight_total
    }

    /// Fills a wire-level stats record for this gate (`sites` is supplied by
    /// the caller, which owns the registry).
    pub fn stats(&self, sites: usize) -> crate::protocol::ShardStats {
        crate::protocol::ShardStats {
            shard: self.shard,
            sites,
            queue_depth_samples: self.depth_samples() as u64,
            offered_batches: self.counters.offered_batches.load(Ordering::Relaxed),
            offered_samples: self.counters.offered_samples.load(Ordering::Relaxed),
            admitted_batches: self.counters.admitted_batches.load(Ordering::Relaxed),
            admitted_samples: self.counters.admitted_samples.load(Ordering::Relaxed),
            deferred_batches: self.counters.deferred_batches.load(Ordering::Relaxed),
            deferred_samples: self.counters.deferred_samples.load(Ordering::Relaxed),
            rejected_batches: self.counters.rejected_batches.load(Ordering::Relaxed),
            rejected_samples: self.counters.rejected_samples.load(Ordering::Relaxed),
        }
    }
}

/// Construction parameters for a [`ShardSet`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of worker shards (clamped to at least 1).
    pub shards: usize,
    /// Ring seed; must be stable across restarts of a persistent deployment.
    pub seed: u64,
    /// Admission limits applied to every shard's gate.
    pub admission: AdmissionConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, seed: DEFAULT_SHARD_SEED, admission: AdmissionConfig::default() }
    }
}

#[derive(Debug)]
struct WorkerShard {
    registry: Registry,
    gate: AdmissionGate,
}

/// N worker shards behind a consistent-hash ring. Presents the same
/// `add`/`get`/`remove`/`list` surface as a single [`Registry`], so request
/// dispatch is oblivious to the shard count.
#[derive(Debug)]
pub struct ShardSet {
    ring: ShardRing,
    shards: Vec<WorkerShard>,
}

impl ShardSet {
    /// Builds the shard set: each shard gets its own registry (with its own
    /// maintenance scheduler) and its own admission gate.
    pub fn new(config: ShardConfig) -> ShardSet {
        let n = config.shards.max(1);
        let shards = (0..n)
            .map(|i| WorkerShard {
                registry: Registry::new(),
                gate: AdmissionGate::new(i, config.admission),
            })
            .collect();
        ShardSet { ring: ShardRing::new(n, config.seed), shards }
    }

    /// The ring (for clients that want to predict ownership).
    pub fn ring(&self) -> ShardRing {
        self.ring
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `site`.
    pub fn shard_of(&self, site: &str) -> usize {
        self.ring.shard_of(site)
    }

    /// Registers `site` on its owning shard.
    pub fn add(&self, site: Site) -> Result<std::sync::Arc<Site>> {
        self.shards[self.ring.shard_of(site.name())].registry.add(site)
    }

    /// Looks a site up on its owning shard.
    pub fn get(&self, name: &str) -> Result<std::sync::Arc<Site>> {
        self.shards[self.ring.shard_of(name)].registry.get(name)
    }

    /// Unregisters a site from its owning shard.
    pub fn remove(&self, name: &str) -> Result<std::sync::Arc<Site>> {
        self.shards[self.ring.shard_of(name)].registry.remove(name)
    }

    /// All sites across all shards, name-sorted.
    pub fn list(&self) -> Vec<std::sync::Arc<Site>> {
        let mut sites: Vec<std::sync::Arc<Site>> =
            self.shards.iter().flat_map(|s| s.registry.list()).collect();
        sites.sort_by(|a, b| a.name().cmp(b.name()));
        sites
    }

    /// Offers `samples` ingest credits for `site` on its owning shard.
    pub fn admit(&self, site: &str, samples: usize) -> Admit<'_> {
        self.shards[self.ring.shard_of(site)].gate.admit(site, samples)
    }

    /// Per-shard admission/queue stats, shard-ordered.
    pub fn shard_stats(&self) -> Vec<crate::protocol::ShardStats> {
        self.shards.iter().map(|s| s.gate.stats(s.registry.list().len())).collect()
    }

    /// Per-site stats with each site's owning shard filled in, name-sorted.
    pub fn site_stats(&self) -> Vec<crate::protocol::SiteStats> {
        let mut out: Vec<crate::protocol::SiteStats> = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            for site in shard.registry.list() {
                let mut st = site.stats();
                st.shard = idx;
                out.push(st);
            }
        }
        out.sort_by(|a, b| a.site.cmp(&b.site));
        out
    }

    /// Stops maintenance on every shard (server shutdown).
    pub fn stop_maintenance(&self) {
        for shard in &self.shards {
            shard.registry.stop_maintenance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_and_zero_quotas_are_clamped_to_one() {
        let ring = ShardRing::new(0, 7);
        assert_eq!(ring.shards(), 1);
        assert!(["a", "b", "site-42"].iter().all(|k| ring.shard_of(k) == 0));
        let config = AdmissionConfig {
            max_inflight_per_site: 0,
            max_inflight_per_shard: 0,
            admit_deadline: Duration::ZERO,
        };
        let gate = AdmissionGate::new(3, config);
        assert!(matches!(gate.admit("a", 2), Admit::Rejected { shard: 3 }));
        assert!(matches!(gate.admit("a", 1), Admit::Granted(_)));
    }

    #[test]
    fn a_waiting_batch_is_granted_when_a_permit_drops() {
        let config = AdmissionConfig {
            max_inflight_per_site: 8,
            max_inflight_per_shard: 8,
            admit_deadline: Duration::from_secs(30),
        };
        let gate = AdmissionGate::new(0, config);
        let held = gate.admit("a", 8);
        assert!(matches!(held, Admit::Granted(_)));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| matches!(gate.admit("a", 4), Admit::Granted(_)));
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            assert!(waiter.join().unwrap(), "the freed credits must wake the waiter");
        });
        let st = gate.stats(1);
        assert_eq!((st.admitted_batches, st.deferred_batches), (2, 0));
        assert_eq!(gate.depth_samples(), 0);
    }

    #[test]
    fn ring_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 7, 16] {
            let a = ShardRing::new(shards, DEFAULT_SHARD_SEED);
            let b = ShardRing::new(shards, DEFAULT_SHARD_SEED);
            for i in 0..500 {
                let key = format!("site-{i}");
                let s = a.shard_of(&key);
                assert!(s < shards);
                assert_eq!(s, b.shard_of(&key), "same seed, same count, same answer");
            }
        }
    }

    #[test]
    fn ring_resize_only_moves_keys_onto_the_new_shard() {
        let keys: Vec<String> = (0..2000).map(|i| format!("site-{i}")).collect();
        for n in 1usize..12 {
            let old = ShardRing::new(n, DEFAULT_SHARD_SEED);
            let new = ShardRing::new(n + 1, DEFAULT_SHARD_SEED);
            let mut moved = 0usize;
            for k in &keys {
                let (a, b) = (old.shard_of(k), new.shard_of(k));
                if a != b {
                    assert_eq!(b, n, "a moved key must land on the new shard");
                    moved += 1;
                }
            }
            // Expectation is K/(N+1); allow 2x plus slack against hash noise.
            let bound = 2 * keys.len() / (n + 1) + 16;
            assert!(moved <= bound, "moved {moved} of {} keys at N={n}, bound {bound}", keys.len());
            assert!(moved > 0, "growing the ring must hand the new shard some keys");
        }
    }

    #[test]
    fn ring_spreads_keys_reasonably() {
        let ring = ShardRing::new(4, DEFAULT_SHARD_SEED);
        let mut per = [0usize; 4];
        for i in 0..4000 {
            per[ring.shard_of(&format!("site-{i}"))] += 1;
        }
        for (i, &count) in per.iter().enumerate() {
            assert!(
                (500..=1500).contains(&count),
                "shard {i} owns {count} of 4000 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn different_seeds_shuffle_ownership() {
        let a = ShardRing::new(8, 1);
        let b = ShardRing::new(8, 2);
        let diffs = (0..500)
            .filter(|i| {
                let k = format!("site-{i}");
                a.shard_of(&k) != b.shard_of(&k)
            })
            .count();
        assert!(diffs > 100, "seeds barely change the mapping ({diffs}/500 keys moved)");
    }

    #[test]
    fn gate_conserves_verdicts_and_releases_credits() {
        let gate = AdmissionGate::new(
            0,
            AdmissionConfig {
                max_inflight_per_site: 10,
                max_inflight_per_shard: 10,
                admit_deadline: Duration::ZERO,
            },
        );
        // Fits: granted, and the permit holds the credits...
        let p1 = match gate.admit("a", 8) {
            Admit::Granted(p) => p,
            other => panic!("expected grant, got {other:?}"),
        };
        assert_eq!(gate.depth_samples(), 8);
        // ...so a second offer past the budget defers (deadline zero)...
        assert!(matches!(gate.admit("a", 8), Admit::Deferred { .. }));
        // ...and an offer that could never fit rejects immediately.
        assert!(matches!(gate.admit("a", 11), Admit::Rejected { .. }));
        drop(p1);
        assert_eq!(gate.depth_samples(), 0);
        assert!(matches!(gate.admit("a", 8), Admit::Granted(_)));
        let st = gate.stats(1);
        assert_eq!(st.offered_batches, 4);
        assert_eq!(st.admitted_batches + st.deferred_batches + st.rejected_batches, 4);
        assert_eq!(
            st.admitted_samples + st.deferred_samples + st.rejected_samples,
            st.offered_samples
        );
    }

    #[test]
    fn gate_enforces_per_site_quota_within_a_roomy_shard() {
        let gate = AdmissionGate::new(
            0,
            AdmissionConfig {
                max_inflight_per_site: 4,
                max_inflight_per_shard: 100,
                admit_deadline: Duration::ZERO,
            },
        );
        let _pa = match gate.admit("a", 4) {
            Admit::Granted(p) => p,
            other => panic!("expected grant, got {other:?}"),
        };
        // Site `a` is at quota; site `b` on the same shard still has room.
        assert!(matches!(gate.admit("a", 1), Admit::Deferred { .. }));
        assert!(matches!(gate.admit("b", 4), Admit::Granted(_)));
    }
}
