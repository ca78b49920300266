//! Worker shards: each owns its sites, the maintenance scheduler that ticks
//! them and the admission gate that meters their ingest.
//!
//! * [`shard_of`] — placement: a seeded FNV-1a hash of the site name, mapped
//!   onto N shards by Lamping–Veach jump consistent hashing. The seed is
//!   compiled in, so placement is a pure function of `(name, N)` and a
//!   restarted daemon re-shards *identically* by construction — no
//!   assignment table is persisted, and none is needed. Growing N to N+1
//!   moves only ~K/N of K keys, and every moved key lands on the new shard.
//! * [`ShardSet`] — the daemon's sites, split over N shards. Each shard holds
//!   a name → site map behind an `RwLock` that is only held for lookups and
//!   membership changes (request handling clones the `Arc<Site>` out and
//!   drops the lock before doing any work), its own [`MaintenanceScheduler`]
//!   thread for its automatically-ticked sites, and its own
//!   [`AdmissionGate`].
//! * [`AdmissionGate`] — credit-based backpressure for ingest: admission
//!   reserves sample credits against a per-site quota and a per-shard
//!   budget, *blocking up to a deadline* when credits are short instead of
//!   silently shedding. Past the deadline the offer is **deferred** (client
//!   told to retry) and a batch that can never fit is **rejected** — both
//!   surfaced as explicit overload frames on the wire and conserved in the
//!   counters: `admitted + deferred + rejected == offered`.

use crate::maintenance::MaintenanceScheduler;
use crate::protocol::{ShardStats, SiteStats};
use crate::site::Site;
use crate::{Result, ServeError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Placement seed. Changing it would move sites between shards, so it is
/// compiled in and has no flag.
const SEED: u64 = 0x7461_666c_6f63_5f38; // "tafloc_8"

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

/// The shard owning site `name` among `shards` (clamped to at least 1).
/// Pure: the same name and shard count give the same answer, in this
/// process or the next.
pub fn shard_of(name: &str, shards: usize) -> usize {
    jump_hash(seeded_fnv1a64(SEED, name), shards.max(1))
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
    /// the caller, which holds the shard's sites).
    pub fn stats(&self, sites: usize) -> ShardStats {
        ShardStats {
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

/// One worker shard: its sites, the scheduler that ticks them and the gate
/// that admits their ingest.
#[derive(Debug)]
struct Shard {
    sites: RwLock<HashMap<String, Arc<Site>>>,
    scheduler: MaintenanceScheduler,
    gate: AdmissionGate,
}

impl Shard {
    /// The shard's sites, cloned out so the map's lock is released on return.
    fn sites(&self) -> Vec<Arc<Site>> {
        self.sites.read().unwrap_or_else(|p| p.into_inner()).values().cloned().collect()
    }
}

/// The daemon's sites, each held by the shard [`shard_of`] names.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// `shards` shards (clamped to at least 1), each with its own
    /// maintenance scheduler, which starts with the shard's first
    /// automatically-ticked site, and its own gate with `admission`'s limits.
    pub fn new(shards: usize, admission: AdmissionConfig) -> ShardSet {
        let shards = (0..shards.max(1))
            .map(|i| Shard {
                sites: RwLock::default(),
                scheduler: MaintenanceScheduler::default(),
                gate: AdmissionGate::new(i, admission),
            })
            .collect();
        ShardSet { shards }
    }

    fn owner(&self, name: &str) -> &Shard {
        &self.shards[shard_of(name, self.shards.len())]
    }

    /// Registers `site` on its shard and schedules its maintenance (unless
    /// the site's policy requests manual ticks).
    pub fn add(&self, site: Site) -> Result<Arc<Site>> {
        let shard = self.owner(site.name());
        let site = Arc::new(site);
        {
            let mut map = shard.sites.write().unwrap_or_else(|p| p.into_inner());
            if map.contains_key(site.name()) {
                return Err(ServeError::SiteExists(site.name().to_string()));
            }
            map.insert(site.name().to_string(), Arc::clone(&site));
        }
        if !site.policy().manual_tick {
            shard.scheduler.schedule(Arc::clone(&site));
        }
        Ok(site)
    }

    /// Looks a site up by name.
    pub fn get(&self, name: &str) -> Result<Arc<Site>> {
        let sites = self.owner(name).sites.read().unwrap_or_else(|p| p.into_inner());
        sites.get(name).cloned().ok_or_else(|| ServeError::UnknownSite(name.to_string()))
    }

    /// Unregisters a site and waits until no maintenance tick for it can run
    /// anymore.
    pub fn remove(&self, name: &str) -> Result<Arc<Site>> {
        let shard = self.owner(name);
        let removed = shard.sites.write().unwrap_or_else(|p| p.into_inner()).remove(name);
        let site = removed.ok_or_else(|| ServeError::UnknownSite(name.to_string()))?;
        site.stop_flag().store(true, Ordering::Relaxed);
        shard.scheduler.unschedule(name);
        Ok(site)
    }

    /// All sites, name-sorted (stable output for `list-sites`).
    pub fn list(&self) -> Vec<Arc<Site>> {
        let mut sites: Vec<Arc<Site>> = self.shards.iter().flat_map(Shard::sites).collect();
        sites.sort_by(|a, b| a.name().cmp(b.name()));
        sites
    }

    /// Offers `samples` ingest credits for `site` on its shard.
    pub fn admit(&self, site: &str, samples: usize) -> Admit<'_> {
        self.owner(site).gate.admit(site, samples)
    }

    /// Per-shard admission/queue stats, shard-ordered.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.gate.stats(s.sites().len())).collect()
    }

    /// Per-site stats with each site's shard filled in, name-sorted.
    pub fn site_stats(&self) -> Vec<SiteStats> {
        let mut out: Vec<SiteStats> = Vec::new();
        for (shard, s) in self.shards.iter().enumerate() {
            out.extend(s.sites().iter().map(|site| SiteStats { shard, ..site.stats() }));
        }
        out.sort_by(|a, b| a.site.cmp(&b.site));
        out
    }

    /// Raises every site's stop flag and stops every shard's maintenance
    /// scheduler (server shutdown). Sites stay registered and readable.
    pub fn stop_maintenance(&self) {
        for shard in &self.shards {
            for site in shard.sites() {
                site.stop_flag().store(true, Ordering::Relaxed);
            }
            shard.scheduler.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_and_zero_quotas_are_clamped_to_one() {
        assert!(["a", "b", "site-42"].iter().all(|k| shard_of(k, 0) == 0));
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
            for i in 0..500 {
                let key = format!("site-{i}");
                let s = shard_of(&key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&key, shards), "same count, same answer");
            }
        }
    }

    #[test]
    fn ring_resize_only_moves_keys_onto_the_new_shard() {
        let keys: Vec<String> = (0..2000).map(|i| format!("site-{i}")).collect();
        for n in 1usize..12 {
            let mut moved = 0usize;
            for k in &keys {
                let (a, b) = (shard_of(k, n), shard_of(k, n + 1));
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
        let mut per = [0usize; 4];
        for i in 0..4000 {
            per[shard_of(&format!("site-{i}"), 4)] += 1;
        }
        for (i, &count) in per.iter().enumerate() {
            assert!(
                (500..=1500).contains(&count),
                "shard {i} owns {count} of 4000 keys — ring badly unbalanced"
            );
        }
    }

    #[test]
    fn placement_is_pinned() {
        let names = [
            "lab", "bench", "site-0", "site-1", "site-2", "site-3", "site-4", "site-5", "site-6",
            "site-7",
        ];
        for (shards, want) in [
            (2, [1, 1, 1, 1, 0, 0, 0, 1, 1, 0]),
            (4, [3, 2, 1, 1, 3, 0, 0, 2, 3, 3]),
            (7, [3, 2, 1, 1, 3, 0, 0, 5, 4, 4]),
        ] {
            let got: Vec<usize> = names.iter().map(|name| shard_of(name, shards)).collect();
            assert_eq!(got, want, "{shards} shards: a site moved");
        }
    }

    #[test]
    fn a_shard_set_holds_each_site_on_the_shard_that_owns_it() {
        use crate::maintenance::MaintenancePolicy;
        use taf_rfsim::{campaign, World, WorldConfig};
        use tafloc_core::db::FingerprintDb;
        use tafloc_core::system::{TafLoc, TafLocConfig};

        let world = World::new(WorldConfig::small_test(), 31);
        let db = FingerprintDb::from_world(campaign::full_calibration(&world, 0.0, 20), &world);
        let e0 = campaign::empty_snapshot(&world, 0.0, 20);
        let config = TafLocConfig { ref_count: 6, ..Default::default() };
        let system = TafLoc::calibrate(config, db.unwrap(), e0).unwrap();
        // Manual ticks: no scheduler thread starts.
        let manual = MaintenancePolicy { manual_tick: true, ..Default::default() };
        let site = |name: &str| Site::new(name, system.clone(), 0.0, manual).unwrap();

        let set = ShardSet::new(4, AdmissionConfig::default());
        let names: Vec<String> = (0..8).map(|i| format!("site-{i}")).collect();
        let mut owned = [0usize; 4];
        for name in &names {
            set.add(site(name)).unwrap();
            owned[shard_of(name, 4)] += 1;
        }
        for name in &names {
            assert_eq!(set.get(name).unwrap().name(), name);
        }
        let counted: Vec<(usize, usize)> =
            set.shard_stats().iter().map(|s| (s.shard, s.sites)).collect();
        assert_eq!(counted, [(0, owned[0]), (1, owned[1]), (2, owned[2]), (3, owned[3])]);
        let taken = set.add(site("site-3"));
        assert!(matches!(taken, Err(ServeError::SiteExists(name)) if name == "site-3"));
        let placed: Vec<(String, usize)> =
            set.site_stats().into_iter().map(|s| (s.site, s.shard)).collect();
        let want: Vec<(String, usize)> =
            names.iter().map(|name| (name.clone(), shard_of(name, 4))).collect();
        assert_eq!(placed, want);

        let removed = set.remove("site-5").unwrap();
        assert!(removed.stop_flag().load(Ordering::Relaxed));
        assert!(matches!(set.get("site-5"), Err(ServeError::UnknownSite(_))));
        assert!(matches!(set.remove("site-5"), Err(ServeError::UnknownSite(_))));
        assert_eq!(set.list().len(), 7);
        let home = shard_of("site-5", 4);
        assert_eq!(set.shard_stats()[home].sites, owned[home] - 1);
        set.stop_maintenance();
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
    fn concurrent_offers_past_capacity_conserve_every_verdict() {
        // Four producers race a shard budget of three full batches. Permits
        // are held for twice the deadline, so a fourth producer waits and
        // often defers. Every offer must still get exactly one verdict, and
        // the gate's counters must agree with what the producers were told.
        const PRODUCERS: usize = 4;
        const ROUNDS: usize = 60;
        const BATCH: usize = 8;
        const HOLD: Duration = Duration::from_micros(500);
        // Batches of 7 or 8 samples: three always fit and four never do, and
        // samples conserve independently of batches.
        let size = |p: usize, round: usize| BATCH - (p + round) % 2;
        let gate = AdmissionGate::new(
            0,
            AdmissionConfig {
                max_inflight_per_site: 3 * BATCH,
                max_inflight_per_shard: 3 * BATCH,
                admit_deadline: HOLD / 2,
            },
        );
        let start = std::sync::Barrier::new(PRODUCERS);
        // (batches, samples) per verdict: admitted, deferred, rejected.
        let mut told = [(0u64, 0u64); 3];
        std::thread::scope(|s| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let (gate, start) = (&gate, &start);
                    s.spawn(move || {
                        let site = format!("site-{p}");
                        let mut tally = [(0u64, 0u64); 3];
                        start.wait();
                        for round in 0..ROUNDS {
                            let samples = size(p, round);
                            let verdict = match gate.admit(&site, samples) {
                                Admit::Granted(_permit) => {
                                    // Hold the credits, as an ingest holds
                                    // them while it applies the batch.
                                    std::thread::sleep(HOLD);
                                    0
                                }
                                Admit::Deferred { retry_after_ms, .. } => {
                                    assert!(retry_after_ms >= 1, "back-off hint must be usable");
                                    1
                                }
                                Admit::Rejected { .. } => 2,
                            };
                            tally[verdict].0 += 1;
                            tally[verdict].1 += samples as u64;
                        }
                        tally
                    })
                })
                .collect();
            for h in producers {
                for (sum, part) in told.iter_mut().zip(h.join().unwrap()) {
                    sum.0 += part.0;
                    sum.1 += part.1;
                }
            }
        });

        let [admitted, deferred, rejected] = told;
        let offered_samples: u64 =
            (0..PRODUCERS).flat_map(|p| (0..ROUNDS).map(move |r| size(p, r) as u64)).sum();
        let st = gate.stats(PRODUCERS);
        assert_eq!(st.offered_batches, (PRODUCERS * ROUNDS) as u64);
        assert_eq!(st.offered_samples, offered_samples);
        assert_eq!(
            st.admitted_batches + st.deferred_batches + st.rejected_batches,
            st.offered_batches,
            "batch-level conservation"
        );
        assert_eq!(
            st.admitted_samples + st.deferred_samples + st.rejected_samples,
            st.offered_samples,
            "sample-level conservation"
        );
        assert_eq!((st.admitted_batches, st.admitted_samples), admitted, "counters match verdicts");
        assert_eq!((st.deferred_batches, st.deferred_samples), deferred);
        assert_eq!((st.rejected_batches, st.rejected_samples), rejected);
        assert!(admitted.0 > 0, "released credits must let offers land");
        assert_eq!(rejected, (0, 0), "no batch exceeds the budget");
        assert_eq!(gate.depth_samples(), 0, "every permit released its credits");
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
