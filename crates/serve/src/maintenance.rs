//! The background maintenance scheduler: the daemon half of "time-adaptive".
//!
//! All registered sites share one scheduler thread. The scheduler tracks a
//! per-site deadline derived from the site's `interval_ms`; when a tick is
//! due it re-evaluates the most recently ingested reference measurements
//! against the site's [`tafloc_core::monitor::DriftMonitor`] and — when the
//! estimated database error has stayed above threshold for `breach_streak`
//! consecutive checks *and* the monitor's own `min_interval_days` cooldown
//! has elapsed — runs LoLi-IR off the request path and atomically swaps the
//! site snapshot. Two layers of hysteresis (the streak and the cooldown) keep
//! one noisy spot check from thrashing the database.
//!
//! Ticks that fall due together run one after another on the scheduler
//! thread, so background maintenance uses at most one core no matter how many
//! sites the daemon hosts — instead of one thread per site, each free to run
//! a LoLi-IR solve at the same time.

use crate::site::Site;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taf_wire::schema;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::system::ReconstructionGuard;

// The snapshot store embeds this binary layout in every `.snap` payload.
schema! {
    /// Per-site maintenance policy (wire-configurable via `add-site`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MaintenancePolicy: default {
        /// Milliseconds between maintenance ticks.
        pub interval_ms: u64,
        /// Whether the loop may trigger refreshes on its own; when `false` the
        /// monitor still runs and `stats` reports its verdicts, but refreshes
        /// only happen on an explicit `refresh` request.
        pub auto_refresh: bool,
        /// Consecutive over-threshold checks required before an auto-refresh.
        pub breach_streak: u32,
        /// How many of the site's reference cells the drift probe compares
        /// (clamped to the reference count at site creation).
        pub monitor_cells: usize,
        /// When `true` no maintenance thread is spawned for the site; the owner
        /// drives [`Site::maintenance_tick`](crate::site::Site::maintenance_tick)
        /// explicitly. Deterministic harnesses (taf-testkit) use this so ticks
        /// happen at scripted points in stream time instead of on a wall-clock
        /// cadence.
        pub manual_tick: bool,
        /// Thresholds for the underlying [`DriftMonitor`](tafloc_core::monitor::DriftMonitor).
        pub monitor: MonitorConfig,
        /// Sanity ceilings a freshly reconstructed database must clear before
        /// it replaces the served snapshot; a failing refresh is rolled back.
        pub guard: ReconstructionGuard,
        /// Consecutive rejected refreshes (or panicking ticks) after which the
        /// site is quarantined: it keeps serving its last good snapshot
        /// read-only and the scheduler skips its maintenance until the cooldown
        /// elapses or an explicit `refresh` succeeds.
        pub quarantine_after: u32,
        /// Scheduler passes a quarantined site sits out before re-admission.
        pub quarantine_cooldown_ticks: u32,
        /// Cap on the exponent of the per-site refresh backoff: after `f`
        /// consecutive failures the next tick is scheduled
        /// `interval_ms * 2^min(f, backoff_cap)` away instead of hot-looping
        /// the solver on poisoned inputs.
        pub backoff_cap: u32,
        /// Test-only fault-injection hook: the first `n` maintenance ticks of
        /// the site panic before doing any work. `0` (the default, and the only
        /// sane production value) is a strict no-op. The fault-tolerance tests
        /// use this to prove a panicking tick is isolated by the scheduler's
        /// panic boundary instead of killing the daemon.
        pub debug_panic_ticks: u32,
    }
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy {
            interval_ms: 250,
            auto_refresh: true,
            breach_streak: 2,
            monitor_cells: 2,
            manual_tick: false,
            monitor: MonitorConfig::default(),
            guard: ReconstructionGuard::default(),
            quarantine_after: 3,
            quarantine_cooldown_ticks: 8,
            backoff_cap: 6,
            debug_panic_ticks: 0,
        }
    }
}

/// How often the scheduler thread wakes to look for due sites. Also bounds
/// how long shutdown can go unnoticed between batches.
const SCHEDULER_SLICE: Duration = Duration::from_millis(10);

/// A scheduled site and its next tick deadline.
#[derive(Debug)]
struct Entry {
    site: Arc<Site>,
    next_due: Instant,
}

/// State shared between the scheduler thread and its owner.
#[derive(Debug, Default)]
struct SchedulerShared {
    /// Sites with automatic maintenance, with their deadlines.
    entries: Mutex<Vec<Entry>>,
    /// Held by the scheduler for the whole of each batch (deadline collection
    /// through tick completion). [`MaintenanceScheduler::unschedule`] acquires
    /// it to wait out any batch that may still reference a removed site.
    running: Mutex<()>,
    /// Tells the scheduler thread to exit.
    stop: AtomicBool,
}

/// The shared maintenance scheduler: one thread that watches every
/// automatically-ticked site and runs due ticks in turn.
///
/// Starts stopped (`default()`); the scheduler thread only exists while at
/// least one site has ever been scheduled, so manual-tick-only deployments
/// (the deterministic test harness) spawn nothing.
#[derive(Debug, Default)]
pub struct MaintenanceScheduler {
    shared: Arc<SchedulerShared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl MaintenanceScheduler {
    /// Adds `site` to the schedule (first tick one interval from now) and
    /// starts the scheduler thread if it is not running.
    pub fn schedule(&self, site: Arc<Site>) {
        let interval = Duration::from_millis(site.policy().interval_ms.max(1));
        let entry = Entry { site, next_due: Instant::now() + interval };
        self.shared.entries.lock().unwrap_or_else(|p| p.into_inner()).push(entry);
        let mut handle = self.handle.lock().unwrap_or_else(|p| p.into_inner());
        if handle.is_none() {
            self.shared.stop.store(false, Ordering::Relaxed);
            let shared = Arc::clone(&self.shared);
            *handle = Some(
                std::thread::Builder::new()
                    .name("taflocd-maint".to_string())
                    .spawn(move || scheduler_loop(&shared))
                    .expect("spawning the maintenance scheduler cannot fail"),
            );
        }
    }

    /// Drops `name` from the schedule and waits for any in-flight batch, so
    /// that no tick for the site runs after this returns. (Callers raise the
    /// site's stop flag first; ticks re-check it as a second line of defense.)
    pub fn unschedule(&self, name: &str) {
        self.shared
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|e| e.site.name() != name);
        drop(self.shared.running.lock().unwrap_or_else(|p| p.into_inner()));
    }

    /// Stops and joins the scheduler thread and clears the schedule. The
    /// scheduler restarts transparently if a site is scheduled afterwards.
    pub fn stop_and_join(&self) {
        let handle = self.handle.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(h) = handle {
            self.shared.stop.store(true, Ordering::Relaxed);
            let _ = h.join();
        }
        self.shared.entries.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

/// One maintenance tick, skipped if the site was stopped in the meantime. A
/// failed tick (e.g. a solver hiccup) must not kill the loop; the next
/// ingested measurement gets a fresh chance. Quarantined sites get a
/// cooldown-bookkeeping pass instead of real work, and the tick body runs
/// inside a panic boundary so one poisoned site cannot take the scheduler
/// (and with it every other site's maintenance) down.
fn run_tick(site: &Arc<Site>) {
    if site.stop_flag().load(Ordering::Relaxed) {
        return;
    }
    if site.quarantine_tick() {
        return;
    }
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| site.maintenance_tick()));
    if outcome.is_err() {
        site.note_tick_panic();
    }
}

fn scheduler_loop(shared: &SchedulerShared) {
    let mut due: Vec<Arc<Site>> = Vec::new();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(SCHEDULER_SLICE);
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        // Deadline collection and tick execution happen under the batch lock:
        // once `unschedule` has removed a site and taken this lock, no later
        // batch can see the site.
        let batch = shared.running.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        due.clear();
        {
            let mut entries = shared.entries.lock().unwrap_or_else(|p| p.into_inner());
            entries.retain(|e| !e.site.stop_flag().load(Ordering::Relaxed));
            for e in entries.iter_mut() {
                if now >= e.next_due {
                    let interval = Duration::from_millis(e.site.policy().interval_ms.max(1));
                    // Exponential backoff: a site whose refreshes keep getting
                    // rejected (or whose ticks keep panicking) is rescheduled
                    // further and further out instead of hot-looping LoLi-IR
                    // on poisoned inputs. One success resets the factor to 1.
                    e.next_due = now + interval * e.site.backoff_factor();
                    due.push(Arc::clone(&e.site));
                }
            }
        }
        for site in &due {
            run_tick(site);
        }
        drop(batch);
    }
}
