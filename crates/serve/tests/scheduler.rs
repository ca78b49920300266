//! Shared maintenance-scheduler behavior, exercised through the registry the
//! way the server drives it: sites scheduled on `add`, guaranteed-quiescent on
//! `remove`, shut down (and transparently restarted) around
//! `stop_maintenance`. Uses the registry API directly — no sockets, no JSON.

use std::time::{Duration, Instant};
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::registry::Registry;
use tafloc_serve::site::Site;

const SAMPLES: usize = 20;

fn calibrated_site(name: &str, seed: u64, policy: MaintenancePolicy) -> Site {
    let world = World::new(WorldConfig::small_test(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, SAMPLES);
    let e0 = campaign::empty_snapshot(&world, 0.0, SAMPLES);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let config = TafLocConfig { ref_count: 6, ..Default::default() };
    let sys = TafLoc::calibrate(config, db, e0).unwrap();
    Site::new(name, sys, 0.0, policy).unwrap()
}

fn fast_policy() -> MaintenancePolicy {
    MaintenancePolicy { interval_ms: 20, ..Default::default() }
}

fn checks(registry: &Registry, name: &str) -> u64 {
    registry.get(name).unwrap().stats().maintenance_checks
}

/// Polls until `cond` holds or the deadline passes.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn scheduler_ticks_all_sites_and_quiesces_on_remove() {
    let registry = Registry::new();
    registry.add(calibrated_site("alpha", 7, fast_policy())).unwrap();
    registry.add(calibrated_site("beta", 8, fast_policy())).unwrap();

    // Both sites get ticked by the shared scheduler.
    assert!(
        wait_for(|| checks(&registry, "alpha") >= 2 && checks(&registry, "beta") >= 2),
        "scheduler never ticked both sites"
    );

    // After remove() returns, no further tick may run for the removed site.
    let removed = registry.remove("alpha").unwrap();
    let frozen = removed.stats().maintenance_checks;
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(removed.stats().maintenance_checks, frozen, "tick after remove");

    // The surviving site keeps getting ticked.
    let before = checks(&registry, "beta");
    assert!(wait_for(|| checks(&registry, "beta") > before), "survivor starved");

    registry.stop_maintenance();
    let after_stop = checks(&registry, "beta");
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(checks(&registry, "beta"), after_stop, "tick after stop_maintenance");
}

#[test]
fn manual_tick_sites_are_never_scheduled() {
    let registry = Registry::new();
    let manual = MaintenancePolicy { manual_tick: true, interval_ms: 10, ..Default::default() };
    registry.add(calibrated_site("manual", 9, manual)).unwrap();
    registry.add(calibrated_site("auto", 10, fast_policy())).unwrap();
    // Wait until the scheduler demonstrably runs, then check the manual site
    // was left alone.
    assert!(wait_for(|| checks(&registry, "auto") >= 3));
    assert_eq!(checks(&registry, "manual"), 0);
    // The owner can still drive it explicitly.
    registry.get("manual").unwrap().maintenance_tick().unwrap();
    assert_eq!(checks(&registry, "manual"), 1);
    registry.stop_maintenance();
}

#[test]
fn scheduler_restarts_after_stop() {
    let registry = Registry::new();
    registry.add(calibrated_site("first", 11, fast_policy())).unwrap();
    assert!(wait_for(|| checks(&registry, "first") >= 1));
    registry.stop_maintenance();

    // A site added after shutdown gets a fresh scheduler thread.
    registry.add(calibrated_site("second", 12, fast_policy())).unwrap();
    assert!(wait_for(|| checks(&registry, "second") >= 1), "scheduler did not restart");
    registry.stop_maintenance();
}
