//! Shared maintenance-scheduler behavior, exercised through the shard set the
//! way the server drives it: sites scheduled on `add`, guaranteed-quiescent on
//! `remove`, shut down (and transparently restarted) around
//! `stop_maintenance`. Uses the shard-set API directly — no sockets, no JSON.

use std::time::{Duration, Instant};
use taf_rfsim::{campaign, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::shard::{AdmissionConfig, ShardSet};
use tafloc_serve::site::Site;
use tafloc_serve::ServeError;

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

fn checks(registry: &ShardSet, name: &str) -> u64 {
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
    let registry = ShardSet::new(1, AdmissionConfig::default());
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
    let registry = ShardSet::new(1, AdmissionConfig::default());
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
    let registry = ShardSet::new(1, AdmissionConfig::default());
    registry.add(calibrated_site("first", 11, fast_policy())).unwrap();
    assert!(wait_for(|| checks(&registry, "first") >= 1));
    registry.stop_maintenance();

    // A site added after shutdown gets a fresh scheduler thread.
    registry.add(calibrated_site("second", 12, fast_policy())).unwrap();
    assert!(wait_for(|| checks(&registry, "second") >= 1), "scheduler did not restart");
    registry.stop_maintenance();
}

#[test]
fn duplicate_and_unknown_site_names_are_rejected() {
    let manual = MaintenancePolicy { manual_tick: true, ..Default::default() };
    let registry = ShardSet::new(1, AdmissionConfig::default());
    registry.add(calibrated_site("lab", 11, manual)).unwrap();
    let dup = registry.add(calibrated_site("lab", 12, manual));
    assert!(matches!(dup, Err(ServeError::SiteExists(name)) if name == "lab"));
    assert!(matches!(registry.get("hall"), Err(ServeError::UnknownSite(_))));
    assert!(matches!(registry.remove("hall"), Err(ServeError::UnknownSite(_))));
    let removed = registry.remove("lab").unwrap();
    assert!(removed.stop_flag().load(std::sync::atomic::Ordering::Relaxed));
    assert!(registry.get("lab").is_err());
    registry.stop_maintenance();
}

#[test]
fn list_is_sorted_by_name() {
    let manual = MaintenancePolicy { manual_tick: true, ..Default::default() };
    let registry = ShardSet::new(1, AdmissionConfig::default());
    for (name, seed) in [("gamma", 13), ("alpha", 14), ("beta", 15)] {
        registry.add(calibrated_site(name, seed, manual)).unwrap();
    }
    let names: Vec<String> = registry.list().iter().map(|s| s.name().to_string()).collect();
    assert_eq!(names, ["alpha", "beta", "gamma"]);
    registry.stop_maintenance();
}
