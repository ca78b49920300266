//! JSON round-trips, through the wire schema, of every persistent artifact:
//! fingerprint databases, world/system configurations, LRR models — the
//! state a deployment would snapshot to disk between surveys.

use taf_wire::{from_json, to_json};
use tafloc::core::db::FingerprintDb;
use tafloc::core::lrr::LrrModel;
use tafloc::core::system::TafLocConfig;
use tafloc::linalg::Matrix;
use tafloc::rfsim::{campaign, EnvironmentEvent, Point, World, WorldConfig};

#[test]
fn matrix_round_trip() {
    let m = Matrix::from_fn(3, 4, |i, j| i as f64 - 0.5 * j as f64);
    let json = to_json(&m);
    let back: Matrix = from_json(&json).unwrap();
    assert!(back.approx_eq(&m, 0.0));
}

#[test]
fn matrix_deserialization_validates_invariant() {
    // rows*cols != data.len() must be rejected, not silently accepted.
    let bad = r#"{"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]}"#;
    assert!(from_json::<Matrix>(bad).is_err());
}

#[test]
fn fingerprint_db_round_trip() {
    let world = World::new(WorldConfig::small_test(), 8);
    let x = campaign::full_calibration(&world, 0.0, 10);
    let db = FingerprintDb::from_world(x, &world).unwrap();
    let json = to_json(&db);
    let back: FingerprintDb = from_json(&json).unwrap();
    assert_eq!(back.num_links(), db.num_links());
    assert_eq!(back.num_cells(), db.num_cells());
    assert!(back.rss().approx_eq(db.rss(), 0.0));
    assert_eq!(back.links(), db.links());
}

#[test]
fn world_config_round_trip() {
    let cfg = WorldConfig::paper_default();
    let json = to_json(&cfg);
    let back: WorldConfig = from_json(&json).unwrap();
    assert_eq!(back, cfg);
    // Two worlds from the same config + seed produce identical fingerprints.
    let a = World::new(cfg, 5).fingerprint_truth(10.0);
    let b = World::new(back, 5).fingerprint_truth(10.0);
    assert!(a.approx_eq(&b, 0.0));
}

#[test]
fn world_config_with_an_event_round_trip() {
    // Every built-in config has no events; a deployment that scripts one
    // must get it back from its world file.
    let mut cfg = WorldConfig::small_test();
    cfg.events.push(EnvironmentEvent {
        day: 10.0,
        location: Point::new(1.5, 1.8),
        radius_m: 1.0,
        link_delta_db: -5.0,
        entry_delta_db: 3.0,
    });
    let json = to_json(&cfg);
    let back: WorldConfig = from_json(&json).unwrap();
    assert_eq!(back, cfg);
    let a = World::new(cfg, 6).fingerprint_truth(11.0);
    let b = World::new(back, 6).fingerprint_truth(11.0);
    assert!(a.approx_eq(&b, 0.0));
}

#[test]
fn tafloc_config_round_trip() {
    let cfg = TafLocConfig::default();
    let json = to_json(&cfg);
    let back: TafLocConfig = from_json(&json).unwrap();
    assert_eq!(back, cfg);
}

#[test]
fn lrr_model_round_trip() {
    let x = Matrix::from_fn(4, 8, |i, j| (i * j) as f64 / 3.0 - 1.0);
    let model = LrrModel::fit(&x, &[0, 2, 5], 1e-6).unwrap();
    let json = to_json(&model);
    let back: LrrModel = from_json(&json).unwrap();
    assert_eq!(back.ref_cells(), model.ref_cells());
    assert!(back.z().approx_eq(model.z(), 0.0));
    // Round-tripped model predicts identically.
    let refs = x.select_cols(&[0, 2, 5]).unwrap();
    assert!(back.predict(&refs).unwrap().approx_eq(&model.predict(&refs).unwrap(), 0.0));
}

#[test]
fn snapshot_survives_full_cycle() {
    // Persist a calibrated deployment's artifacts, reload, and keep working.
    let world = World::new(WorldConfig::small_test(), 9);
    let x0 = campaign::full_calibration(&world, 0.0, 10);
    let e0 = campaign::empty_snapshot(&world, 0.0, 10);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let cfg = TafLocConfig { ref_count: 5, ..Default::default() };
    let sys = tafloc::core::system::TafLoc::calibrate(cfg, db.clone(), e0.clone()).unwrap();

    // Simulate "write db + config to disk, restart, reload".
    let db_json = to_json(&db);
    let cfg_json = to_json(sys.config());
    let db2: FingerprintDb = from_json(&db_json).unwrap();
    let cfg2: TafLocConfig = from_json(&cfg_json).unwrap();
    let sys2 = tafloc::core::system::TafLoc::calibrate(cfg2, db2, e0).unwrap();
    assert_eq!(sys2.reference_cells(), sys.reference_cells());
}
