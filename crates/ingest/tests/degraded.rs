//! Degraded-input end-to-end: raw simulated radio streams, thinned and
//! mangled, through the full pipeline into `TafLoc::localize`.
//!
//! The contract under test: whatever the transport does to the sample stream
//! — heavy loss, jitter, reordering, entirely dead links — the assembled
//! fingerprint vector is always finite (imputed and flagged, never NaN), and
//! at realistic loss rates it still localizes to the same cell as a clean
//! stream.

use taf_rfsim::{campaign, stream, StreamConfig, World, WorldConfig};
use tafloc_core::db::FingerprintDb;
use tafloc_core::system::{TafLoc, TafLocConfig};
use tafloc_ingest::{IngestConfig, Ingestor, LinkFlag, LinkSample};

const SAMPLES: usize = 20;
const TARGET_CELL: usize = 9;

/// A calibrated small-test system; each test pins its own world seed
/// (41–43 below), and the raw-sample fixtures are hand-written, so the
/// degradation outcomes asserted here are exact, not statistical.
fn calibrated(seed: u64) -> (World, TafLoc) {
    let world = World::new(WorldConfig::small_test(), seed);
    let x0 = campaign::full_calibration(&world, 0.0, SAMPLES);
    let e0 = campaign::empty_snapshot(&world, 0.0, SAMPLES);
    let db = FingerprintDb::from_world(x0, &world).unwrap();
    let config = TafLocConfig { ref_count: 6, ..Default::default() };
    (world, TafLoc::calibrate(config, db, e0).unwrap())
}

fn ingest(world: &World, samples: &[LinkSample]) -> Ingestor {
    let ing = Ingestor::new(IngestConfig::default(), world.num_links(), 2).unwrap();
    for chunk in samples.chunks(64) {
        ing.apply_batch(chunk);
    }
    ing
}

#[test]
fn twenty_five_percent_loss_still_localizes_to_the_clean_cell() {
    let (world, sys) = calibrated(41);
    let clean_cfg = StreamConfig { duration_s: 60.0, ..Default::default() };
    let lossy_cfg =
        StreamConfig { loss_rate: 0.25, jitter_frac: 0.5, reorder_prob: 0.2, ..clean_cfg };

    let clean = ingest(&world, &stream::stream_at_cell(&world, 0.0, TARGET_CELL, &clean_cfg, 3));
    let lossy = ingest(&world, &stream::stream_at_cell(&world, 0.0, TARGET_CELL, &lossy_cfg, 3));

    let v_clean = clean.assemble(sys.empty_rss()).unwrap();
    let v_lossy = lossy.assemble(sys.empty_rss()).unwrap();
    assert!(v_clean.is_complete(), "lossless stream covers every link");
    assert!(v_lossy.missing.is_empty(), "25% loss must not kill whole links");
    assert!(
        v_lossy.y.iter().all(|v| v.is_finite()),
        "assembled vectors must never contain NaN: {:?}",
        v_lossy.y
    );
    // The loss visibly thinned the windows.
    assert!(v_lossy.window_samples < v_clean.window_samples);

    let fix_clean = sys.localize(&v_clean.y).unwrap();
    let fix_lossy = sys.localize(&v_lossy.y).unwrap();
    assert_eq!(
        fix_lossy.cell, fix_clean.cell,
        "robust aggregation must absorb 25% loss without moving the fix"
    );

    // And the clean stream agrees with the averaged campaign path the rest of
    // the repo is built on.
    let y_avg = campaign::snapshot_at_cell(&world, 0.0, TARGET_CELL, SAMPLES);
    assert_eq!(fix_clean.cell, sys.localize(&y_avg).unwrap().cell);
}

#[test]
fn dead_links_are_imputed_and_flagged_but_never_nan() {
    let (world, sys) = calibrated(42);
    let cfg = StreamConfig { duration_s: 60.0, loss_rate: 0.2, ..Default::default() };
    let raw = stream::stream_at_cell(&world, 0.0, TARGET_CELL, &cfg, 5);
    // Kill two radios outright: their links never report a single sample.
    let dead = [0usize, 3usize];
    let surviving: Vec<LinkSample> = raw.into_iter().filter(|r| !dead.contains(&r.link)).collect();
    let ing = ingest(&world, &surviving);

    let v = ing.assemble(sys.empty_rss()).unwrap();
    assert_eq!(v.missing, dead, "dead links must be flagged as imputed");
    for &link in &dead {
        assert_eq!(v.flags[link], LinkFlag::Imputed);
        assert_eq!(v.y[link], sys.empty_rss()[link], "imputed from the baseline");
    }
    assert!(v.y.iter().all(|x| x.is_finite()), "no NaN even with dead links");

    // Localization still returns a valid in-range fix instead of panicking.
    let fix = sys.localize(&v.y).unwrap();
    assert!(fix.cell < world.num_cells());
    assert!(fix.best_distance.is_finite());
}

#[test]
fn heavy_degradation_never_produces_non_finite_vectors() {
    let (world, sys) = calibrated(43);
    // Brutal transport: 60% loss, full-period jitter, constant reordering.
    let cfg = StreamConfig {
        duration_s: 120.0,
        loss_rate: 0.6,
        jitter_frac: 1.0,
        reorder_prob: 0.5,
        ..Default::default()
    };
    let ing = ingest(&world, &stream::stream_at_cell(&world, 0.0, TARGET_CELL, &cfg, 7));
    let v = ing.assemble(sys.empty_rss()).unwrap();
    assert!(v.y.iter().all(|x| x.is_finite()));
    assert_eq!(v.y.len(), world.num_links());
    assert_eq!(v.flags.len(), world.num_links());
    let fix = sys.localize(&v.y).unwrap();
    assert!(fix.cell < world.num_cells());
}
