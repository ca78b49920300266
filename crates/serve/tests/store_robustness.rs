//! Property tests for snapshot-store recovery under random corruption.
//!
//! The durability contract `SiteStore::recover_all` owes the daemon:
//!
//! 1. **Never panic** — whatever bytes are on disk, recovery returns a
//!    `Recovery`, it does not take the daemon down.
//! 2. **Skip exactly the damaged generations** — a truncated or bit-flipped
//!    snapshot is reported in `skipped` and recovery falls back to the next
//!    older valid generation of the same site (or recovers nothing if none
//!    is left), never serving corrupted state.
//! 3. **Prune to the newest [`KEEP_GENERATIONS`]** — saves retain exactly
//!    that many `.snap` files per site, newest-first, so fallback depth is
//!    bounded and disk usage cannot creep.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan, PlanEntry, PlanPolicy, SurveyRecord};
use taf_rfsim::geometry::{Point, Segment};
use taf_rfsim::grid::FloorGrid;
use tafloc_core::db::FingerprintDb;
use tafloc_core::loli_ir::WarmState;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::reference::ReferenceStrategy;
use tafloc_core::system::{SystemSnapshot, TafLocConfig};
use tafloc_core::LrrModel;
use tafloc_ingest::IngestConfig;
use tafloc_serve::maintenance::MaintenancePolicy;
use tafloc_serve::store::{PersistedSite, SiteHealth, SiteStore, KEEP_GENERATIONS};

/// A fresh scratch directory per generated case (cases run back to back in
/// one process; the directory must not leak state between them).
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("tafloc-store-robustness-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small hand-built site (2 links x 4 cells) exercising every codec field,
/// including the v2 durable hot state.
fn site(name: &str, generation: u64) -> PersistedSite {
    let rss =
        Matrix::from_vec(2, 4, vec![-50.0, -51.5, -49.0, -60.25, -40.0, -41.0, -42.5, -43.75])
            .unwrap();
    let links = vec![
        Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0)),
        Segment::new(Point::new(0.0, 1.0), Point::new(3.0, 1.0)),
    ];
    let grid = FloorGrid::new(Point::new(-0.5, -0.5), 1.0, 4, 1);
    let db = FingerprintDb::new(rss, links, grid).unwrap();
    let z = Matrix::from_vec(2, 4, vec![1.0, 0.0, 0.25, -0.5, 0.0, 1.0, 0.75, 1.5]).unwrap();
    let lrr = LrrModel::from_parts(vec![0, 2], z, 1e-2).unwrap();
    let mut history = HistoryWindow::new(2, 2, 4).unwrap();
    history
        .record(0, SurveyRecord { epoch: 1, y: vec![-50.0, -40.0], fresh: vec![true; 2] })
        .unwrap();
    PersistedSite {
        name: name.to_string(),
        generation,
        refreshed_day: 45.5,
        snapshot: SystemSnapshot {
            config: TafLocConfig {
                ref_count: 2,
                ref_strategy: ReferenceStrategy::Random { seed: 99 },
                ..Default::default()
            },
            db,
            ref_cells: vec![0, 2],
            lrr,
            empty_rss: vec![-38.0, -39.5],
        },
        monitor_stored: Matrix::from_vec(2, 1, vec![-50.0, -40.0]).unwrap(),
        monitor_cells: vec![0],
        monitor_last_update_day: 44.0,
        monitor_config: MonitorConfig { error_threshold_db: 2.5, min_interval_days: 1.0 },
        health: SiteHealth {
            breach_streak: 1,
            maintenance_checks: 17,
            auto_refreshes: 4,
            refresh_rejections: 2,
            consecutive_failures: 0,
            last_reject_reason: None,
            quarantined: false,
            quarantine_cooldown: 0,
            tick_panics: 0,
        },
        policy: MaintenancePolicy::default(),
        ingest: IngestConfig::default(),
        journal_watermark: generation * 10,
        survey_epoch: generation,
        planned_cost: 5,
        actual_cost: 4,
        full_survey_cost: 8,
        current_plan: Some(MeasurementPlan {
            epoch: generation,
            policy: PlanPolicy::UncertaintyGreedy,
            entries: vec![PlanEntry { ref_slot: 0, links: vec![0, 1] }],
            planned_cost: 2,
            full_cost: 4,
        }),
        last_ref_confidence: Some(vec![0.9, 0.4]),
        history: Some(history),
        warm: Some(
            WarmState::from_parts(
                Matrix::from_vec(2, 1, vec![0.5, -0.25]).unwrap(),
                Matrix::from_vec(4, 1, vec![1.0, 0.5, 0.25, -1.0]).unwrap(),
            )
            .unwrap(),
        ),
    }
}

/// Saves generations `1..=n` of one site, returning the snapshot paths in
/// save order (only the newest [`KEEP_GENERATIONS`] still exist on disk).
fn save_generations(store: &SiteStore, name: &str, n: u64) -> Vec<PathBuf> {
    (1..=n).map(|g| store.save(&site(name, g)).unwrap()).collect()
}

/// The `.snap` files currently on disk, sorted.
fn snap_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    files.sort();
    files
}

proptest! {
    /// Truncating the newest generation anywhere short of its full length
    /// must skip exactly that file and fall back to the previous generation.
    #[test]
    fn truncation_is_skipped_and_recovery_falls_back(
        (gens, cut) in (1u64..4, 0u64..u64::MAX),
    ) {
        let dir = scratch();
        let store = SiteStore::open(&dir).unwrap();
        let paths = save_generations(&store, "alpha", gens);
        let newest = paths.last().unwrap();
        let len = std::fs::metadata(newest).unwrap().len();
        let keep = cut % len; // strictly shorter than the full file
        let bytes = std::fs::read(newest).unwrap();
        std::fs::write(newest, &bytes[..keep as usize]).unwrap();

        let recovery = store.recover_all().unwrap();
        prop_assert_eq!(recovery.skipped.len(), 1, "exactly the truncated file is skipped");
        prop_assert_eq!(&recovery.skipped[0].path, newest);
        if gens > 1 {
            prop_assert_eq!(recovery.sites.len(), 1);
            prop_assert_eq!(&recovery.sites[0].name, "alpha");
            prop_assert_eq!(recovery.sites[0].generation, gens - 1);
        } else {
            prop_assert!(recovery.sites.is_empty(), "no valid generation left to recover");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A single flipped bit anywhere in a snapshot file — magic, version,
    /// length, payload or checksum — must be detected: the generation is
    /// skipped, never decoded into served state.
    #[test]
    fn any_single_bit_flip_is_detected(
        (gens, target, pos, bit) in (1u64..4, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..8),
    ) {
        let dir = scratch();
        let store = SiteStore::open(&dir).unwrap();
        save_generations(&store, "alpha", gens);
        // Saves prune, so flip within a file that still exists.
        let files = snap_files(&dir);
        let victim = &files[(target % files.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        let at = (pos % bytes.len() as u64) as usize;
        bytes[at] ^= 1 << bit;
        std::fs::write(victim, &bytes).unwrap();

        let recovery = store.recover_all().unwrap();
        prop_assert_eq!(recovery.skipped.len(), 1, "the flipped file must be skipped");
        prop_assert_eq!(&recovery.skipped[0].path, victim);
        // Whatever survives is an untampered generation of the same site.
        for s in &recovery.sites {
            prop_assert_eq!(&s.name, "alpha");
            prop_assert_eq!(s.journal_watermark, s.generation * 10, "payload decoded intact");
        }
        let expected_sites = usize::from(files.len() > 1);
        prop_assert_eq!(recovery.sites.len(), expected_sites);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damaging *every* retained generation still cannot panic recovery: it
    /// reports all of them skipped and recovers nothing.
    #[test]
    fn recovery_survives_total_corruption(
        (gens, bit) in (1u64..5, 0u64..8),
    ) {
        let dir = scratch();
        let store = SiteStore::open(&dir).unwrap();
        save_generations(&store, "alpha", gens);
        let files = snap_files(&dir);
        for f in &files {
            let mut bytes = std::fs::read(f).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1 << bit;
            std::fs::write(f, &bytes).unwrap();
        }
        let recovery = store.recover_all().unwrap();
        prop_assert!(recovery.sites.is_empty());
        prop_assert_eq!(recovery.skipped.len(), files.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Saving `n` generations leaves exactly `min(n, KEEP_GENERATIONS)`
    /// `.snap` files on disk, and recovery serves the newest.
    #[test]
    fn pruning_keeps_exactly_the_newest_generations(
        gens in 1u64..9,
    ) {
        let dir = scratch();
        let store = SiteStore::open(&dir).unwrap();
        save_generations(&store, "alpha", gens);
        let files = snap_files(&dir);
        prop_assert_eq!(files.len(), (gens as usize).min(KEEP_GENERATIONS));
        let recovery = store.recover_all().unwrap();
        prop_assert!(recovery.skipped.is_empty());
        prop_assert_eq!(recovery.sites.len(), 1);
        prop_assert_eq!(recovery.sites[0].generation, gens);
        prop_assert_eq!(recovery.sites[0].journal_watermark, gens * 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
