//! Crash-safe per-site snapshot persistence.
//!
//! `taflocd` holds every site's state in memory; this module is what makes a
//! crash survivable. Each committed generation of a site — fingerprint
//! database, correlation matrix `Z`, reference set, drift-monitor state,
//! health counters and the maintenance policy — is written as one
//! self-contained snapshot file under the daemon's `--data-dir`:
//!
//! ```text
//! magic     "TAFSNAP1"              8 bytes
//! version   format version          u32 LE
//! length    payload byte count      u64 LE
//! payload   encoded PersistedSite   `length` bytes
//! checksum  CRC32 (IEEE) of payload u32 LE
//! ```
//!
//! Writes are torn-write safe: the file is assembled in a `.tmp` sibling,
//! fsynced, then atomically renamed into place — a crash mid-write leaves
//! either the previous generation or a `.tmp` orphan, never a half-valid
//! snapshot under the real name. Recovery scans the directory, decodes every
//! `.snap` file, keeps the newest valid generation per site and reports (but
//! survives) corrupt, truncated, or mis-checksummed files.
//!
//! The payload is the little-endian binary form of [`taf_wire::Codec`], the
//! same one the v2 wire protocol uses, rather than JSON: the dominant content
//! is two large `f64` matrices that a text codec would bloat and slow down
//! for no benefit. The site name *inside* the payload is authoritative; the
//! filename only makes listings readable.

use crate::maintenance::MaintenancePolicy;
use crate::{Result, ServeError};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use taf_linalg::Matrix;
use taf_plan::{HistoryWindow, MeasurementPlan};
use taf_wire::{schema, Codec, Dec, Enc};
use tafloc_core::loli_ir::WarmState;
use tafloc_core::monitor::MonitorConfig;
use tafloc_core::system::SystemSnapshot;
use tafloc_ingest::IngestConfig;

/// File magic: identifies a taflocd snapshot and its major layout.
pub const MAGIC: &[u8; 8] = b"TAFSNAP1";

/// Payload format version. Bump on any change to the encoded layout.
/// Version 2 appended the durable hot state (journal watermark, planner
/// schedule/history/costs, solver warm state) after the v1 fields; v1 files
/// still load, with those fields taking their cold-start defaults.
pub const FORMAT_VERSION: u32 = 2;

/// Committed generations retained per site; older snapshot files are pruned
/// after each successful save. More than one so a latent corruption of the
/// newest file still leaves a recoverable (if stale) generation behind.
pub const KEEP_GENERATIONS: usize = 3;

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`) — the checksum guarding the
/// snapshot payload. The implementation lives in [`taf_wire::codec`] and is
/// shared with the v2 wire protocol; re-exported here so existing callers
/// (and the known-vector tests) keep their `store::crc32` path.
pub use taf_wire::crc32;

/// Everything needed to resurrect a serving site after a restart.
#[derive(Debug, Clone)]
pub struct PersistedSite {
    /// Site name (the registry key; authoritative over the filename).
    pub name: String,
    /// Snapshot version at save time — the site's committed generation.
    pub generation: u64,
    /// Deployment day of the last refresh (or calibration).
    pub refreshed_day: f64,
    /// The calibrated system: config, database, reference cells, LRR, empty
    /// baseline.
    pub snapshot: SystemSnapshot,
    /// Drift-monitor comparison baseline (`M x k`).
    pub monitor_stored: Matrix,
    /// Cells the monitor spot-checks.
    pub monitor_cells: Vec<usize>,
    /// Day of the monitor's last completed update (cooldown anchor).
    pub monitor_last_update_day: f64,
    /// Monitor thresholds.
    pub monitor_config: MonitorConfig,
    /// The site's health counters at save time.
    pub health: SiteHealth,
    /// The maintenance policy in force.
    pub policy: MaintenancePolicy,
    /// The streaming-ingestion configuration in force.
    pub ingest: IngestConfig,
    /// Highest write-ahead-journal sequence number whose effects are already
    /// contained in this snapshot. Recovery replays only records beyond it,
    /// and the journal prunes segments at or below it.
    pub journal_watermark: u64,
    /// Survey epoch counter (increments per completed reference survey).
    pub survey_epoch: u64,
    /// Lifetime planned measurement cost (link-measurements scheduled).
    pub planned_cost: u64,
    /// Lifetime actual measurement cost (link-measurements delivered).
    pub actual_cost: u64,
    /// What the same surveys would have cost unbudgeted.
    pub full_survey_cost: u64,
    /// The measurement plan in force at save time, if planning is enabled —
    /// the schedule position a restarted daemon resumes from.
    pub current_plan: Option<MeasurementPlan>,
    /// Per-cell confidence of the last accepted reconstruction.
    pub last_ref_confidence: Option<Vec<f64>>,
    /// Bounded survey history backing budgeted refreshes.
    pub history: Option<HistoryWindow>,
    /// The solver's last accepted factor pair, so the first post-restart
    /// refresh warm-starts instead of paying a cold SVD start.
    pub warm: Option<WarmState>,
}

schema! {
    /// A site's health: its breach hysteresis, its failure and quarantine
    /// state and its lifetime maintenance tallies. The site holds one live,
    /// and every snapshot carries it whole.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct SiteHealth: binary {
        /// Consecutive over-threshold checks (hysteresis state).
        pub breach_streak: u32,
        /// Lifetime maintenance-loop spot checks.
        pub maintenance_checks: u64,
        /// Lifetime auto-refreshes.
        pub auto_refreshes: u64,
        /// Lifetime refreshes rejected by the reconstruction guard.
        pub refresh_rejections: u64,
        /// Consecutive guard rejections / panicking ticks since the last success
        /// (drives backoff and quarantine; cleared by a committed refresh).
        pub consecutive_failures: u32,
        /// Reason the most recent refresh was rejected, if any.
        pub last_reject_reason: Option<String>,
        /// Whether the site is quarantined (serving read-only, skipped by the
        /// maintenance scheduler).
        pub quarantined: bool,
        /// Scheduler passes left before a quarantined site is re-admitted.
        pub quarantine_cooldown: u32,
        /// Lifetime maintenance ticks that panicked.
        pub tick_panics: u64,
    }
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------
//
// Every field is encoded through `taf_wire::Codec`, the binary form the v2
// wire protocol shares, so the on-disk layout and the wire layout cannot
// drift apart. The field order is written out here rather than declared
// with `taf_wire::schema!`, because the format-2 fields are appended behind
// a version check: a format-1 file ends after `ingest`, and its hot state
// takes cold-start defaults.

/// The format-1 field sequence; format-1 files keep decoding byte-for-byte.
fn encode_v1_fields(e: &mut Enc, site: &PersistedSite) {
    site.name.encode(e);
    site.generation.encode(e);
    site.refreshed_day.encode(e);
    site.snapshot.encode(e);
    site.monitor_stored.encode(e);
    site.monitor_cells.encode(e);
    site.monitor_last_update_day.encode(e);
    site.monitor_config.encode(e);
    site.health.encode(e);
    site.policy.encode(e);
    site.ingest.encode(e);
}

fn encode_payload(site: &PersistedSite) -> Vec<u8> {
    let mut e = Enc::new();
    encode_v1_fields(&mut e, site);
    // Format 2: durable hot state, appended after the format-1 fields.
    site.journal_watermark.encode(&mut e);
    site.survey_epoch.encode(&mut e);
    site.planned_cost.encode(&mut e);
    site.actual_cost.encode(&mut e);
    site.full_survey_cost.encode(&mut e);
    site.current_plan.encode(&mut e);
    site.last_ref_confidence.encode(&mut e);
    site.history.encode(&mut e);
    site.warm.encode(&mut e);
    e.into_inner()
}

fn decode_payload(data: &[u8], version: u32) -> Result<PersistedSite> {
    let d = &mut Dec::new(data);
    let mut site = PersistedSite {
        name: Codec::decode(d)?,
        generation: Codec::decode(d)?,
        refreshed_day: Codec::decode(d)?,
        snapshot: Codec::decode(d)?,
        monitor_stored: Codec::decode(d)?,
        monitor_cells: Codec::decode(d)?,
        monitor_last_update_day: Codec::decode(d)?,
        monitor_config: Codec::decode(d)?,
        health: Codec::decode(d)?,
        policy: Codec::decode(d)?,
        ingest: Codec::decode(d)?,
        journal_watermark: 0,
        survey_epoch: 0,
        planned_cost: 0,
        actual_cost: 0,
        full_survey_cost: 0,
        current_plan: None,
        last_ref_confidence: None,
        history: None,
        warm: None,
    };
    if version >= 2 {
        site.journal_watermark = Codec::decode(d)?;
        site.survey_epoch = Codec::decode(d)?;
        site.planned_cost = Codec::decode(d)?;
        site.actual_cost = Codec::decode(d)?;
        site.full_survey_cost = Codec::decode(d)?;
        site.current_plan = Codec::decode(d)?;
        site.last_ref_confidence = Codec::decode(d)?;
        site.history = Codec::decode(d)?;
        site.warm = Codec::decode(d)?;
    }
    d.finish()?;
    Ok(site)
}

// ---------------------------------------------------------------------------
// File store
// ---------------------------------------------------------------------------

/// One file the recovery pass had to skip, and why.
#[derive(Debug)]
pub struct RecoveryIssue {
    /// The skipped file.
    pub path: PathBuf,
    /// Why it was unusable (truncated, bad checksum, undecodable, ...).
    pub reason: String,
}

/// What a directory scan recovered.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Newest valid generation of every recoverable site, name-sorted.
    pub sites: Vec<PersistedSite>,
    /// Files that were present but unusable.
    pub skipped: Vec<RecoveryIssue>,
}

/// Fsyncs a directory so renames/creates/unlinks inside it survive power
/// loss. A no-op error sink on platforms where directories cannot be opened
/// for sync is deliberately *not* provided: the serve plane only targets
/// platforms where this works.
pub(crate) fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// SipHash-1-3 with zero keys over `name` followed by a `0xFF` byte: the
/// value `std`'s `DefaultHasher` gives for hashing one `&str`. `std` leaves
/// that algorithm unspecified across releases, and these values name files
/// on disk ([`SiteStore::stem`]), so the function is spelled out here and
/// pinned by tests.
pub(crate) fn name_hash(name: &str) -> u64 {
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13) ^ v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16) ^ v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21) ^ v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17) ^ v[2];
        v[2] = v[2].rotate_left(32);
    }
    fn compress(v: &mut [u64; 4], word: u64) {
        v[3] ^= word;
        round(v);
        v[0] ^= word;
    }
    let mut msg = name.as_bytes().to_vec();
    msg.push(0xFF);
    let mut v = [
        0x736f_6d65_7073_6575,
        0x646f_7261_6e64_6f6d,
        0x6c79_6765_6e65_7261,
        0x7465_6462_7974_6573,
    ];
    let mut words = msg.chunks_exact(8);
    for word in &mut words {
        compress(&mut v, u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    }
    // The last word: the leftover bytes, then the message length mod 256.
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    last[7] = msg.len() as u8;
    compress(&mut v, u64::from_le_bytes(last));
    v[2] ^= 0xFF;
    for _ in 0..3 {
        round(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// A directory of per-site snapshot files.
#[derive(Debug, Clone)]
pub struct SiteStore {
    dir: PathBuf,
}

impl SiteStore {
    /// Opens (creating if needed) the snapshot directory.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<SiteStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Store(format!("cannot create {}: {e}", dir.display())))?;
        Ok(SiteStore { dir })
    }

    /// The directory snapshots live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Filename stem for a site: a readable sanitized prefix plus a short
    /// hash of the exact name, so distinct names that sanitize identically
    /// ("a/b" vs "a:b") cannot collide. The name inside the payload is what
    /// recovery trusts; this is only for humans and pruning. The write-ahead
    /// journal shares this stem so a site's snapshot and journal files sort
    /// together in listings.
    pub fn stem(name: &str) -> String {
        let sanitized: String = name
            .chars()
            .take(48)
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        format!("{sanitized}-{:08x}", name_hash(name) as u32)
    }

    fn snap_path(&self, name: &str, generation: u64) -> PathBuf {
        self.dir.join(format!("{}.{generation:020}.snap", SiteStore::stem(name)))
    }

    /// Persists one site generation: encode, checksum, write to a `.tmp`
    /// sibling, fsync, rename into place, then prune generations older than
    /// the newest [`KEEP_GENERATIONS`]. Returns the snapshot path.
    pub fn save(&self, site: &PersistedSite) -> Result<PathBuf> {
        let payload = encode_payload(site);
        let mut file = Vec::with_capacity(payload.len() + 24);
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&crc32(&payload).to_le_bytes());

        let final_path = self.snap_path(&site.name, site.generation);
        let tmp_path = final_path.with_extension("tmp");
        let io = |what: &str, e: std::io::Error| {
            ServeError::Store(format!("{what} {}: {e}", tmp_path.display()))
        };
        {
            let mut f = std::fs::File::create(&tmp_path).map_err(|e| io("cannot create", e))?;
            f.write_all(&file).map_err(|e| io("cannot write", e))?;
            f.sync_all().map_err(|e| io("cannot sync", e))?;
        }
        std::fs::rename(&tmp_path, &final_path).map_err(|e| {
            ServeError::Store(format!(
                "cannot rename {} to {}: {e}",
                tmp_path.display(),
                final_path.display()
            ))
        })?;
        // The rename is atomic but not durable until the directory entry
        // itself is synced: without this, a power loss can forget the rename
        // and resurrect the old directory state (or nothing at all).
        fsync_dir(&self.dir)
            .map_err(|e| ServeError::Store(format!("cannot sync {}: {e}", self.dir.display())))?;
        self.prune(&site.name);
        Ok(final_path)
    }

    /// The files of `name`'s stem whose extension is one of `exts`, sorted.
    /// The zero-padded generation or segment suffix makes lexicographic
    /// order chronological.
    fn stem_files(&self, name: &str, exts: &[&str]) -> std::io::Result<Vec<PathBuf>> {
        let prefix = format!("{}.", SiteStore::stem(name));
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().and_then(|x| x.to_str()).is_some_and(|x| exts.contains(&x))
                    && p.file_name()
                        .and_then(|f| f.to_str())
                        .is_some_and(|f| f.starts_with(&prefix))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// Removes generations of `name` older than the newest
    /// [`KEEP_GENERATIONS`]. Best-effort: pruning failures never fail a save.
    fn prune(&self, name: &str) {
        let Ok(generations) = self.stem_files(name, &["snap"]) else { return };
        if generations.len() > KEEP_GENERATIONS {
            for old in &generations[..generations.len() - KEEP_GENERATIONS] {
                let _ = std::fs::remove_file(old);
            }
        }
    }

    /// Deletes every snapshot generation and write-ahead journal segment of
    /// `name` (`remove-site`). A restart then recovers nothing of the site,
    /// and a later site of the same name starts from its own generation 0
    /// instead of being pruned behind the removed site's newer generations.
    pub(crate) fn forget(&self, name: &str) -> Result<()> {
        self.remove_stem_files(name, &["snap", "wal"])
    }

    /// Deletes every write-ahead journal segment of `name`, so a site
    /// registered under the name starts from an empty journal instead of
    /// replaying a previous site's records after a crash.
    pub(crate) fn discard_journal(&self, name: &str) -> Result<()> {
        self.remove_stem_files(name, &["wal"])
    }

    /// Deletes `name`'s files whose extension is one of `exts`, then syncs
    /// the directory if any was there.
    fn remove_stem_files(&self, name: &str, exts: &[&str]) -> Result<()> {
        let io = |what: &str, path: &Path, e: std::io::Error| {
            ServeError::Store(format!("{what} {}: {e}", path.display()))
        };
        let files = self.stem_files(name, exts).map_err(|e| io("cannot scan", &self.dir, e))?;
        if files.is_empty() {
            return Ok(());
        }
        for path in &files {
            std::fs::remove_file(path).map_err(|e| io("cannot remove", path, e))?;
        }
        fsync_dir(&self.dir).map_err(|e| io("cannot sync", &self.dir, e))
    }

    /// Reads and validates one snapshot file.
    pub fn load(path: &Path) -> Result<PersistedSite> {
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::Store(format!("cannot read {}: {e}", path.display())))?;
        if bytes.len() < MAGIC.len() + 4 + 8 + 4 {
            return Err(ServeError::Store("file too short for a snapshot header".into()));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(ServeError::Store("bad magic: not a taflocd snapshot".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version == 0 || version > FORMAT_VERSION {
            return Err(ServeError::Store(format!(
                "unsupported format version {version} (this build reads 1..={FORMAT_VERSION})"
            )));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| ServeError::Store("payload length does not fit this platform".into()))?;
        let expected_total = 20usize
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| ServeError::Store("payload length overflows".into()))?;
        if bytes.len() < expected_total {
            return Err(ServeError::Store(format!(
                "truncated: header promises {payload_len} payload bytes, file holds {}",
                bytes.len().saturating_sub(24)
            )));
        }
        let payload = &bytes[20..20 + payload_len];
        let stored_crc =
            u32::from_le_bytes(bytes[20 + payload_len..24 + payload_len].try_into().expect("4"));
        let actual_crc = crc32(payload);
        if stored_crc != actual_crc {
            return Err(ServeError::Store(format!(
                "checksum mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
            )));
        }
        decode_payload(payload, version)
    }

    /// Scans the directory and recovers the newest valid generation of every
    /// site. Corrupt, truncated, or undecodable files are skipped and
    /// reported — a bad newest generation falls back to the next older valid
    /// one. `.tmp` orphans from torn writes are ignored (and cleaned up).
    pub fn recover_all(&self) -> Result<Recovery> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| ServeError::Store(format!("cannot scan {}: {e}", self.dir.display())))?;
        let mut best: HashMap<String, PersistedSite> = HashMap::new();
        let mut skipped = Vec::new();
        let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            match path.extension().and_then(|x| x.to_str()) {
                Some("snap") => {}
                Some("tmp") => {
                    // A torn write that never reached its rename; never valid.
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                _ => continue,
            }
            match SiteStore::load(&path) {
                Ok(site) => {
                    let keep =
                        best.get(&site.name).map_or(true, |cur| site.generation > cur.generation);
                    if keep {
                        best.insert(site.name.clone(), site);
                    }
                }
                Err(e) => skipped.push(RecoveryIssue { path, reason: e.to_string() }),
            }
        }
        let mut sites: Vec<PersistedSite> = best.into_values().collect();
        sites.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(Recovery { sites, skipped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taf_plan::{PlanEntry, PlanPolicy, SurveyRecord};
    use taf_rfsim::geometry::{Point, Segment};
    use taf_rfsim::grid::FloorGrid;
    use tafloc_core::db::FingerprintDb;
    use tafloc_core::matcher::MatchMethod;
    use tafloc_core::reference::ReferenceStrategy;
    use tafloc_core::system::{TafLocConfig, ZRefreshPolicy};
    use tafloc_core::LrrModel;
    use tafloc_ingest::Aggregator;

    fn temp_store(tag: &str) -> SiteStore {
        let dir =
            std::env::temp_dir().join(format!("tafloc-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SiteStore::open(&dir).unwrap()
    }

    /// A small hand-built site: 2 links x 4 cells, enough to exercise every
    /// field of the codec without running a calibration.
    fn sample_site(name: &str, generation: u64) -> PersistedSite {
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
        PersistedSite {
            name: name.to_string(),
            generation,
            refreshed_day: 45.5,
            snapshot: SystemSnapshot {
                config: TafLocConfig {
                    ref_count: 2,
                    ref_strategy: ReferenceStrategy::Random { seed: 99 },
                    matcher: MatchMethod::Knn { k: 3 },
                    z_policy: ZRefreshPolicy::RefitAfterUpdate,
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
                consecutive_failures: 1,
                last_reject_reason: Some("reconstruction contains non-finite entries".into()),
                quarantined: false,
                quarantine_cooldown: 0,
                tick_panics: 1,
            },
            policy: MaintenancePolicy {
                interval_ms: 125,
                breach_streak: 3,
                quarantine_after: 5,
                ..Default::default()
            },
            ingest: IngestConfig {
                stale_after_s: 7.5,
                aggregator: Aggregator::Ewma { alpha: 0.3 },
                ..Default::default()
            },
            journal_watermark: 12,
            survey_epoch: 3,
            planned_cost: 5,
            actual_cost: 4,
            full_survey_cost: 8,
            current_plan: Some(MeasurementPlan {
                epoch: 3,
                policy: PlanPolicy::UncertaintyGreedy,
                entries: vec![
                    PlanEntry { ref_slot: 0, links: vec![0, 1] },
                    PlanEntry { ref_slot: 1, links: vec![1] },
                ],
                planned_cost: 3,
                full_cost: 4,
            }),
            last_ref_confidence: Some(vec![0.9, 0.4, 0.7, 0.85]),
            history: Some({
                let mut h = HistoryWindow::new(2, 2, 4).unwrap();
                h.record(0, SurveyRecord { epoch: 2, y: vec![-50.0, -40.0], fresh: vec![true; 2] })
                    .unwrap();
                h.record(
                    0,
                    SurveyRecord { epoch: 3, y: vec![-50.5, -40.5], fresh: vec![true, false] },
                )
                .unwrap();
                h
            }),
            warm: Some(
                WarmState::from_parts(
                    Matrix::from_vec(2, 1, vec![0.5, -0.25]).unwrap(),
                    Matrix::from_vec(4, 1, vec![1.0, 0.5, 0.25, -1.0]).unwrap(),
                )
                .unwrap(),
            ),
        }
    }

    fn assert_sites_equal(a: &PersistedSite, b: &PersistedSite) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.refreshed_day, b.refreshed_day);
        assert!(a.snapshot.db.rss().approx_eq(b.snapshot.db.rss(), 0.0));
        assert_eq!(a.snapshot.db.links(), b.snapshot.db.links());
        assert_eq!(a.snapshot.ref_cells, b.snapshot.ref_cells);
        assert_eq!(a.snapshot.lrr.ref_cells(), b.snapshot.lrr.ref_cells());
        assert!(a.snapshot.lrr.z().approx_eq(b.snapshot.lrr.z(), 0.0));
        assert_eq!(a.snapshot.lrr.lambda(), b.snapshot.lrr.lambda());
        assert_eq!(a.snapshot.empty_rss, b.snapshot.empty_rss);
        assert_eq!(a.snapshot.config, b.snapshot.config);
        assert!(a.monitor_stored.approx_eq(&b.monitor_stored, 0.0));
        assert_eq!(a.monitor_cells, b.monitor_cells);
        assert_eq!(a.monitor_last_update_day, b.monitor_last_update_day);
        assert_eq!(a.monitor_config, b.monitor_config);
        assert_eq!(a.health, b.health);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.ingest, b.ingest);
        assert_eq!(a.journal_watermark, b.journal_watermark);
        assert_eq!(a.survey_epoch, b.survey_epoch);
        assert_eq!(a.planned_cost, b.planned_cost);
        assert_eq!(a.actual_cost, b.actual_cost);
        assert_eq!(a.full_survey_cost, b.full_survey_cost);
        assert_eq!(a.current_plan, b.current_plan);
        assert_eq!(a.last_ref_confidence, b.last_ref_confidence);
        match (&a.history, &b.history) {
            (None, None) => {}
            (Some(ha), Some(hb)) => {
                assert_eq!(ha.n_slots(), hb.n_slots());
                assert_eq!(ha.n_links(), hb.n_links());
                assert_eq!(ha.depth(), hb.depth());
                for slot in 0..ha.n_slots() {
                    let ra: Vec<_> = ha.records(slot).collect();
                    let rb: Vec<_> = hb.records(slot).collect();
                    assert_eq!(ra, rb, "history slot {slot}");
                }
            }
            _ => panic!("history presence differs"),
        }
        match (&a.warm, &b.warm) {
            (None, None) => {}
            (Some(wa), Some(wb)) => {
                assert_eq!(wa.shape(), wb.shape());
                assert_eq!(wa.l().as_slice(), wb.l().as_slice());
                assert_eq!(wa.r().as_slice(), wb.r().as_slice());
            }
            _ => panic!("warm-state presence differs"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        let site = sample_site("lab", 3);
        let path = store.save(&site).unwrap();
        let loaded = SiteStore::load(&path).unwrap();
        assert_sites_equal(&site, &loaded);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn recovery_keeps_newest_valid_generation_and_reports_corruption() {
        let store = temp_store("recovery");
        let g1 = sample_site("lab", 1);
        let mut g2 = sample_site("lab", 2);
        g2.health.auto_refreshes = 5;
        store.save(&g1).unwrap();
        let p2 = store.save(&g2).unwrap();

        // Torn write: generation 2 is truncated mid-payload.
        let bytes = std::fs::read(&p2).unwrap();
        std::fs::write(&p2, &bytes[..bytes.len() / 2]).unwrap();
        // And a torn tmp orphan is lying around.
        std::fs::write(store.dir().join("lab-garbage.tmp"), b"half").unwrap();

        let rec = store.recover_all().unwrap();
        assert_eq!(rec.sites.len(), 1, "generation 1 must survive");
        assert_sites_equal(&rec.sites[0], &g1);
        assert_eq!(rec.skipped.len(), 1);
        assert!(rec.skipped[0].reason.contains("truncated"), "{}", rec.skipped[0].reason);
        assert!(!store.dir().join("lab-garbage.tmp").exists(), "tmp orphans are cleaned");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn checksum_catches_a_flipped_byte() {
        let store = temp_store("crc");
        let path = store.save(&sample_site("lab", 1)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = SiteStore::load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        let rec = store.recover_all().unwrap();
        assert!(rec.sites.is_empty());
        assert_eq!(rec.skipped.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let store = temp_store("magic");
        let path = store.dir().join("junk.snap");
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(SiteStore::load(&path).unwrap_err().to_string().contains("magic"));

        let site = sample_site("lab", 1);
        let real = store.save(&site).unwrap();
        let mut bytes = std::fs::read(&real).unwrap();
        bytes[8] = 0xFF; // format version
        std::fs::write(&real, &bytes).unwrap();
        assert!(SiteStore::load(&real).unwrap_err().to_string().contains("version"));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn old_generations_are_pruned() {
        let store = temp_store("prune");
        for gen in 1..=6u64 {
            store.save(&sample_site("lab", gen)).unwrap();
        }
        let snaps: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
            .collect();
        assert_eq!(snaps.len(), KEEP_GENERATIONS);
        let rec = store.recover_all().unwrap();
        assert_eq!(rec.sites[0].generation, 6);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn hostile_site_names_stay_inside_the_directory() {
        let store = temp_store("names");
        // Distinct names that sanitize identically must not collide.
        let a = sample_site("a/b", 1);
        let b = sample_site("a:b", 1);
        let pa = store.save(&a).unwrap();
        let pb = store.save(&b).unwrap();
        assert_ne!(pa, pb);
        assert_eq!(pa.parent().unwrap(), store.dir());
        assert_eq!(pb.parent().unwrap(), store.dir());
        let rec = store.recover_all().unwrap();
        let names: Vec<&str> = rec.sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a/b", "a:b"], "payload name is authoritative");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Stems name every snapshot and WAL segment a restart looks for, so
    /// they must not move with the toolchain.
    #[test]
    fn stems_are_pinned_across_toolchains() {
        assert_eq!(SiteStore::stem("lab"), "lab-23371ce4");
        assert_eq!(SiteStore::stem("bench"), "bench-fd345f66");
        assert_eq!(SiteStore::stem("a/b"), "a_b-35a18f2a");
        assert_eq!(SiteStore::stem("a:b"), "a_b-c05edea5");
        // Names past one 8-byte word, and a name of exactly one word.
        assert_eq!(name_hash("x1234567") as u32, 0x4906_12a9);
        assert_eq!(name_hash("site-0") as u32, 0x5806_588e);
    }

    #[test]
    fn v1_snapshots_load_with_cold_start_defaults() {
        // A pre-journal (v1) snapshot: only the v1 fields, version 1 header.
        let site = sample_site("lab", 2);
        let mut e = Enc::new();
        encode_v1_fields(&mut e, &site);
        let payload = e.into_inner();
        let mut file = Vec::new();
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&1u32.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&crc32(&payload).to_le_bytes());
        let store = temp_store("v1compat");
        let path = store.dir().join("lab-old.snap");
        std::fs::write(&path, &file).unwrap();

        let loaded = SiteStore::load(&path).unwrap();
        assert_eq!(loaded.name, site.name);
        assert_eq!(loaded.generation, site.generation);
        assert_eq!(loaded.health.auto_refreshes, site.health.auto_refreshes);
        // The hot state a v1 file never recorded comes back cold.
        assert_eq!(loaded.journal_watermark, 0);
        assert_eq!(loaded.survey_epoch, 0);
        assert_eq!(loaded.planned_cost, 0);
        assert_eq!(loaded.actual_cost, 0);
        assert_eq!(loaded.full_survey_cost, 0);
        assert!(loaded.current_plan.is_none());
        assert!(loaded.last_ref_confidence.is_none());
        assert!(loaded.history.is_none());
        assert!(loaded.warm.is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn decode_rejects_garbage_that_passes_the_checksum() {
        // A structurally valid file whose payload is nonsense: the decoder
        // must error, not panic or allocate absurdly.
        let mut file = Vec::new();
        let payload = vec![0xFFu8; 64];
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&crc32(&payload).to_le_bytes());
        let dir = temp_store("garbage");
        let path = dir.dir().join("g.snap");
        std::fs::write(&path, &file).unwrap();
        assert!(SiteStore::load(&path).is_err());
        let _ = std::fs::remove_dir_all(dir.dir());
    }
}
