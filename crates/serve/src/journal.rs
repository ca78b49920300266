//! Per-site write-ahead ingest journal.
//!
//! The snapshot store makes *committed* generations durable, but everything
//! between commits — admitted reference-capture batches and measured survey
//! columns that have not yet been folded into an accepted refresh — used to
//! live only in memory. This module closes that gap: the serve plane appends
//! every admitted survey-path record here *before* applying it, and recovery
//! replays the tail through the exact same ingest code the live path uses.
//!
//! On-disk layout, one segment file per rotation
//! (`<stem>.<index:020>.wal` next to the site's `.snap` files):
//!
//! ```text
//! header   magic "TAFWAL01"      8 bytes
//!          version               u32 LE
//! record   length of payload     u32 LE
//!          CRC32 (IEEE) payload  u32 LE
//!          payload               `length` bytes
//! record   ...
//! ```
//!
//! Each payload is `seq (u64) | tag (u8) | body` in the [`taf_wire::codec`]
//! encoding; `seq` is a strictly increasing per-site sequence number that
//! survives restarts. Recovery stops at the first short or mis-checksummed
//! record and truncates the active segment there (*torn-tail truncation*):
//! a crash mid-append loses at most the records the durability contract had
//! not yet promised (see below), never the valid prefix.
//!
//! **Durability contract (group commit).** With a zero
//! [`JournalConfig::flush_interval`] every append is fsynced before the call
//! returns. With a non-zero interval, appends buffer in the OS and the next
//! append at least `flush_interval` after the last fsync — or an explicit
//! [`Journal::sync`], which the maintenance loop drives every tick, or a
//! clean shutdown — makes them durable. A `kill -9` can therefore lose at
//! most the records admitted inside the last flush window; it can never
//! corrupt earlier ones.
//!
//! **Pruning.** Snapshots record the highest sequence number whose effects
//! they contain (`PersistedSite::journal_watermark`). Once a snapshot commits,
//! [`Journal::prune`] deletes the sealed segments entirely at or below the
//! watermark. Records are only ever pruned *after* the snapshot holding them
//! is durable, so a crash between journal append and snapshot commit replays
//! from the journal, and a crash between snapshot commit and prune merely
//! replays records recovery then recognizes (by watermark) as already
//! applied. A prune never touches the active segment, so a commit creates no
//! file: covered records there stay until the segment reaches its 4 MiB cap
//! and rotates like any other, and the next covering prune deletes it.
//! Recovery skips them by watermark, so at most one segment of covered
//! records outlives its snapshot. [`Journal::open`] rotates out an active
//! segment the watermark wholly covers, which restarts a quiet journal from
//! one empty segment.

use crate::store::fsync_dir;
use crate::{Result, ServeError};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use taf_wire::{crc32, Codec, Dec, Enc};
use tafloc_ingest::LinkSample;

/// Segment file magic: identifies a taflocd write-ahead journal segment.
pub const WAL_MAGIC: &[u8; 8] = b"TAFWAL01";

/// Journal format version.
pub const WAL_VERSION: u32 = 1;

/// Segment header length: magic plus version.
const HEADER_LEN: u64 = 12;

/// Frame overhead per record: length prefix plus checksum.
const FRAME_LEN: usize = 8;

/// The active segment rotates to a fresh one once it holds this many bytes.
/// Only sealed (rotated-away) segments are eligible for pruning.
const SEGMENT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// Knobs for the append path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalConfig {
    /// Group-commit window: `ZERO` fsyncs every append (maximum durability,
    /// one fsync per admitted batch); otherwise appends become durable at the
    /// next append/sync at least this long after the previous fsync.
    pub flush_interval: Duration,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { flush_interval: Duration::from_millis(25) }
    }
}

taf_wire::schema! {
    /// One replayable unit of admitted survey-path work.
    ///
    /// Live-window locate traffic is deliberately *not* journaled: those samples
    /// age out of the sliding window within seconds and rebuilding them after a
    /// restart would serve stale radio state (see DESIGN.md §9). The journal
    /// covers exactly the records whose loss would cost a re-survey.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalRecord: binary {
        /// An admitted reference-capture batch (`ingest` with a `ref_cell`).
        RefBatch = 1 {
            /// Reference slot the batch was captured at.
            ref_slot: usize,
            /// Deployment day of the capture.
            day: f64,
            /// The admitted samples, exactly as they passed admission.
            samples: Vec<LinkSample>,
        },
        /// A full measured-references survey (`measure-refs`).
        Survey = 2 {
            /// Deployment day of the survey.
            day: f64,
            /// Per-reference-slot measured columns (`n_refs` columns of `m`).
            columns: Vec<Vec<f64>>,
            /// Empty-room RSS measured alongside (may be empty to keep the old).
            empty: Vec<f64>,
        },
    }
}

fn encode_record(seq: u64, rec: &JournalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    seq.encode(&mut e);
    rec.encode(&mut e);
    e.into_inner()
}

fn decode_record(payload: &[u8]) -> Result<(u64, JournalRecord)> {
    let mut d = Dec::new(payload);
    let seq = u64::decode(&mut d)?;
    let rec = JournalRecord::decode(&mut d)?;
    d.finish()?;
    Ok((seq, rec))
}

/// A sealed (rotated-away) segment still on disk, prunable once a snapshot's
/// watermark passes its highest sequence number.
#[derive(Debug)]
struct Sealed {
    max_seq: u64,
    path: PathBuf,
}

#[derive(Debug)]
struct Inner {
    file: std::fs::File,
    path: PathBuf,
    index: u64,
    /// Bytes in the active segment including its header.
    bytes: u64,
    /// Records in the active segment (a header-only segment rotates
    /// without a seal).
    records: u64,
    next_seq: u64,
    max_seq: u64,
    dirty: bool,
    last_flush: Instant,
    sealed: Vec<Sealed>,
}

/// One scanned segment: its valid records, the byte length of the valid
/// prefix, and the file's total length on disk.
type ScannedSegment = (Vec<(u64, JournalRecord)>, u64, u64);

/// What [`Journal::open`] recovered from disk.
#[derive(Debug)]
pub struct JournalRecovery {
    /// Records beyond the caller's watermark, in append order, ready to be
    /// replayed through the ingest pipeline.
    pub records: Vec<(u64, JournalRecord)>,
    /// Bytes dropped by torn-tail truncation (0 on a clean shutdown).
    pub truncated_bytes: u64,
}

/// An append-only, checksummed, segment-rotated write-ahead log for one site.
pub struct Journal {
    dir: PathBuf,
    stem: String,
    config: JournalConfig,
    /// [`SEGMENT_MAX_BYTES`]; the rotation test lowers it.
    segment_max_bytes: u64,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("dir", &self.dir).field("stem", &self.stem).finish()
    }
}

fn store_err(what: &str, path: &Path, e: std::io::Error) -> ServeError {
    ServeError::Store(format!("{what} {}: {e}", path.display()))
}

impl Journal {
    fn segment_path(dir: &Path, stem: &str, index: u64) -> PathBuf {
        dir.join(format!("{stem}.{index:020}.wal"))
    }

    /// Opens (or creates) the journal for `stem` under `dir`, scanning every
    /// existing segment: torn tails are truncated, segments wholly at or
    /// below `watermark` are deleted (the active one is rotated out first),
    /// and the surviving records beyond the watermark are returned for
    /// replay. Appends resume with a sequence number above everything ever
    /// written.
    pub fn open(
        dir: &Path,
        stem: &str,
        config: JournalConfig,
        watermark: u64,
    ) -> Result<(Journal, JournalRecovery)> {
        std::fs::create_dir_all(dir).map_err(|e| store_err("cannot create", dir, e))?;
        let prefix = format!("{stem}.");
        let mut segments: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
            .map_err(|e| store_err("cannot scan", dir, e))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "wal")
                    && p.file_name().and_then(|f| f.to_str()).is_some_and(|f| {
                        f.strip_prefix(&prefix)
                            .and_then(|rest| rest.strip_suffix(".wal"))
                            .is_some_and(|idx| {
                                idx.len() == 20 && idx.bytes().all(|b| b.is_ascii_digit())
                            })
                    })
            })
            .filter_map(|p| {
                let idx = p
                    .file_name()?
                    .to_str()?
                    .strip_prefix(&prefix)?
                    .strip_suffix(".wal")?
                    .parse::<u64>()
                    .ok()?;
                Some((idx, p))
            })
            .collect();
        segments.sort();

        let mut records = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut max_seq = watermark;
        let mut torn_tail = false;
        let mut sealed = Vec::new();
        let mut active_records = 0u64;
        let last_index = segments.last().map(|(i, _)| *i);
        for (index, path) in &segments {
            let (seg_records, valid_len, total_len) = Journal::scan_segment(path)?;
            let is_last = Some(*index) == last_index;
            if valid_len < total_len {
                truncated_bytes += total_len - valid_len;
                torn_tail |= is_last;
                // Truncate the torn tail in place so the valid prefix is all
                // that remains — for the active segment so appends continue
                // from a clean end, for sealed ones so a rescan agrees.
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| store_err("cannot open", path, e))?;
                f.set_len(valid_len).map_err(|e| store_err("cannot truncate", path, e))?;
                f.sync_all().map_err(|e| store_err("cannot sync", path, e))?;
            }
            let seg_max = seg_records.iter().map(|(s, _)| *s).max().unwrap_or(0);
            max_seq = max_seq.max(seg_max);
            if is_last {
                active_records = seg_records.len() as u64;
            }
            for (seq, rec) in seg_records {
                if seq > watermark {
                    records.push((seq, rec));
                }
            }
            if !is_last {
                sealed.push(Sealed { max_seq: seg_max, path: path.clone() });
            }
        }
        // Replay strictly in append order even if a torn rotation interleaved
        // segment scans oddly.
        records.sort_by_key(|(seq, _)| *seq);

        let (index, path, file, bytes) = match segments.last() {
            Some((index, path)) => {
                let mut file = std::fs::OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(path)
                    .map_err(|e| store_err("cannot open", path, e))?;
                let bytes = file
                    .seek(std::io::SeekFrom::End(0))
                    .map_err(|e| store_err("cannot seek", path, e))?;
                (*index, path.clone(), file, bytes)
            }
            None => {
                let (path, file) = Journal::create_segment(dir, stem, 0)?;
                (0, path, file, HEADER_LEN)
            }
        };

        let journal = Journal {
            dir: dir.to_path_buf(),
            stem: stem.to_string(),
            config,
            segment_max_bytes: SEGMENT_MAX_BYTES,
            inner: Mutex::new(Inner {
                file,
                path,
                index,
                bytes,
                records: active_records,
                // A torn active tail means one append died mid-write; its
                // sequence number is skipped so no future record can ever be
                // confused with the lost one. (`max_seq` already starts at
                // the snapshot watermark, which covers sequence numbers that
                // were consumed into a durable snapshot but lost from an
                // unsynced journal tail.)
                next_seq: max_seq + if torn_tail { 2 } else { 1 },
                max_seq,
                dirty: false,
                last_flush: Instant::now(),
                sealed,
            }),
        };
        // Anything wholly covered by the snapshot is dead weight already,
        // the active segment included: rotate it out so the prune deletes it.
        {
            let mut inner = journal.inner.lock().unwrap_or_else(|p| p.into_inner());
            if inner.records > 0 && inner.max_seq <= watermark {
                journal.rotate_locked(&mut inner)?;
            }
        }
        journal.prune(watermark)?;
        Ok((journal, JournalRecovery { records, truncated_bytes }))
    }

    /// Creates a fresh segment: header written, fsynced, directory fsynced.
    fn create_segment(dir: &Path, stem: &str, index: u64) -> Result<(PathBuf, std::fs::File)> {
        let path = Journal::segment_path(dir, stem, index);
        let mut file = std::fs::OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| store_err("cannot create", &path, e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        file.write_all(&header).map_err(|e| store_err("cannot write", &path, e))?;
        file.sync_all().map_err(|e| store_err("cannot sync", &path, e))?;
        fsync_dir(dir).map_err(|e| store_err("cannot sync dir", dir, e))?;
        Ok((path, file))
    }

    /// Reads one segment, returning its valid records, the byte length of the
    /// valid prefix, and the file's total length. A bad header yields an
    /// empty segment whose valid prefix is just a fresh header (the file is
    /// rewritten by truncation at open).
    fn scan_segment(path: &Path) -> Result<ScannedSegment> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| store_err("cannot read", path, e))?;
        let total = bytes.len() as u64;
        if bytes.len() < HEADER_LEN as usize
            || &bytes[..8] != WAL_MAGIC
            || u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) != WAL_VERSION
        {
            return Err(store_err(
                "bad journal segment header in",
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, "magic/version mismatch"),
            ));
        }
        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        loop {
            if pos + FRAME_LEN > bytes.len() {
                break; // torn length/crc prefix (or clean end)
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
            let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
            let Some(end) = pos.checked_add(FRAME_LEN).and_then(|s| s.checked_add(len)) else {
                break;
            };
            if end > bytes.len() {
                break; // torn payload
            }
            let payload = &bytes[pos + FRAME_LEN..end];
            if crc32(payload) != stored_crc {
                break; // torn or bit-flipped payload: stop at the valid prefix
            }
            let Ok((seq, rec)) = decode_record(payload) else {
                break; // checksum ok but undecodable: treat as tail damage
            };
            records.push((seq, rec));
            pos = end;
        }
        Ok((records, pos as u64, total))
    }

    /// Appends one record, returning its sequence number. Durability follows
    /// the group-commit contract in the module docs.
    pub fn append(&self, rec: &JournalRecord) -> Result<u64> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let seq = inner.next_seq;
        let payload = encode_record(seq, rec);
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        inner.file.write_all(&frame).map_err(|e| store_err("cannot append", &inner.path, e))?;
        inner.next_seq = seq + 1;
        inner.max_seq = seq;
        inner.bytes += frame.len() as u64;
        inner.records += 1;
        inner.dirty = true;
        if self.config.flush_interval.is_zero()
            || inner.last_flush.elapsed() >= self.config.flush_interval
        {
            Journal::flush_locked(&mut inner)?;
        }
        if inner.bytes >= self.segment_max_bytes {
            self.rotate_locked(&mut inner)?;
        }
        Ok(seq)
    }

    fn flush_locked(inner: &mut Inner) -> Result<()> {
        if inner.dirty {
            inner.file.sync_data().map_err(|e| store_err("cannot sync", &inner.path, e))?;
            inner.dirty = false;
        }
        inner.last_flush = Instant::now();
        Ok(())
    }

    fn rotate_locked(&self, inner: &mut Inner) -> Result<()> {
        Journal::flush_locked(inner)?;
        let (path, file) = Journal::create_segment(&self.dir, &self.stem, inner.index + 1)?;
        if inner.records > 0 {
            let old = std::mem::replace(&mut inner.path, path);
            inner.sealed.push(Sealed { max_seq: inner.max_seq, path: old });
        } else {
            // Nothing in the old segment: replace it silently.
            let old = std::mem::replace(&mut inner.path, path);
            let _ = std::fs::remove_file(old);
        }
        inner.file = file;
        inner.index += 1;
        inner.bytes = HEADER_LEN;
        inner.records = 0;
        Ok(())
    }

    /// Forces any buffered appends to disk now (used by the maintenance tick
    /// to bound the group-commit window, and on clean shutdown).
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        Journal::flush_locked(&mut inner)
    }

    /// Deletes the sealed segments whose records all sit at or below
    /// `watermark` (their effects are in a durable snapshot). The active
    /// segment stays as it is, covered or not: it is deleted by the first
    /// covering prune after it rotates (see the module docs' *Pruning*).
    pub fn prune(&self, watermark: u64) -> Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut removed = false;
        inner.sealed.retain(|s| {
            if s.max_seq <= watermark {
                let _ = std::fs::remove_file(&s.path);
                removed = true;
                false
            } else {
                true
            }
        });
        if removed {
            fsync_dir(&self.dir).map_err(|e| store_err("cannot sync dir", &self.dir, e))?;
        }
        Ok(())
    }

    /// Highest sequence number ever handed out (0 if none).
    pub fn last_seq(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.next_seq - 1
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best-effort: a clean shutdown closes the group-commit window.
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tafloc-journal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn batch(slot: usize, day: f64, n: usize) -> JournalRecord {
        JournalRecord::RefBatch {
            ref_slot: slot,
            day,
            samples: (0..n)
                .map(|i| LinkSample::new(i, day * 86_400.0 + i as f64, -50.0 - i as f64))
                .collect(),
        }
    }

    fn strict() -> JournalConfig {
        JournalConfig { flush_interval: Duration::ZERO }
    }

    #[test]
    fn records_survive_reopen_and_replay_in_order() {
        let dir = temp_dir("roundtrip");
        let (j, rec) = Journal::open(&dir, "lab-00000000", strict(), 0).unwrap();
        assert!(rec.records.is_empty());
        let survey = JournalRecord::Survey {
            day: 90.0,
            columns: vec![vec![-50.0, -51.0], vec![-40.0, -41.0]],
            empty: vec![-38.0, -39.0],
        };
        assert_eq!(j.append(&batch(0, 90.0, 3)).unwrap(), 1);
        assert_eq!(j.append(&survey).unwrap(), 2);
        assert_eq!(j.append(&batch(1, 90.0, 2)).unwrap(), 3);
        drop(j);

        let (j, rec) = Journal::open(&dir, "lab-00000000", strict(), 0).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(rec.records[1].1, survey);
        assert_eq!(j.append(&batch(0, 91.0, 1)).unwrap(), 4, "seq continues after reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watermark_filters_already_applied_records() {
        let dir = temp_dir("watermark");
        let (j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        for i in 0..5 {
            j.append(&batch(i, 90.0, 1)).unwrap();
        }
        drop(j);
        let (_, rec) = Journal::open(&dir, "s-0", strict(), 3).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = temp_dir("torn");
        let (j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        j.append(&batch(0, 90.0, 4)).unwrap();
        j.append(&batch(1, 90.0, 4)).unwrap();
        drop(j);
        // Tear the tail mid-record, as a crash mid-append would.
        let seg = Journal::segment_path(&dir, "s-0", 0);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

        let (j, rec) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.records.len(), 1, "only the intact record survives");
        assert_eq!(rec.records[0].0, 1);
        // The torn seq is NOT reused: replayed state must never see two
        // different records under one sequence number.
        assert_eq!(j.append(&batch(2, 90.0, 1)).unwrap(), 3);
        drop(j);
        let (_, rec) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflip_stops_replay_at_the_valid_prefix() {
        let dir = temp_dir("bitflip");
        let (j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        j.append(&batch(0, 90.0, 4)).unwrap();
        j.append(&batch(1, 90.0, 4)).unwrap();
        j.append(&batch(2, 90.0, 4)).unwrap();
        drop(j);
        let seg = Journal::segment_path(&dir, "s-0", 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = HEADER_LEN as usize + (bytes.len() - HEADER_LEN as usize) / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&seg, &bytes).unwrap();

        let (_, rec) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        assert!(rec.records.len() < 3, "the damaged record and its suffix are dropped");
        assert!(rec.truncated_bytes > 0);
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "surviving prefix is contiguous");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_prune_respects_the_watermark() {
        let dir = temp_dir("rotate");
        let cfg = strict();
        let (mut j, _) = Journal::open(&dir, "s-0", cfg, 0).unwrap();
        j.segment_max_bytes = 256;
        for i in 0..8 {
            j.append(&batch(i, 90.0, 4)).unwrap();
        }
        let wal_count = |dir: &Path| {
            std::fs::read_dir(dir)
                .unwrap()
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
                .count()
        };
        assert!(wal_count(&dir) > 1, "tiny segment cap must have rotated");

        // Nothing may be pruned below the watermark…
        j.prune(3).unwrap();
        drop(j);
        let (j, rec) = Journal::open(&dir, "s-0", cfg, 3).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7, 8], "records above the watermark all survive");
        // …and once the watermark passes everything, the journal shrinks to
        // one empty segment.
        j.prune(8).unwrap();
        assert_eq!(wal_count(&dir), 1);
        drop(j);
        let (_, rec) = Journal::open(&dir, "s-0", cfg, 8).unwrap();
        assert!(rec.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_under_a_covering_watermark_leaves_one_empty_segment() {
        // `open` counts the active segment's records while scanning; the
        // prune it ends with rotates that segment out only if the count is
        // non-zero.
        let dir = temp_dir("reopen-covered");
        let (j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        for i in 0..3 {
            j.append(&batch(i, 90.0, 2)).unwrap();
        }
        drop(j);
        let (j, rec) = Journal::open(&dir, "s-0", strict(), 3).unwrap();
        assert!(rec.records.is_empty());
        assert!(!Journal::segment_path(&dir, "s-0", 0).exists(), "covered segment is pruned");
        assert!(Journal::segment_path(&dir, "s-0", 1).exists());
        assert_eq!(j.append(&batch(0, 91.0, 1)).unwrap(), 4);
        drop(j);
        let (_, rec) = Journal::open(&dir, "s-0", strict(), 3).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wal_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .collect();
        files.sort();
        files
    }

    fn active(j: &Journal) -> (u64, PathBuf) {
        let inner = j.inner.lock().unwrap();
        (inner.index, inner.path.clone())
    }

    #[test]
    fn a_prune_that_deletes_nothing_keeps_the_active_segment() {
        let dir = temp_dir("prune-keeps-active");
        let (j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        for i in 0..3 {
            j.append(&batch(i, 90.0, 2)).unwrap();
        }
        let (before, files) = (active(&j), wal_files(&dir));
        let len = std::fs::metadata(&before.1).unwrap().len();
        // Covering and not covering the active segment's records alike.
        j.prune(2).unwrap();
        j.prune(3).unwrap();
        assert_eq!(active(&j), before, "same segment index and file");
        assert_eq!(wal_files(&dir), files, "no file added or removed");
        assert_eq!(std::fs::metadata(&before.1).unwrap().len(), len);
        // Appends go on into the same file.
        assert_eq!(j.append(&batch(3, 90.0, 2)).unwrap(), 4);
        assert!(std::fs::metadata(&before.1).unwrap().len() > len);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn covered_records_left_in_the_active_segment_are_not_replayed() {
        let dir = temp_dir("covered-active");
        let (j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        for i in 0..3 {
            j.append(&batch(i, 90.0, 2)).unwrap();
        }
        // A snapshot covering 1..=3 commits, then one more record arrives.
        j.prune(3).unwrap();
        j.append(&batch(3, 91.0, 1)).unwrap();
        drop(j);
        let (j, rec) = Journal::open(&dir, "s-0", strict(), 3).unwrap();
        let seqs: Vec<u64> = rec.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4], "records at or below the watermark are skipped");
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(active(&j).0, 0, "a segment holding an uncovered record stays active");
        assert_eq!(j.append(&batch(4, 91.0, 1)).unwrap(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_rotated_at_the_cap_is_deleted_by_the_next_covering_prune() {
        let dir = temp_dir("rotated-then-pruned");
        let (mut j, _) = Journal::open(&dir, "s-0", strict(), 0).unwrap();
        j.segment_max_bytes = 256;
        // Covered records accumulate in the active segment until it rotates.
        let mut seq = 0;
        while active(&j).0 == 0 {
            j.prune(seq).unwrap();
            assert_eq!(wal_files(&dir).len(), 1, "no prune rotates the active segment");
            seq = j.append(&batch(0, 90.0, 2)).unwrap();
        }
        assert!(seq > 1, "the cap rotated a segment of several records");
        let sealed = Journal::segment_path(&dir, "s-0", 0);
        assert_eq!(wal_files(&dir), vec![sealed.clone(), active(&j).1]);
        // A prune below the sealed segment's last record keeps it…
        j.prune(seq - 1).unwrap();
        assert!(sealed.exists());
        // …and the next covering one deletes it, leaving the active one.
        j.prune(seq).unwrap();
        assert_eq!(wal_files(&dir), vec![active(&j).1]);
        drop(j);
        let (_, rec) = Journal::open(&dir, "s-0", strict(), seq).unwrap();
        assert!(rec.records.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_buffers_then_syncs_on_interval_or_demand() {
        let dir = temp_dir("groupcommit");
        let cfg = JournalConfig { flush_interval: Duration::from_secs(3600) };
        let (j, _) = Journal::open(&dir, "s-0", cfg, 0).unwrap();
        // These appends buffer (the interval is absurdly long)…
        j.append(&batch(0, 90.0, 2)).unwrap();
        j.append(&batch(1, 90.0, 2)).unwrap();
        // …but an explicit sync (the maintenance tick / shutdown path) and a
        // reopen must still see them: write() reached the file even if
        // fsync had not.
        j.sync().unwrap();
        drop(j);
        let (_, rec) = Journal::open(&dir, "s-0", cfg, 0).unwrap();
        assert_eq!(rec.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
