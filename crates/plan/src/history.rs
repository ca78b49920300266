//! Bounded survey history.
//!
//! A budgeted refresh only re-measures part of the reference matrix; the
//! rest must come from somewhere. [`HistoryWindow`] keeps a bounded
//! (reference slot × epoch) ring of past survey columns so the serving plane
//! can seed every unplanned entry from the newest value it has actually
//! seen, while the per-entry `fresh` flags record which values were measured
//! this cycle and which are carried forward.

use std::collections::VecDeque;

use taf_wire::{Codec, Dec, Enc, WireError};

use crate::error::{PlanError, Result};

taf_wire::schema! {
    /// One reference-cell survey column as retained in history.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SurveyRecord: binary {
        /// Refresh epoch the column was captured in.
        pub epoch: u64,
        /// Per-link RSS values (dBm), length `n_links`.
        pub y: Vec<f64>,
        /// Per-link provenance: `true` where `y` came from a measurement taken
        /// in `epoch`, `false` where it was carried forward from older history.
        pub fresh: Vec<bool>,
    }
}

/// Bounded per-reference-slot ring of past surveys.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryWindow {
    n_links: usize,
    depth: usize,
    rings: Vec<VecDeque<SurveyRecord>>,
}

impl HistoryWindow {
    /// Empty history for `n_slots` reference slots over `n_links` links,
    /// retaining at most `depth` surveys per slot.
    pub fn new(n_slots: usize, n_links: usize, depth: usize) -> Result<Self> {
        if depth == 0 {
            return Err(PlanError::InvalidConfig {
                field: "depth",
                reason: "must be at least 1".into(),
            });
        }
        Ok(HistoryWindow { n_links, depth, rings: vec![VecDeque::new(); n_slots] })
    }

    /// Number of reference slots tracked.
    pub fn n_slots(&self) -> usize {
        self.rings.len()
    }

    /// Number of links per survey column.
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// Maximum surveys retained per slot.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Retained surveys for `slot`, oldest first. Persistence walks this and
    /// restoration replays the records through [`HistoryWindow::record`] in
    /// the same order, so a round trip preserves ring order exactly.
    pub fn records(&self, slot: usize) -> impl Iterator<Item = &SurveyRecord> {
        self.rings.get(slot).into_iter().flatten()
    }

    /// Appends a survey for `slot`, evicting the oldest once `depth` is
    /// exceeded.
    pub fn record(&mut self, slot: usize, record: SurveyRecord) -> Result<()> {
        if slot >= self.rings.len() {
            return Err(PlanError::DimensionMismatch {
                what: "history slot",
                expected: self.rings.len(),
                actual: slot,
            });
        }
        if record.y.len() != self.n_links || record.fresh.len() != self.n_links {
            return Err(PlanError::DimensionMismatch {
                what: "survey record",
                expected: self.n_links,
                actual: record.y.len().max(record.fresh.len()),
            });
        }
        let ring = &mut self.rings[slot];
        ring.push_back(record);
        while ring.len() > self.depth {
            ring.pop_front();
        }
        Ok(())
    }

    /// Newest retained survey for `slot`, if any.
    pub fn latest(&self, slot: usize) -> Option<&SurveyRecord> {
        self.rings.get(slot).and_then(|r| r.back())
    }

    /// Epoch of the newest retained survey for `slot`, if any.
    pub fn last_epoch(&self, slot: usize) -> Option<u64> {
        self.latest(slot).map(|r| r.epoch)
    }

    /// Per-slot last-surveyed epochs for [`PlanInputs::last_surveyed`],
    /// defaulting empty slots to epoch 0.
    ///
    /// [`PlanInputs::last_surveyed`]: crate::PlanInputs::last_surveyed
    pub fn last_surveyed(&self) -> Vec<u64> {
        (0..self.rings.len()).map(|s| self.last_epoch(s).unwrap_or(0)).collect()
    }
}

/// Shape, then each slot's retained records oldest-first (binary only).
/// Decoding replays every record through [`HistoryWindow::record`], so each
/// shape invariant the live path enforces also holds for recovered state.
impl Codec for HistoryWindow {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.n_slots());
        e.usize(self.n_links);
        e.usize(self.depth);
        for ring in &self.rings {
            e.usize(ring.len());
            for r in ring {
                r.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> taf_wire::Result<Self> {
        // Each slot carries at least its record count, so a slot count above
        // the bytes left is corrupt; reject it before it sizes the window.
        let n_slots = d.count()?;
        let mut h = HistoryWindow::new(n_slots, d.usize()?, d.usize()?)
            .map_err(|e| WireError::Malformed(format!("history window: {e}")))?;
        for slot in 0..n_slots {
            for _ in 0..d.count()? {
                h.record(slot, SurveyRecord::decode(d)?)
                    .map_err(|e| WireError::Malformed(format!("history slot {slot}: {e}")))?;
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64, value: f64) -> SurveyRecord {
        SurveyRecord { epoch, y: vec![value; 3], fresh: vec![true; 3] }
    }

    #[test]
    fn ring_is_bounded_and_latest_wins() {
        let mut h = HistoryWindow::new(2, 3, 2).unwrap();
        assert!(h.latest(0).is_none());
        for e in 1..=5 {
            h.record(0, rec(e, -40.0 - e as f64)).unwrap();
        }
        assert_eq!(h.last_epoch(0), Some(5));
        assert_eq!(h.latest(0).unwrap().y, vec![-45.0; 3]);
        assert_eq!(h.rings[0].len(), 2, "depth bound must hold");
        assert_eq!(h.last_surveyed(), vec![5, 0]);
    }

    #[test]
    fn shape_violations_are_rejected() {
        let mut h = HistoryWindow::new(1, 3, 1).unwrap();
        assert!(h.record(1, rec(0, -40.0)).is_err(), "slot out of range");
        let short = SurveyRecord { epoch: 0, y: vec![-40.0; 2], fresh: vec![true; 2] };
        assert!(h.record(0, short).is_err(), "wrong column length");
        assert!(HistoryWindow::new(1, 3, 0).is_err(), "zero depth");
    }

    #[test]
    fn records_iterate_oldest_first_within_the_depth() {
        let mut h = HistoryWindow::new(1, 3, 3).unwrap();
        for e in 1..=4 {
            h.record(0, rec(e, -40.0)).unwrap();
        }
        let epochs: Vec<u64> = h.records(0).map(|r| r.epoch).collect();
        assert_eq!(epochs, [2, 3, 4]);
        assert_eq!(h.records(7).count(), 0, "an unknown slot has no records");
        assert_eq!(h.latest(7), None);
    }

    #[test]
    fn slots_are_independent() {
        let mut h = HistoryWindow::new(3, 3, 1).unwrap();
        assert_eq!((h.n_slots(), h.n_links(), h.depth()), (3, 3, 1));
        h.record(2, rec(9, -50.0)).unwrap();
        h.record(0, rec(4, -60.0)).unwrap();
        assert_eq!(h.last_surveyed(), vec![4, 0, 9]);
        assert_eq!(h.latest(2).unwrap().y, vec![-50.0; 3]);
    }

    #[test]
    fn fresh_flags_must_cover_every_link() {
        let mut h = HistoryWindow::new(1, 3, 1).unwrap();
        let ragged = SurveyRecord { epoch: 1, y: vec![-40.0; 3], fresh: vec![true; 4] };
        assert_eq!(
            h.record(0, ragged),
            Err(PlanError::DimensionMismatch { what: "survey record", expected: 3, actual: 4 })
        );
        assert!(h.latest(0).is_none(), "a rejected record is not kept");
    }
}
