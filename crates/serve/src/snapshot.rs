//! `SnapshotCell`: an atomically swappable, immutable snapshot slot.
//!
//! The serving hot path must never wait behind a refresh. LoLi-IR takes
//! hundreds of milliseconds; a `locate` takes microseconds. The contract here
//! is the classic read-copy-update shape:
//!
//! * readers call [`SnapshotCell::load`] and get an `Arc` to an **immutable**
//!   snapshot; everything they do afterwards touches no shared mutable state;
//! * the refresher builds the *next* snapshot entirely off to the side and
//!   publishes it with one pointer [`SnapshotCell::store`]; readers holding
//!   the old `Arc` finish on the old (still valid) state.
//!
//! Within the std-only dependency budget the swap point is an `RwLock<Arc<T>>`
//! whose critical sections contain exactly one `Arc` clone or one pointer
//! assignment — nanoseconds, never held across any computation, and never
//! contended by design (one refresher per site). The request path is
//! *wait-free in practice*: no reader ever blocks behind reconstruction, and
//! the lock can only be observed held for the duration of a pointer copy.

use std::sync::{Arc, RwLock};

/// An atomically swappable slot holding an immutable snapshot.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: T) -> Self {
        SnapshotCell { slot: RwLock::new(Arc::new(value)) }
    }

    /// Returns the current snapshot. The caller's view is frozen: later
    /// [`store`](SnapshotCell::store) calls do not affect it.
    pub fn load(&self) -> Arc<T> {
        // A poisoned lock only means a writer panicked mid-swap; the Arc in
        // the slot is still a complete snapshot, so recover it.
        match self.slot.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Publishes `value` as the new snapshot, returning the one it replaced.
    pub fn store(&self, value: T) -> Arc<T> {
        let next = Arc::new(value);
        let mut g = match self.slot.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        std::mem::replace(&mut *g, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn load_is_frozen_across_store() {
        let cell = SnapshotCell::new(1u64);
        let before = cell.load();
        let old = cell.store(2);
        assert_eq!(*before, 1);
        assert_eq!(*old, 1);
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn a_poisoned_cell_keeps_serving_and_accepting_snapshots() {
        let cell = Arc::new(SnapshotCell::new(vec![1u8, 2, 3]));
        let poisoner = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                let _guard = cell.slot.write().unwrap();
                panic!("writer dies holding the slot");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(cell.slot.is_poisoned());
        assert_eq!(*cell.load(), [1, 2, 3], "the last complete snapshot stays readable");
        assert_eq!(*cell.store(vec![4]), [1, 2, 3]);
        assert_eq!(*cell.load(), [4]);
    }

    #[test]
    fn concurrent_readers_always_see_a_complete_snapshot() {
        // Snapshots are (n, n * 7): a torn read would break the invariant.
        // Readers do a fixed amount of work while a writer stores until they
        // finish, so the test cannot depend on scheduling order.
        let cell = Arc::new(SnapshotCell::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let cell = cell.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += 1;
                    cell.store((n, n * 7));
                }
                n
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = cell.clone();
                std::thread::spawn(move || {
                    // Start only once the writer has stored, so the reads
                    // overlap the writes even if the writer starts late.
                    while cell.load().0 == 0 {
                        std::thread::yield_now();
                    }
                    for _ in 0..2000 {
                        let s = cell.load();
                        assert_eq!(s.1, s.0 * 7, "torn snapshot");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let stores = writer.join().unwrap();
        assert!(stores > 0);
        assert_eq!(cell.load().0, stores);
    }
}
