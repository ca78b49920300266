//! Property tests for shard placement, [`shard_of`].
//!
//! Two invariants the sharded daemon leans on:
//!
//! 1. **Totality and purity** — every site name maps to exactly one shard in
//!    `0..shards`, at any shard count, and the same on every lookup; a
//!    restarted daemon therefore re-shards identically. `shard::tests`
//!    pins the placement of named sites.
//! 2. **Monotone resize** — growing from `N` to `N + 1` shards only moves
//!    keys *onto* the new shard (never between old shards), and moves
//!    roughly `K / (N + 1)` of `K` keys.

use proptest::collection::vec;
use proptest::prelude::*;
use tafloc_serve::shard::shard_of;

/// A synthetic site name from a raw 64-bit draw.
fn site_name(raw: u64) -> String {
    format!("site-{raw:016x}")
}

proptest! {
    #[test]
    fn every_site_maps_to_exactly_one_shard_in_range(
        (shards, keys) in (1usize..=64, vec(0u64..u64::MAX, 1..200)),
    ) {
        for raw in keys {
            let name = site_name(raw);
            let shard = shard_of(&name, shards);
            prop_assert!(shard < shards, "site {} mapped to shard {} of {}", name, shard, shards);
            // Repeat lookups are pure: same name, same count, same shard.
            prop_assert_eq!(shard_of(&name, shards), shard);
        }
    }

    #[test]
    fn resize_moves_only_onto_the_new_shard_and_few_keys(
        (shards, keys) in (1usize..=16, vec(0u64..u64::MAX, 50..400)),
    ) {
        let mut moved = 0usize;
        for raw in &keys {
            let name = site_name(*raw);
            let (old, new) = (shard_of(&name, shards), shard_of(&name, shards + 1));
            if old != new {
                // Jump hash is monotone: a key that moves can only land on
                // the shard that was just added.
                prop_assert_eq!(new, shards, "site {} moved {} -> {}", name, old, new);
                moved += 1;
            }
        }
        // Expect ~K/(N+1) moves; allow generous slack for small samples.
        let bound = 2 * keys.len() / (shards + 1) + 16;
        prop_assert!(moved <= bound, "{} of {} keys moved (bound {})", moved, keys.len(), bound);
    }
}
