//! Property tests for the consistent-hash shard ring.
//!
//! Three invariants the sharded daemon leans on:
//!
//! 1. **Totality** — every site name maps to exactly one shard in
//!    `0..shards`, at any shard count.
//! 2. **Monotone resize** — growing the ring from `N` to `N + 1` shards only
//!    moves keys *onto* the new shard (never between old shards), and moves
//!    roughly `K / (N + 1)` of `K` keys.
//! 3. **Determinism** — two rings built with the same seed and count agree on
//!    every assignment; a restarted daemon therefore re-shards identically.

use proptest::collection::vec;
use proptest::prelude::*;
use tafloc_serve::shard::{ShardRing, DEFAULT_SHARD_SEED};

/// A synthetic site name from a raw 64-bit draw.
fn site_name(raw: u64) -> String {
    format!("site-{raw:016x}")
}

proptest! {
    #[test]
    fn every_site_maps_to_exactly_one_shard_in_range(
        (shards, keys) in (1usize..=64, vec(0u64..u64::MAX, 1..200)),
    ) {
        let ring = ShardRing::new(shards, DEFAULT_SHARD_SEED);
        prop_assert_eq!(ring.shards(), shards);
        for raw in keys {
            let name = site_name(raw);
            let shard = ring.shard_of(&name);
            prop_assert!(shard < shards, "site {} mapped to shard {} of {}", name, shard, shards);
            // Repeat lookups are pure: same ring, same name, same shard.
            prop_assert_eq!(ring.shard_of(&name), shard);
        }
    }

    #[test]
    fn resize_moves_only_onto_the_new_shard_and_few_keys(
        (shards, seed, keys) in (1usize..=16, 0u64..u64::MAX, vec(0u64..u64::MAX, 50..400)),
    ) {
        let before = ShardRing::new(shards, seed);
        let after = ShardRing::new(shards + 1, seed);
        let mut moved = 0usize;
        for raw in &keys {
            let name = site_name(*raw);
            let (old, new) = (before.shard_of(&name), after.shard_of(&name));
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

    #[test]
    fn same_seed_rings_are_identical_and_different_seeds_are_not_degenerate(
        (shards, seed, keys) in (2usize..=16, 0u64..u64::MAX, vec(0u64..u64::MAX, 100..300)),
    ) {
        let a = ShardRing::new(shards, seed);
        let b = ShardRing::new(shards, seed);
        prop_assert_eq!(a.seed(), b.seed());
        let other = ShardRing::new(shards, seed ^ 0x5bd1_e995_9d1b_54a5);
        let mut disagreements = 0usize;
        for raw in &keys {
            let name = site_name(*raw);
            // Restart-identical: assignment is a pure function of (seed, N).
            prop_assert_eq!(a.shard_of(&name), b.shard_of(&name));
            if a.shard_of(&name) != other.shard_of(&name) {
                disagreements += 1;
            }
        }
        // The seed genuinely participates: a different seed reshuffles a
        // non-trivial fraction of keys (expected (N-1)/N of them).
        prop_assert!(
            disagreements > keys.len() / 4,
            "only {} of {} keys reassigned under a different seed",
            disagreements,
            keys.len()
        );
    }
}
