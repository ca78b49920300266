#!/usr/bin/env bash
# Pre-PR gate: everything CI would run, in the order that fails fastest.
#
#   ./scripts/check.sh
#
# Builds release artifacts, runs the full test suite, then lints (clippy at
# deny-warnings) and checks formatting. Run from anywhere; it cd's to the
# workspace root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -p tafloc-serve --test protocol_fuzz  (decoder fuzz)"
cargo test -q -p tafloc-serve --test protocol_fuzz

# The wire crate is the serialization boundary for the whole serve plane;
# gate it by name, plus the end-to-end conformance suite (round-trips, derive
# byte-compat, version negotiation).
echo "==> cargo test -q -p taf-wire  (wire codecs)"
cargo test -q -p taf-wire

echo "==> cargo test -q -p tafloc-serve --test wire_roundtrip  (wire conformance)"
cargo test -q -p tafloc-serve --test wire_roundtrip

# Sharding gates, by name: the ring proptests, the admission-control
# conservation test, and the kill-9/restart battery (shard_serving runs the
# daemon at both --shards 1 and --shards 4).
echo "==> cargo test -q -p tafloc-serve --test shard_ring  (shard ring proptests)"
cargo test -q -p tafloc-serve --test shard_ring

echo "==> cargo test -q -p tafloc-ingest --test backpressure  (admission conservation)"
cargo test -q -p tafloc-ingest --test backpressure

echo "==> cargo test -q -p tafloc-serve --test shard_serving  (sharded daemon battery)"
cargo test -q -p tafloc-serve --test shard_serving

# crash-harness: the kill -9 battery in release mode — journaled survey
# replay, capture-round recovery, plan/warm resumption, all with torn-write
# damage injected between kill and restart — plus the store-corruption
# proptests and the scenario-level crash knobs against their goldens.
echo "==> cargo test -q --release -p tafloc-serve --test crash_harness  (kill -9 battery)"
cargo test -q --release -p tafloc-serve --test crash_harness

echo "==> cargo test -q --release -p tafloc-serve --test restart  (recovery battery)"
cargo test -q --release -p tafloc-serve --test restart

echo "==> cargo test -q --release -p tafloc-serve --test store_robustness  (corruption proptests)"
cargo test -q --release -p tafloc-serve --test store_robustness

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> all checks passed"
