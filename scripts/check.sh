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
