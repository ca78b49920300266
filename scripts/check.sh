#!/usr/bin/env bash
# Pre-PR gate: everything CI would run, in the order that fails fastest.
#
#   ./scripts/check.sh
#
# Builds release artifacts, reruns the figure binaries against results/, runs
# the full test suite and the release-mode batteries, then lints (clippy at
# deny-warnings), builds the library docs with rustdoc warnings denied and
# checks formatting. Run from anywhere; it cd's to the workspace root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# results/: each committed file is the standard output of one figure binary
# run with the arguments in this table (EXPERIMENTS.md lists the same
# commands). Rerun every binary and compare its output with the committed
# file byte for byte; name each file that differs, then fail.
echo "==> results/*.txt  (figure binaries in release, byte for byte)"
results_differ=()
while read -r bin args; do
    # shellcheck disable=SC2086  # $args is a word list by design
    if ! "./target/release/$bin" $args 2>/dev/null | cmp -s - "results/$bin.txt"; then
        echo "results/$bin.txt differs from ./target/release/$bin${args:+ $args}"
        results_differ+=("$bin")
    fi
done <<'TABLE'
fig3 16 100
fig4
fig5 16 100 1
drift_check 100
ablation_rank 8 50
ablation_refs 8 50
ablation_terms 8 50
ablation_zpolicy 8 50
event_recovery 8 50
update_policy 4 40
link_sweep 3 40
multi_target 4 60
TABLE
if ((${#results_differ[@]})); then
    echo "results gate: ${#results_differ[@]} of 12 files differ"
    exit 1
fi

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

# The solver's contract is bit equality, and the daemon runs release builds:
# pin the bits under the release optimizer too — the solver's outputs, the
# one Cholesky routine factoring packed and dense triangles bit for bit like
# the textbook loop, and the sliced CRC-32 against the byte-at-a-time one
# that every frame, WAL record and snapshot checksum must equal.
echo "==> cargo test -q --release -p tafloc-core --test solver_bits --test determinism --test warm_start  (solver bits)"
cargo test -q --release -p tafloc-core --test solver_bits --test determinism --test warm_start

echo "==> cargo test -q --release -p taf-linalg --lib cholesky  (Cholesky bits, both layouts)"
cargo test -q --release -p taf-linalg --lib cholesky

echo "==> cargo test -q --release -p taf-wire --lib crc32  (CRC-32 against the bytewise definition)"
cargo test -q --release -p taf-wire --lib crc32

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# --lib: the `tafloc` binary and the `tafloc` library would otherwise write
# docs to the same output directory.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace --lib"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> all checks passed"
