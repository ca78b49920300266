#!/usr/bin/env bash
# Solver performance gate: re-runs solver_bench and fails if the fresh
# cold wall time regresses more than BENCH_GATE_THRESHOLD (default 1.25,
# i.e. +25%) against the committed BENCH_solver.json, or if any mode that
# converged there now stops on max_iters.
#
#   ./scripts/bench_gate.sh
#
# The committed file is the tracked baseline; the fresh run overwrites it in
# the working tree (CI uploads the fresh file as an artifact, it is never
# committed from CI). Machine-to-machine variance is real — the threshold is
# deliberately loose, and BENCH_GATE_THRESHOLD can be raised for a known-slow
# runner. A *faster* machine trivially passes; the gate only catches changes
# that make the solver substantially slower on comparable hardware.

set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${BENCH_GATE_THRESHOLD:-1.25}"
baseline=BENCH_solver.json

if [ ! -f "$baseline" ]; then
  echo "bench_gate: no committed $baseline to compare against" >&2
  exit 1
fi

# The canonical emitter writes one field per line in a fixed order, with the
# cold phase first; the first wall_ms belongs to it.
wall_ms_1() { grep -m1 '"wall_ms"' "$1" | tr -cd '0-9.'; }
# One "mode stop_reason" line per results[] row, in emitted order.
string_field() { grep "\"$2\"" "$1" | sed 's/.*: *"\([^"]*\)".*/\1/'; }
stop_reasons() { paste -d' ' <(string_field "$1" mode) <(string_field "$1" stop_reason); }
# Top-level scalar field (key before value, value may be fractional).
scalar() { grep -m1 "\"$2\"" "$1" | sed 's/.*: *//' | tr -cd '0-9.'; }

old_ms="$(wall_ms_1 "$baseline")"
old_stops="$(stop_reasons "$baseline")"
echo "bench_gate: committed cold wall time: ${old_ms} ms (threshold x${threshold})"

cargo run --release -p taf-bench --bin solver_bench

new_ms="$(wall_ms_1 "$baseline")"
new_stops="$(stop_reasons "$baseline")"
echo "bench_gate: fresh cold wall time: ${new_ms} ms"

# Convergence is part of the recorded contract, row by row: once the
# committed baseline says a mode converges, a fresh run of that mode that
# stops on max_iters is a real behavioral regression (the timing comparison
# would be meaningless anyway — the two runs did different amounts of work).
# Hard-fail it. A mode that never converged, or is new, stays advisory.
lost=0
while read -r mode new_stop; do
  old_stop="$(awk -v m="$mode" '$1 == m { print $2 }' <<< "$old_stops")"
  if [ "$new_stop" = "max_iters" ] && [ "$old_stop" = "converged" ]; then
    echo "bench_gate: FAIL — $mode solve no longer converges (stop_reason went" \
         "converged -> max_iters); check final_rel_delta in $baseline" >&2
    lost=1
  elif [ "$new_stop" = "max_iters" ]; then
    echo "bench_gate: note — $mode solve stops at max_iters (baseline: ${old_stop:-none})"
  fi
done <<< "$new_stops"
if [ "$lost" -ne 0 ]; then
  exit 1
fi

if awk -v new="$new_ms" -v old="$old_ms" -v t="$threshold" \
    'BEGIN { exit !(new <= old * t) }'; then
  echo "bench_gate: OK (${new_ms} ms <= ${old_ms} ms x ${threshold})"
else
  echo "bench_gate: FAIL — solver regressed: ${new_ms} ms > ${old_ms} ms x ${threshold}" >&2
  exit 1
fi

# Warm-start visibility: surface the recorded cold/warm iteration counts so a
# log reader sees the adaptive-refresh win (the CI assertion lives in the
# bench-smoke job).
cold_iters="$(scalar "$baseline" cold_iterations || true)"
warm_iters="$(scalar "$baseline" warm_iterations || true)"
if [ -n "$cold_iters" ] && [ -n "$warm_iters" ]; then
  echo "bench_gate: warm refresh ${warm_iters} iters vs ${cold_iters} cold"
fi

# ---------------------------------------------------------------------------
# Serve-throughput gate (warn-only): re-runs serve_bench --quick and warns if
# v1 or v2 locate throughput drops below baseline/threshold. Throughput on a
# loaded CI runner is far noisier than solver wall time, so this never fails
# the build — it exists to make wire-protocol regressions visible in the log.
# ---------------------------------------------------------------------------

serve_baseline=BENCH_serve.json
# Strip through the key and colon before keeping digits — the key itself
# contains digits ("v1_...") that would otherwise prefix the value.
field() { grep -m1 "\"$2\"" "$1" | sed 's/.*: *//' | tr -cd '0-9.'; }

if [ ! -f "$serve_baseline" ] || ! grep -q '"v1_locate_req_per_s"' "$serve_baseline"; then
  echo "bench_gate: no serve throughput baseline — creating one with serve_bench --quick"
  cargo run --release -p taf-bench --bin serve_bench -- --quick
else
  old_v1="$(field "$serve_baseline" v1_locate_req_per_s)"
  old_v2="$(field "$serve_baseline" v2_locate_req_per_s)"
  echo "bench_gate: committed serve throughput: v1 ${old_v1} req/s, v2 ${old_v2} req/s (warn below /${threshold})"
  cargo run --release -p taf-bench --bin serve_bench -- --quick
  new_v1="$(field "$serve_baseline" v1_locate_req_per_s)"
  new_v2="$(field "$serve_baseline" v2_locate_req_per_s)"
  echo "bench_gate: fresh serve throughput: v1 ${new_v1} req/s, v2 ${new_v2} req/s"
  for proto in v1 v2; do
    old_var="old_$proto"; new_var="new_$proto"
    if awk -v new="${!new_var}" -v old="${!old_var}" -v t="$threshold" \
        'BEGIN { exit !(new * t >= old) }'; then
      echo "bench_gate: serve $proto OK (${!new_var} req/s vs ${!old_var} req/s baseline)"
    else
      echo "bench_gate: WARNING — serve $proto throughput regressed:" \
           "${!new_var} req/s < ${!old_var} req/s / ${threshold}" >&2
    fi
  done
fi

# ---------------------------------------------------------------------------
# Sharded serve phase (warn-only): the fresh serve run must include the
# many-site sharded phase. Admission conservation under sharded load
# (offered == admitted + deferred + rejected) is a hard assertion in the
# daemon's gate tests (shard.rs, shard_serving.rs), not a bench signal.
# ---------------------------------------------------------------------------

if grep -q '"sharded"' "$serve_baseline"; then
  sharded_rps="$(field "$serve_baseline" locate_req_per_s)"
  echo "bench_gate: sharded serve phase present (${sharded_rps} locate req/s across shards)"
else
  echo "bench_gate: WARNING — $serve_baseline has no sharded many-site phase" >&2
fi
