#!/usr/bin/env bash
# Build wfbench offline and run it, from the root of a checkout:
#
#   benchmark/run.sh                         all five workloads, both passes
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selfcheck
#
# Without --trace a workload runs untraced (end-to-end metrics) and then
# traced (per-layer metrics). Every run prints one `name unit value` line
# per metric and ends with one JSON object on its last line; the run's
# JSON and trace-<workload>.json land in benchmark/out/. The exit code is
# non-zero only on a harness error: a product failure is counted in the
# result's `failed`, not raised.
set -euo pipefail

DIR="$(dirname "${BASH_SOURCE[0]}")"
# Defaults; BENCHMARK.json carries the same run_seconds for the driver.
SEED=1
SECONDS_PER_RUN=20
WORKLOADS=(solo_cold fleet_steady fleet_faulty fleet_parallel check_static)

workload=""; trace=""; selfcheck=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) SEED="$2"; shift 2 ;;
        --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --selfcheck) selfcheck=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Never --locked: Cargo.lock is not committed, the resolve is path-only.
# Build chatter goes to stderr so a run's last stdout line is its result.
export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet --manifest-path "$DIR/Cargo.toml" >&2
BIN="${CARGO_TARGET_DIR:-$DIR/target}/release/wfbench"

if [ "$selfcheck" = 1 ]; then
    exec "$BIN" --selfcheck --dir "$DIR"
fi

if [ -n "$workload" ]; then WORKLOADS=("$workload"); fi
PASSES=(0 1)
if [ -n "$trace" ]; then PASSES=("$trace"); fi
for w in "${WORKLOADS[@]}"; do
    for t in "${PASSES[@]}"; do
        echo "== $w --trace $t" >&2
        "$BIN" --workload "$w" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$t" --dir "$DIR"
    done
done
