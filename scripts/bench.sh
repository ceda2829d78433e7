#!/usr/bin/env bash
# Performance gate: build and run the offline perf probe, refreshing
# BENCH_algebra.json at the repository root with before/after medians for
# the arena/automaton hot paths (residuation, machine compilation, the
# end-to-end pipeline10 schedule),
# BENCH_obs.json with the flight recorder's recorder-on vs recorder-off
# end-to-end delta, BENCH_monitor.json with the online runtime monitors'
# armed vs disarmed end-to-end delta (the fused scheduler-stepped path,
# the legacy sink-driven oracle for comparison, and a monitored
# multi-tenant fleet's throughput), and BENCH_scale.json with the
# multi-tenant engine's throughput on a 1,000-instance open-loop fleet
# (120 instances in --quick mode) run with monitors armed and per-shard
# telemetry recorded. (The parallel fleet is measured by
# `benchmark/run.sh --workload fleet_parallel`, on real worker threads,
# and the static checker's product search by `--workload check_static`.)
#
#   scripts/bench.sh            full probe, then the algebra bench
#                               (crates/bench/benches/algebra.rs)
#   scripts/bench.sh --quick    smoke mode: few iterations, probe only
#
# The probe's JSON files are the artifacts; the algebra bench prints the
# same before/after pairs timed in isolation.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"

QUICK=""
if [ "${1:-}" = "--quick" ]; then
    QUICK="--quick"
fi

echo "==> cargo build --release --offline --bin perfprobe"
cargo build --release --offline --bin perfprobe

echo "==> perfprobe ${QUICK:-(full)}"
"$REPO/target/release/perfprobe" $QUICK \
    --spec "$REPO/examples/specs/pipeline10.wf" \
    --out "$REPO/BENCH_algebra.json" \
    --obs-out "$REPO/BENCH_obs.json" \
    --monitor-out "$REPO/BENCH_monitor.json"

echo "==> perfprobe --scale-out ${QUICK:-(full, 1000 instances)}"
"$REPO/target/release/perfprobe" $QUICK --scale-out "$REPO/BENCH_scale.json"

if [ -z "$QUICK" ]; then
    echo "==> cargo bench --offline -p bench --bench algebra"
    cargo bench --offline -p bench --bench algebra
fi

echo "==> bench gate done: $REPO/BENCH_algebra.json, $REPO/BENCH_obs.json, $REPO/BENCH_monitor.json, $REPO/BENCH_scale.json"
