#!/usr/bin/env bash
# Tier-1 gate: everything a merge must pass. The workspace has no
# registry dependencies, so every cargo call runs `--offline` and this is
# the one way the code is built and tested: build, test (property suites
# included), benches built, clippy, fmt, rustdoc with warnings denied (a
# deleted public name may not leave a dangling intra-doc link), the CLI
# smokes (with a ceiling on the product states wfcheck explores per
# example spec, and six malformed inputs — two hostile nestings, two bad
# agent declarations, two complements of a non-atom — that must come back
# as positioned errors, not crashes), a 13-way join `a < bᵢ` that must
# fire `a` (`wftrace explain` verifies its chain, `wftrace monitor` finds
# no alert), the eight experiment binaries'
# stdout diffed against `crates/bench/golden/<bin>.txt` (they are
# deterministic: the distributed, polled and both centralized schedulers
# must not move an occurrence, a message or a tick) and the benchmark's
# own selfcheck. It ends by printing the product-source line total
# (`scripts/loc.sh`), the "lines removed" metric, and, weighted over the
# benchmark's `solo_cold` mix (the cold budget test, release profile),
# the allocations per cold solo operation and, next to them, those of
# the first read of its report's metrics snapshot, which renders it and
# which no timed operation makes, and, weighted over the `check_static`
# mix (the static check budget test, release profile), the allocations
# per static check; so every gate run reports all four. Last, from one
# release run of `routing_props`' report test, the fault-free messages
# per event of each of its templates over seeds 1-3, plain and on the
# hardened transport: a report, not a gate, so that every change to the
# protocol's message count shows on every gate run.
#
# `check.sh --faults` runs the fault-conformance tier instead: the
# `conformance` driver sweeps every example spec, then the four model
# sagas (two to four steps, one with an aborting step: the workflows
# whose not-yet holds a lost message can orphan), through the standard
# fault-plan matrix (clean, drop20, dup20, jitter, partition, crash,
# chaos) on fixed seeds with a hard step budget. Budgeted to finish well
# under a minute. Since the conformance harness arms the online monitors
# by default, this tier also proves zero false alerts under faults.
#
# `check.sh --monitors` runs the runtime-verification tier: record the
# travel workflow, replay the recording through the derived dependency
# and guard monitors (`wftrace monitor` must exit clean), and walk a
# causal path from the buy-commit attempt to its firing (`wftrace query
# --from/--to` must verify every hop by happens-before precedence). Then
# record travel hardened under the `crash` plan: the recording must pass
# the causal audit (`wftrace audit`) and hold the crashed node's
# `wal_replay` span (`wftrace query --kind wal_replay`).
#
# `check.sh --scale` runs the multi-tenant tier: `conformance --tenant`
# executes one mixed fleet of the clean example specs (40 instances per
# spec, monitors armed) through `dist::run_tenant`, fault-free and under
# the chaos plan, at one shard and at two; every instance must quiesce,
# raise no monitor violation and equal its isolated run. One more leg
# runs it fault-free with the flight recorder on: every instance's
# recording must be complete, causally sound and its isolated run's span
# for span. The same fleet then runs through `dist::run_parallel_fleet`
# on two worker threads and must equal the fault-free tenant fleet
# instance by instance on the fleet clock. Fleet speed is measured by
# `benchmark/run.sh --workload fleet_steady | fleet_parallel`, not gated
# here.
#
# `check.sh --obs` runs the always-on observability tier: the
# `conformance --monitor-equiv` audit proves the fused (scheduler-stepped)
# monitor produces the same verdicts, counters, and alerts as a replay of
# the same run's flight recording across the standard fault-plan matrix
# on 20 seeds, for travel, pipeline10 and then the four model sagas
# (whose not-yet agreements hold events still, and an enabled verdict
# that waits on a hold is the one the fused monitor watches). The monitored fleet (all quiescent, zero violations) is
# `--scale`'s `conformance --tenant`, command for command, so it runs
# there and not a second time here.
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"

if [ "${1:-}" = "--monitors" ]; then
    echo "==> cargo build --release --offline --bin wftrace"
    cargo build --release --offline --bin wftrace
    WFTRACE="$REPO/target/release/wftrace"
    TRACE_TMP="$(mktemp -d)"
    trap 'rm -rf "$TRACE_TMP"' EXIT
    echo "==> record travel -> wftrace monitor (must be alert-free)"
    "$WFTRACE" record --spec "$REPO/examples/specs/travel.wf" \
        --out "$TRACE_TMP/travel.trace.json" --seed 3
    "$WFTRACE" monitor "$TRACE_TMP/travel.trace.json" > "$TRACE_TMP/monitor.out"
    grep -q "alerts: none" "$TRACE_TMP/monitor.out"
    echo "==> wftrace query: causal path attempt:buy::commit -> occurred:buy::commit"
    "$WFTRACE" query --from attempt:buy::commit --to occurred:buy::commit \
        "$TRACE_TMP/travel.trace.json" > "$TRACE_TMP/query.out"
    grep -q "edges verified by happens-before precedence" "$TRACE_TMP/query.out"
    echo "==> record travel under the crash plan -> wftrace audit clean, wal_replay recorded"
    "$WFTRACE" record --spec "$REPO/examples/specs/travel.wf" \
        --out "$TRACE_TMP/crash.trace.json" --seed 3 --plan crash
    "$WFTRACE" audit "$TRACE_TMP/crash.trace.json" > "$TRACE_TMP/audit.out"
    grep -q "causal audit: ok" "$TRACE_TMP/audit.out"
    "$WFTRACE" query --kind wal_replay "$TRACE_TMP/crash.trace.json" > "$TRACE_TMP/replay.out"
    grep -q "wal replay" "$TRACE_TMP/replay.out"
    echo "==> monitor tier passed"
    exit 0
fi

if [ "${1:-}" = "--scale" ]; then
    echo "==> cargo build --release --offline --bin conformance"
    cargo build --release --offline --bin conformance
    echo "==> conformance --tenant (mixed fleet: clean and chaos, 1 and 2 shards; recorded; parallel fleet at 2 workers)"
    "$REPO/target/release/conformance" --tenant
    echo "==> scale tier passed"
    exit 0
fi

if [ "${1:-}" = "--obs" ]; then
    echo "==> cargo build --release --offline --bin conformance"
    cargo build --release --offline --bin conformance
    echo "==> conformance --monitor-equiv (fused monitor vs replayed recording, 20 seeds; specs, then the model sagas)"
    "$REPO/target/release/conformance" --monitor-equiv --seeds 20 \
        "$REPO/examples/specs/travel.wf" "$REPO/examples/specs/pipeline10.wf"
    echo "==> obs tier passed"
    exit 0
fi

if [ "${1:-}" = "--faults" ]; then
    echo "==> cargo build --release --offline --bin conformance"
    cargo build --release --offline --bin conformance
    echo "==> conformance over examples/specs/*.wf and the model sagas x fault matrix"
    "$REPO/target/release/conformance" --seeds 8 --max-steps 2000000 \
        "$REPO"/examples/specs/*.wf
    echo "==> fault tier passed"
    exit 0
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo bench --no-run --offline"
cargo bench --no-run --offline

echo "==> cargo clippy --offline --all-targets -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps --offline (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

echo "==> wfcheck --deny warnings over example specs"
WFCHECK="$REPO/target/release/wfcheck"
specs=("$REPO"/examples/specs/*.wf)
"$WFCHECK" --deny warnings "${specs[@]}"

echo "==> wfcheck --json: every example spec decided within 1000 product states"
# Counts, so host-independent: the search regressing to enumerating
# interleavings shows here (pipeline10 took 5 825 states when it did),
# and so does the compile going back to one synthesis per dependency
# instead of one per shape (pipeline10's nine dependencies are one shape).
STATES_TMP="$(mktemp)"
"$WFCHECK" --json "${specs[@]}" > "$STATES_TMP"
python3 - "$STATES_TMP" <<'PY'
import json, sys
reports = [json.loads(line) for line in open(sys.argv[1])]
assert reports, "wfcheck printed no report"
for r in reports:
    assert r["incomplete"] is False, f"{r['file']}: verdict incomplete"
    assert r["states_explored"] <= 1000, (
        f"{r['file']}: {r['states_explored']} product states explored")
    assert r["dependency_shapes"] <= r["dependencies"], (
        f"{r['file']}: {r['dependency_shapes']} shapes of {r['dependencies']} dependencies")
    if r["file"].endswith("pipeline10.wf"):
        assert r["dependency_shapes"] == 1, (
            f"{r['file']}: {r['dependency_shapes']} dependency shapes, expected 1")
    print(f"  {r['file']}: {r['states_explored']} states, "
          f"{r['dependency_shapes']} shape(s) of {r['dependencies']} dependencies")
PY
rm -f "$STATES_TMP"

echo "==> wftrace smoke: record travel -> explain -> export --chrome"
WFTRACE="$REPO/target/release/wftrace"
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
"$WFTRACE" record --spec "$REPO/examples/specs/travel.wf" \
    --out "$TRACE_TMP/travel.trace.json" --seed 3
"$WFTRACE" explain --event buy::commit "$TRACE_TMP/travel.trace.json" \
    | grep -q "chain verified"
"$WFTRACE" audit "$TRACE_TMP/travel.trace.json"
"$WFTRACE" export --chrome --out "$TRACE_TMP/travel.chrome.json" \
    "$TRACE_TMP/travel.trace.json"
python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'empty trace'" \
    "$TRACE_TMP/travel.chrome.json"

echo "==> malformed-input smokes: hostile nesting, bad agent declarations and complements of non-atoms are errors with a position, never a stack overflow (exit 134) or a panic (exit 101)"
# 10 000 parentheses in a dependency, 200 000 brackets of JSON; an agent
# of no library kind, an agent scripted with an event it does not have;
# `~` and `->` applied to a choice.
python3 - "$TRACE_TMP" <<'PY'
import sys
d = sys.argv[1]
open(f"{d}/deep.wf", "w").write("workflow x {\n  dep d: " + "(" * 10000 + "e" + ")" * 10000 + ";\n}\n")
open(f"{d}/deep.json", "w").write("[" * 200000)
open(f"{d}/kind.wf", "w").write("workflow x {\n  agent buy: frob { script: start, commit };\n}\n")
open(f"{d}/step.wf", "w").write("workflow x {\n  agent buy: rda { script: start, frobnicate };\n}\n")
open(f"{d}/not.wf", "w").write("workflow x {\n  dep d: ~(a + b);\n}\n")
open(f"{d}/arrow.wf", "w").write("workflow x {\n  dep d: (a + b) -> c;\n}\n")
PY
expect_exit() {
    local want="$1" rc=0
    shift
    "$@" > "$TRACE_TMP/hostile.out" 2>&1 || rc=$?
    if [ "$rc" != "$want" ]; then
        echo "expected exit $want, got $rc: $*" >&2
        exit 1
    fi
}
expect_exit 1 "$WFCHECK" "$TRACE_TMP/deep.wf"
grep -q "error\[WF000\]" "$TRACE_TMP/hostile.out"
expect_exit 2 "$WFTRACE" stats "$TRACE_TMP/deep.json"
grep -q "nested deeper" "$TRACE_TMP/hostile.out"
expect_exit 1 "$WFCHECK" "$TRACE_TMP/kind.wf"
grep -q "unknown agent kind" "$TRACE_TMP/hostile.out"
expect_exit 2 "$WFTRACE" record --spec "$TRACE_TMP/step.wf" --out "$TRACE_TMP/step.trace.json"
grep -q "has no event" "$TRACE_TMP/hostile.out"
for spec in not arrow; do
    expect_exit 1 "$WFCHECK" "$TRACE_TMP/$spec.wf"
    grep -q "error\[WF000\]" "$TRACE_TMP/hostile.out"
    expect_exit 2 "$WFTRACE" record --spec "$TRACE_TMP/$spec.wf" --out "$TRACE_TMP/$spec.trace.json"
    grep -q "applies to" "$TRACE_TMP/hostile.out"
done

echo "==> wide-join smoke: a < b1 … a < b13 fires a (a guard over 13 symbols is judged, not parked forever)"
python3 - "$TRACE_TMP" <<'PY'
import sys
n = 13
events = "".join(f"    event b{i};\n" for i in range(1, n + 1))
deps = "".join(f"    dep d{i}: a < b{i};\n" for i in range(1, n + 1))
open(f"{sys.argv[1]}/join13.wf", "w").write("workflow join13 {\n    event a;\n" + events + deps + "}\n")
PY
"$WFTRACE" record --spec "$TRACE_TMP/join13.wf" --out "$TRACE_TMP/join13.trace.json" --seed 1
"$WFTRACE" explain --event a "$TRACE_TMP/join13.trace.json" > "$TRACE_TMP/join13.explain"
grep -q "chain verified" "$TRACE_TMP/join13.explain"
"$WFTRACE" monitor "$TRACE_TMP/join13.trace.json" > "$TRACE_TMP/join13.monitor"
grep -q "alerts: none" "$TRACE_TMP/join13.monitor"

echo "==> experiment binaries: stdout == crates/bench/golden/<bin>.txt"
for bin in fig1_agents fig2_states fig3_table fig4_guards \
    c1_locality c3_eagerness c4_sweep c5_automata_size; do
    "$REPO/target/release/$bin" > "$TRACE_TMP/$bin.out"
    diff -u "$REPO/crates/bench/golden/$bin.txt" "$TRACE_TMP/$bin.out"
done

echo "==> benchmark/run.sh --selfcheck (the benchmark's wiring against this tree)"
bash "$REPO/benchmark/run.sh" --selfcheck

echo "==> product source lines (scripts/loc.sh; per crate: scripts/loc.sh, change: scripts/loc.sh REV1 REV2)"
"$REPO/scripts/loc.sh" | grep '^total'

echo "==> allocations per cold solo operation and per metrics render, weighted over the solo_cold mix (crates/dist/tests/cold_alloc_budget.rs, release)"
cargo test --release --offline -q -p dist --test cold_alloc_budget -- --nocapture | grep '^weighted'

echo "==> allocations per static check, weighted over the check_static mix (crates/analyze/tests/check_alloc_budget.rs, release)"
cargo test --release --offline -q -p analyze --test check_alloc_budget -- --nocapture | grep '^weighted'

echo "==> fault-free messages per event by template, plain and hardened, seeds 1-3 (crates/dist/tests/routing_props.rs, release; a report, not a gate)"
cargo test --release --offline -q -p dist --test routing_props messages_per_event_by_template \
    -- --nocapture | grep '^msgs/event'

echo "==> tier-1 gate passed"
