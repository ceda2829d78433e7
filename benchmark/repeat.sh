#!/usr/bin/env bash
# Run the full benchmark N times and say how repeatable it is:
#
#   benchmark/repeat.sh N [--seconds S] [--passes "0 1"] [--seed-base B] > summary.json
#
# Repetition i uses seed B+i (default B=0) and runs the five workloads in
# forward order when i is odd, backward when even, so no workload always
# follows the same neighbour. For every (workload, metric) the summary
# holds the values, min / median / max, the max-to-min spread as a share
# of the median, and the quartile spread (q3 − q1 of Python's
# statistics.quantiles(n=4)) as a share of the median — the figure the
# driver holds against the metric's bound. End-to-end metrics whose
# max-to-min spread exceeds their bound are listed under "flagged" and
# on stderr. The JSON goes to stdout; progress to stderr.
set -euo pipefail

DIR="$(dirname "${BASH_SOURCE[0]}")"
N="${1:?usage: repeat.sh N [--seconds S] [--passes \"0 1\"] [--seed-base B]}"; shift
SECS=20; PASSES="0 1"; BASE=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seconds) SECS="$2"; shift 2 ;;
        --passes) PASSES="$2"; shift 2 ;;
        --seed-base) BASE="$2"; shift 2 ;;
        *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

export CARGO_NET_OFFLINE=true
cargo build --release --offline --quiet --manifest-path "$DIR/Cargo.toml" >&2
BIN="${CARGO_TARGET_DIR:-$DIR/target}/release/wfbench"
FORWARD=(solo_cold fleet_steady fleet_faulty fleet_parallel check_static)
BACKWARD=(check_static fleet_parallel fleet_faulty fleet_steady solo_cold)

mkdir -p "$DIR/out"
RESULTS="$DIR/out/repeat-$$.tsv"
: > "$RESULTS"
trap 'rm -f "$RESULTS"' EXIT
for i in $(seq 1 "$N"); do
    if [ $((i % 2)) = 1 ]; then order=("${FORWARD[@]}"); else order=("${BACKWARD[@]}"); fi
    for w in "${order[@]}"; do
        for t in $PASSES; do
            echo "repetition $i/$N: $w --trace $t (seed $((BASE + i)))" >&2
            line="$("$BIN" --workload "$w" --seed $((BASE + i)) --seconds "$SECS" --trace "$t" --dir "$DIR" | tail -n 1)"
            printf '%s\t%s\t%s\t%s\n' "$w" "$t" "$((BASE + i))" "$line" >> "$RESULTS"
        done
    done
done

python3 - "$RESULTS" "$N" "$SECS" <<'PY'
import json, os, statistics, sys

results, n, secs = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
bounds = {}
if os.path.exists("BENCHMARK.json"):
    bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

runs = {}    # (workload, pass) -> [result]
for row in open(results):
    workload, trace, seed, line = row.rstrip("\n").split("\t", 3)
    runs.setdefault((workload, int(trace)), []).append((int(seed), json.loads(line)))

summary = {"repetitions": n, "run_seconds": secs, "nproc": os.cpu_count(), "workloads": {}, "flagged": []}
for (workload, trace), rs in runs.items():
    out = summary["workloads"].setdefault(workload, {})
    out.setdefault("seeds", [s for s, _ in rs])
    key = "per_layer" if trace else "end_to_end"
    out["failed" if not trace else "failed_traced"] = sum(r["failed"] for _, r in rs)
    out["all_correct" if not trace else "all_correct_traced"] = all(r["correct"] for _, r in rs)
    table = out.setdefault(key, {})
    for name in rs[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r in rs]
        med = statistics.median(values)
        row = {"unit": rs[0][1]["metrics"][name]["unit"], "values": values,
               "min": min(values), "median": med, "max": max(values)}
        if med:
            row["range_share"] = (max(values) - min(values)) / abs(med)
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                row["quartile_share"] = (q[2] - q[0]) / abs(med)
        if name in bounds:
            row["bound"] = bounds[name]
            if row.get("range_share", 0.0) > bounds[name]:
                summary["flagged"].append({"workload": workload, "metric": name,
                                           "range_share": row["range_share"], "bound": bounds[name]})
        table[name] = row

for f in summary["flagged"]:
    print("FLAG %(workload)s %(metric)s: max-to-min %(range_share).3f of median > bound %(bound)s" % f,
          file=sys.stderr)
for workload, out in summary["workloads"].items():
    for key in ("end_to_end", "per_layer"):
        for name, row in out.get(key, {}).items():
            print("%-14s %-44s %-6s min %-14.6g median %-14.6g max %-14.6g" %
                  (workload, name, row["unit"], row["min"], row["median"], row["max"]), file=sys.stderr)
json.dump(summary, sys.stdout, indent=1)
print()
PY
