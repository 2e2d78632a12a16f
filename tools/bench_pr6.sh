#!/usr/bin/env bash
# Device-graph overhead gate (PR6): runs the planned eight-VM pipeline with
# the graph stage on (BM_PipelineEightVmPlanner/1 — graph is on by default)
# and off (BM_PipelineEightVmNoGraph) and composes BENCH_pr6.json. Fails if
# the minimum graph-on time exceeds the minimum graph-off time by more than
# 5% — the IR build, the four per-unit rules, and the cross-unit analysis
# together must stay cheap enough to run on every check. Minima pooled over
# three interleaved binary runs via tools/bench_lib.sh (additive bursty CI
# noise cannot bias a pooled minimum without covering every round).
# Usage: bench_pr6.sh <build-dir> [out.json]
set -eu

BUILD="$1"
OUT="${2:-BENCH_pr6.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

. "$(dirname "$0")/bench_lib.sh"

bench_interleaved_rounds "$TMP" pipeline 3 "$BUILD/bench/bench_pipeline" \
    --benchmark_filter='BM_PipelineEightVmPlanner/1$|BM_PipelineEightVmNoGraph'

bench_collect_samples "$TMP"/pipeline-{1,2,3}.json > "$TMP/samples.json"

python3 - "$TMP/samples.json" "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    pooled = json.load(f)
samples = pooled["samples"]

graphed_all = samples.get("BM_PipelineEightVmPlanner")
ungraphed_all = samples.get("BM_PipelineEightVmNoGraph")
if not graphed_all or not ungraphed_all:
    sys.exit(f"missing benchmark rows, got {sorted(samples)}")

graphed = min(graphed_all)
ungraphed = min(ungraphed_all)
overhead = graphed / ungraphed - 1.0

result = {
    "pr": 6,
    "workload": "planned eight-VM pipeline (alternating Fig. 1b / Fig. 1c), "
                "device-graph stage on vs checks.graph=false",
    "context": pooled["context"],
    "summary": {
        "graph_on_min_us": graphed,
        "graph_off_min_us": ungraphed,
        "graph_on_samples_us": [round(t, 1) for t in graphed_all],
        "graph_off_samples_us": [round(t, 1) for t in ungraphed_all],
        "graph_overhead_pct": round(overhead * 100.0, 2),
        "graph_overhead_at_most_5pct": overhead <= 0.05,
    },
}
with open(sys.argv[2], "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

if overhead > 0.05:
    sys.exit(f"device-graph stage costs {overhead * 100.0:.2f}% on the "
             "planned eight-VM pipeline, budget is 5%")
EOF

echo "wrote $OUT"
