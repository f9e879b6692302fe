#!/usr/bin/env bash
# Regenerates the committed bench trajectory (BENCH_trajectory.json at the
# repo root) from the three JSON-emitting gate binaries:
#
#   example_simnet_latency   — per-op-class latency percentiles over the
#                              simulated wire, with a seeded fault storm
#   example_crash_recovery   — recovery wall time + WAL replay volume over
#                              every crash site (migration AND rename)
#   ablation_rename          — per-scheme rename placement cost and the
#                              transactional rename path (DESIGN.md §8)
#   ablation_store           — store-engine micro ops and the million-
#                              record sealed-table handoff (DESIGN.md §11)
#
# Real daemons are measured by the benchmark of record, d2bench/.
#
# Each binary exits nonzero when its own correctness audit fails, so a
# snapshot only ever captures a self-consistent run.
#
# Usage: scripts/bench_snapshot.sh [build_dir] [output.json]
#
# Compare a fresh snapshot against the committed one with
# scripts/check_bench_regression.py (CI job bench-trajectory).
set -euo pipefail

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_trajectory.json}

if [[ ! -x "$BUILD_DIR/examples/example_simnet_latency" ]]; then
  echo "error: $BUILD_DIR does not contain the built binaries" >&2
  echo "       (cmake --preset default && cmake --build build -j)" >&2
  exit 2
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== simnet latency mix =="
"$BUILD_DIR/examples/example_simnet_latency" "$TMP/latency.json" >/dev/null
echo "== crash/rename recovery sweep =="
"$BUILD_DIR/examples/example_crash_recovery" "$TMP/recovery.json" 2 >/dev/null
echo "== rename ablation + transactional path =="
"$BUILD_DIR/bench/ablation_rename" "$TMP/rename.json" >/dev/null
echo "== store engine + sealed-table handoff =="
"$BUILD_DIR/bench/ablation_store" "$TMP/store.json" >/dev/null

python3 - "$TMP" "$OUT" <<'PY'
import json, os, sys

tmp, out = sys.argv[1], sys.argv[2]
merged = {
    "schema_version": 1,
    "note": ("Committed bench trajectory. Regenerate with "
             "scripts/bench_snapshot.sh; CI gates fresh runs against this "
             "file with scripts/check_bench_regression.py "
             "(see EXPERIMENTS.md)."),
    "latency": json.load(open(os.path.join(tmp, "latency.json"))),
    "recovery": json.load(open(os.path.join(tmp, "recovery.json"))),
    "rename": json.load(open(os.path.join(tmp, "rename.json"))),
    "store": json.load(open(os.path.join(tmp, "store.json"))),
}
with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY

echo "wrote $OUT"
