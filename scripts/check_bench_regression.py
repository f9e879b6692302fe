#!/usr/bin/env python3
"""Bench regression gate over BENCH_trajectory.json.

Compares a fresh bench snapshot (scripts/bench_snapshot.sh) against the
committed trajectory at the repo root and fails when a tracked metric
regresses beyond its tolerance band.

Three kinds of tracked metric:

  * correctness  — booleans/zero-counters from the binaries' own audits
                   (consistency, d2fsck, failed transactions). These are
                   hard gates on the FRESH snapshot alone: no band.
  * exact        — workload-deterministic counts (records a scheme moves
                   on a rename). Band 0: any drift is a behavior change
                   that must be re-baselined deliberately.
  * bounded      — latency/throughput style numbers. Wall-clock metrics
                   vary across machines, simulated-network metrics vary
                   with thread interleaving, so each carries a relative
                   band plus an absolute floor below which noise is
                   ignored. Only growth (a slowdown) fails; getting
                   faster never does — commit a fresh snapshot to ratchet.

Usage:
  check_bench_regression.py --baseline BENCH_trajectory.json --fresh new.json
  check_bench_regression.py --self-test

Exit codes: 0 pass, 1 regression/violation, 2 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

# (path, kind, rel_band, abs_floor)
#
# Path syntax: dot-separated keys; `list[key=value]` selects the element
# of a list of objects whose `key` stringifies to `value`.
TRACKED = [
    # --- correctness: hard gates on the fresh snapshot ---
    ("latency.consistent", "true", None, None),
    ("recovery.fsck_clean", "true", None, None),
    ("rename.txn.fsck_clean", "true", None, None),
    ("rename.txn.in_place.failed", "zero", None, None),
    ("rename.txn.cross_server.failed", "zero", None, None),
    # The Sec. II headline claim: structure-keyed placement moves nothing
    # on a rename. If d2tree ever moves a record here, that is a bug, not
    # a regression band.
    ("rename.schemes[scheme=d2tree].deep_moved", "zero", None, None),
    ("rename.schemes[scheme=d2tree].top_moved", "zero", None, None),
    # --- exact: deterministic counts, re-baseline deliberately ---
    ("recovery.recoveries", "exact", None, None),
    ("rename.txn.in_place.count", "exact", None, None),
    ("rename.txn.cross_server.count", "exact", None, None),
    ("rename.txn.cross_server.records_moved", "exact", None, None),
    ("rename.schemes[scheme=hash].top_moved", "exact", None, None),
    # --- bounded: only growth beyond band + floor fails ---
    # Simulated-network latency: deterministic model, mild interleaving
    # jitter from the 4-thread replay.
    ("latency.latency_by_class[class=GL hit].p50_us", "bounded", 0.50, 50.0),
    ("latency.latency_by_class[class=GL hit].p99_us", "bounded", 0.50, 50.0),
    ("latency.latency_by_class[class=LL 1-jump].p99_us", "bounded", 0.50, 50.0),
    ("rename.txn.in_place.sim_us_mean", "bounded", 0.50, 50.0),
    ("rename.txn.cross_server.sim_us_mean", "bounded", 0.50, 50.0),
    # Wall-clock metrics: machine-dependent, wide band.
    ("recovery.recovery_wall_us.p50", "bounded", 3.00, 200.0),
    ("recovery.recovery_wall_us.p99", "bounded", 3.00, 500.0),
    ("rename.txn.in_place.wall_us_mean", "bounded", 3.00, 20.0),
    ("rename.txn.cross_server.wall_us_mean", "bounded", 3.00, 50.0),
    # WAL replay volume per recovery: grows only if the protocol journals
    # more — that is a real cost, keep it tight.
    ("recovery.wal_records_replayed.mean", "bounded", 0.25, 10.0),
    # --- store engine + sealed-table handoff (bench/ablation_store) ---
    # Correctness: the bulk kBulkTable path must beat per-record shipping
    # on the million-record handoff AND land the byte-identical live set,
    # and every store must pass its deep on-disk audit.
    ("store.handoff.bulk_faster", "true", None, None),
    ("store.handoff.dest_equal", "true", None, None),
    ("store.audit_clean", "true", None, None),
    # Deterministic: the handoff size is workload math, not timing.
    ("store.handoff.records", "exact", None, None),
    # Wall-clock: machine-dependent, wide bands. bulk_ms is the headline
    # cost of a subtree handoff; the LSM put covers the journaled write
    # path end to end.
    ("store.handoff.bulk_ms", "bounded", 3.00, 200.0),
    ("store.handoff.per_record_ms", "bounded", 3.00, 500.0),
    ("store.put.lsm_ns_op", "bounded", 3.00, 500.0),
    ("store.get.lsm_sealed_ns_op", "bounded", 3.00, 2000.0),
]


def resolve(doc, path):
    """Walks `doc` along `path`; raises KeyError with the failing step."""
    cur = doc
    for step in path.split("."):
        if "[" in step:
            name, _, selector = step.partition("[")
            key, _, want = selector.rstrip("]").partition("=")
            seq = cur[name]
            for item in seq:
                if str(item.get(key)) == want:
                    cur = item
                    break
            else:
                raise KeyError(f"{path}: no element with {key}={want}")
        else:
            if not isinstance(cur, dict) or step not in cur:
                raise KeyError(f"{path}: missing '{step}'")
            cur = cur[step]
    return cur


def check(baseline, fresh):
    """Returns a list of violation strings (empty = gate passes)."""
    violations = []
    for path, kind, band, floor in TRACKED:
        try:
            new = resolve(fresh, path)
        except KeyError as e:
            violations.append(f"fresh snapshot: {e.args[0]}")
            continue
        if kind == "true":
            if new is not True:
                violations.append(f"{path}: expected true, got {new!r}")
            continue
        if kind == "zero":
            if new != 0:
                violations.append(f"{path}: expected 0, got {new!r}")
            continue
        try:
            old = resolve(baseline, path)
        except KeyError as e:
            violations.append(f"baseline: {e.args[0]}")
            continue
        if kind == "exact":
            if new != old:
                violations.append(
                    f"{path}: deterministic metric drifted "
                    f"{old!r} -> {new!r} (re-baseline deliberately)")
        elif kind == "bounded":
            limit = old * (1.0 + band) + floor
            if new > limit:
                violations.append(
                    f"{path}: {new:.2f} exceeds {limit:.2f} "
                    f"(baseline {old:.2f}, band +{band:.0%} + {floor:g})")
        else:  # pragma: no cover - spec typo guard
            violations.append(f"{path}: unknown kind {kind!r}")
    return violations


# ---------------------------------------------------------------------------


def self_test():
    base = {
        "latency": {
            "consistent": True,
            "latency_by_class": [
                {"class": "GL hit", "p50_us": 100.0, "p99_us": 400.0},
                {"class": "LL 1-jump", "p50_us": 150.0, "p99_us": 600.0},
            ],
        },
        "recovery": {
            "fsck_clean": True,
            "recoveries": 18,
            "recovery_wall_us": {"p50": 300.0, "p99": 500.0},
            "wal_records_replayed": {"mean": 60.0},
        },
        "rename": {
            "schemes": [
                {"scheme": "d2tree", "deep_moved": 0, "top_moved": 0},
                {"scheme": "hash", "deep_moved": 2452, "top_moved": 4870},
            ],
            "txn": {
                "fsck_clean": True,
                "in_place": {"count": 603, "failed": 0,
                             "wall_us_mean": 3.0, "sim_us_mean": 675.0},
                "cross_server": {"count": 603, "failed": 0,
                                 "wall_us_mean": 9.0, "sim_us_mean": 678.0,
                                 "records_moved": 14850},
            },
        },
        "store": {
            "audit_clean": True,
            "put": {"memory_ns_op": 250.0, "lsm_ns_op": 1100.0},
            "get": {"memory_ns_op": 350.0, "lsm_ns_op": 400.0,
                    "lsm_sealed_ns_op": 7000.0},
            "handoff": {"records": 1000000, "per_record_ms": 1100.0,
                        "bulk_ms": 600.0, "bulk_faster": True,
                        "dest_equal": True},
        },
    }
    fresh_ok = json.loads(json.dumps(base))
    # Identical snapshots pass.
    assert check(base, fresh_ok) == [], check(base, fresh_ok)
    # Getting faster passes.
    fresh_ok["recovery"]["recovery_wall_us"]["p99"] = 10.0
    assert check(base, fresh_ok) == []
    # Noise inside band + floor passes.
    fresh_ok["latency"]["latency_by_class"][0]["p99_us"] = 420.0
    assert check(base, fresh_ok) == []
    # A slowdown beyond the band fails.
    slow = json.loads(json.dumps(base))
    slow["recovery"]["recovery_wall_us"]["p99"] = 5000.0
    assert any("recovery_wall_us.p99" in v for v in check(base, slow))
    # Correctness flips fail regardless of the baseline.
    broken = json.loads(json.dumps(base))
    broken["rename"]["txn"]["fsck_clean"] = False
    assert any("fsck_clean" in v for v in check(base, broken))
    # The d2tree zero-move claim is gated on the fresh run alone.
    moved = json.loads(json.dumps(base))
    moved["rename"]["schemes"][0]["top_moved"] = 7
    assert any("top_moved" in v for v in check(base, moved))
    # Deterministic counters must not drift silently.
    drift = json.loads(json.dumps(base))
    drift["rename"]["txn"]["cross_server"]["records_moved"] = 14000
    assert any("records_moved" in v for v in check(base, drift))
    # Missing metrics in the fresh snapshot are violations, not skips.
    missing = json.loads(json.dumps(base))
    del missing["rename"]["txn"]["cross_server"]
    assert any("cross_server" in v for v in check(base, missing))
    # Store section: bulk losing to per-record is a hard gate on the
    # fresh run alone — the whole point of sealed-table shipping.
    bulk_lost = json.loads(json.dumps(base))
    bulk_lost["store"]["handoff"]["bulk_faster"] = False
    assert any("bulk_faster" in v for v in check(base, bulk_lost))
    # A shrunken handoff (bench silently doing less work) must not pass.
    shrunk = json.loads(json.dumps(base))
    shrunk["store"]["handoff"]["records"] = 1000
    assert any("handoff.records" in v for v in check(base, shrunk))
    # A missing store section is a violation, not a skip.
    storeless = json.loads(json.dumps(base))
    del storeless["store"]
    assert any("store" in v for v in check(base, storeless))
    print("self-test: OK")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed BENCH_trajectory.json")
    ap.add_argument("--fresh", help="freshly generated snapshot")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate's own unit checks and exit")
    args = ap.parse_args(argv)

    if args.self_test:
        self_test()
        return 0
    if not args.baseline or not args.fresh:
        ap.error("--baseline and --fresh are required (or use --self-test)")

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    violations = check(baseline, fresh)
    if violations:
        print(f"bench regression gate: {len(violations)} violation(s)")
        for v in violations:
            print(f"  FAIL {v}")
        print("\nIf a slowdown is intentional, regenerate the committed "
              "trajectory with scripts/bench_snapshot.sh and commit it "
              "alongside the change that explains it.")
        return 1
    print(f"bench regression gate: {len(TRACKED)} tracked metrics OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
