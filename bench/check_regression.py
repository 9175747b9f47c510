#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json lines.

Compares the bench_results/ JSON emitted by the current build against the
checked-in baseline and fails (exit 1) when any tracked metric moves past
the allowed fraction (default 30%): higher-is-better metrics may not drop
below baseline * (1 - threshold), lower-is-better metrics (latency tails)
may not rise above baseline * (1 + threshold).

Usage:
    python3 bench/check_regression.py \
        --baseline bench_results --current build/bench_results \
        [--threshold 0.30]

List-valued metrics (a sweep, e.g. one value per worker count) are gated
point by point, and every point is printed: a regression at any single
sweep point fails even when another point improved, and a list whose length
differs from the baseline's is a failure (the sweep changed shape, so the
points no longer line up).

A missing baseline file, missing current result, or missing tracked metric
is a hard failure, not a skip: every tracked bench has a checked-in
baseline, so an absence means the smoke silently stopped emitting (or the
baseline was dropped) and the gate would otherwise pass while checking
nothing. When adding a bench to TRACKED, commit its BENCH_*.json baseline
in the same change.
"""

import argparse
import json
import pathlib
import sys

# Tracked higher-is-better metrics per bench. List-valued metrics (e.g. a
# per-worker-count sweep) are compared point by point.
TRACKED = {
    "engine_throughput": ["pairs_per_sec", "scaling_efficiency"],
    "fleet_scatter": ["router_qps"],
    "query_throughput": ["qps"],
    "scenario_frontier": ["sweep_pairs_per_sec"],
    "storage_throughput": ["ingest_wal_mb_s", "flush_mb_s", "recover_mb_s"],
    "streaming_throughput": ["samples_per_sec", "qps", "concurrent_clients"],
}

# Tracked lower-is-better metrics (latency tails): fail when the current
# value exceeds baseline * (1 + threshold).
TRACKED_LOWER = {
    "streaming_throughput": ["query_p99"],
}

# Each gated metric's unit, printed with every gate line so a reader can
# tell a 35.95 ms latency tail from a 35.95 qps throughput at a glance.
# (query_p99 is the p99 latency the streaming bench's TCP query clients
# observe against the multi-reactor server under live ingest, in
# milliseconds; concurrent_clients is how many of those clients completed
# their loop without an error.) Metrics absent here print without a unit.
UNITS = {
    "pairs_per_sec": "pairs/s",
    "scaling_efficiency": "ratio",
    "router_qps": "qps",
    "qps": "qps",
    "sweep_pairs_per_sec": "pairs/s",
    "ingest_wal_mb_s": "MB/s",
    "flush_mb_s": "MB/s",
    "recover_mb_s": "MB/s",
    "samples_per_sec": "samples/s",
    "query_p99": "ms",
    "concurrent_clients": "clients",
}


def load(path: pathlib.Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: unreadable {path}: {err}")
        return None


def metric_values(doc, key):
    """The metric as a list of floats (a scalar is a one-point list), or
    None when it is absent or any point is non-numeric."""
    value = doc.get(key)
    points = value if isinstance(value, list) else [value]
    if not points or not all(isinstance(v, (int, float)) for v in points):
        return None
    return [float(v) for v in points]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, type=pathlib.Path)
    parser.add_argument("--current", required=True, type=pathlib.Path)
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="max allowed fractional move (default 0.30)")
    args = parser.parse_args()

    benches = sorted(set(TRACKED) | set(TRACKED_LOWER))
    failures = []
    checked = 0
    for bench in benches:
        name = f"BENCH_{bench}.json"
        base_doc = load(args.baseline / name)
        cur_doc = load(args.current / name)
        if base_doc is None:
            failures.append((bench, "<baseline>",
                             f"missing baseline {args.baseline / name}"))
            continue
        if cur_doc is None:
            failures.append((bench, "<current>",
                             f"missing current result {args.current / name}"))
            continue
        tracked = [(k, False) for k in TRACKED.get(bench, [])] + \
                  [(k, True) for k in TRACKED_LOWER.get(bench, [])]
        for key, lower_is_better in tracked:
            base = metric_values(base_doc, key)
            cur = metric_values(cur_doc, key)
            if base is None or cur is None:
                failures.append((bench, key,
                                 f"missing or non-numeric value "
                                 f"(baseline={base_doc.get(key)}, "
                                 f"current={cur_doc.get(key)})"))
                continue
            if len(base) != len(cur):
                failures.append((bench, key,
                                 f"{len(base)} baseline point(s) vs "
                                 f"{len(cur)} current"))
                continue
            arrow = "v" if lower_is_better else "^"
            unit = UNITS.get(key, "")
            unit_sfx = f" {unit}" if unit else ""
            for i, (b, c) in enumerate(zip(base, cur)):
                label = f"{key}[{i}]" if len(base) > 1 else key
                if b <= 0:
                    failures.append((bench, label,
                                     f"non-positive baseline {b}"))
                    continue
                checked += 1
                ratio = c / b
                regressed = (ratio > 1.0 + args.threshold if lower_is_better
                             else ratio < 1.0 - args.threshold)
                status = "REGRESSION" if regressed else "OK"
                if regressed:
                    failures.append((bench, label,
                                     f"baseline {b:.3f} -> current "
                                     f"{c:.3f}{unit_sfx} ({ratio:.2%})"))
                print(f"{status:>10}  [{arrow}] {bench}.{label}: "
                      f"baseline {b:.3f} -> current {c:.3f}{unit_sfx}  "
                      f"({ratio:.2%})")

    if failures:
        print(f"\nFAIL: {len(failures)} gate violation(s) at threshold "
              f"{args.threshold:.0%}:")
        for bench, key, detail in failures:
            print(f"  {bench}.{key}: {detail}")
        return 1
    print(f"\nperf gate passed: {checked} point(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
