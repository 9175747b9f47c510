#!/usr/bin/env python3
"""Compare two sets of nyqbench results metric by metric.

Usage:

    python3 nyqbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files as nyqbench/run.py writes them under
.nyqbench_out/results/ (one per workload, seed and trace mode). For every
workload and metric the script prints both medians, the change, and the
base side's spread (interquartile range over median); an end-to-end metric
that got worse by more than its BENCHMARK.json bound is flagged, and one
whose base spread exceeds the bound is reported as unresolved.

Results are only comparable when they come from the same host and build:
the script refuses (exit 2) when any result's fingerprint (nproc, CPU
model, SIMD level, compiler, build type, obs compiled out) differs from
the others.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        r = json.loads(path.read_text())
        key = (r["workload"], r["trace"])
        runs.setdefault(key, []).append(r)
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for side in (base, new) for runs in side.values() for r in runs}
    if len(prints) > 1:
        print("refusing to compare: results come from different hosts or builds:",
              file=sys.stderr)
        for p in sorted(prints):
            print("  " + p, file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}), "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        names = sorted({n for r in base[key] for n in r["metrics"]})
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            m = meta.get(name, {})
            worse = change if m.get("better") == "lower" else -change
            verdict = ""
            if "bound" in m:
                if spread(b) > m["bound"]:
                    verdict = "unresolved (base spread above bound)"
                elif worse > m["bound"]:
                    verdict = "REGRESSION"
                    regressions += 1
            print(f"  {name:44s} {mb:12.6g} -> {mn:12.6g} {change:+8.1%} "
                  f"spread {spread(b):6.1%} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
