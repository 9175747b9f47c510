#!/usr/bin/env python3
"""Build the nyqmon benchmark from this checkout and run one workload.

Usage (from the checkout root):

    python3 nyqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds nyqbench/CMakeLists.txt (the library sources under
src/ plus the benchmark program under nyqbench/src/) into $CARGO_TARGET_DIR/nyqbench,
default .bench_build/nyqbench, runs the program, and prints its metric table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics; a per-layer metric the workload does
not exercise reads 0 and is listed as such. The full result (host
fingerprint, sample counts, notes) is kept under .nyqbench_out/results/ for
nyqbench/compare.py. Exits non-zero when the build fails, an output check
fails, or a metric is missing.
"""
import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"nyqbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "nyqbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "nyqbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    binary = build()
    out_dir = ROOT / ".nyqbench_out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"nyqbench exited {proc.returncode} without a result line")
    print("\n".join(lines[:-1]))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["layer"] if args.trace else result["e2e"]
    metrics = {}
    idle = []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            idle.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")
        value = got["value"]
        if value is None or not math.isfinite(value):
            fail(f"{m['name']} is not a finite number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if idle:
        print("not exercised by this workload (reported as 0): " + ", ".join(idle))

    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    result["metrics"] = metrics
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
