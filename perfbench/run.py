#!/usr/bin/env python3
"""Builds and runs the GBooster benchmark.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload frame_pipeline --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10     # all three
  python3 perfbench/run.py --selftest                               # short check

The harness is a C++ program (perfbench/harness.cc) compiled together with
the repository's libraries in a Release build under .bench_build/ (or under
$CARGO_TARGET_DIR when set). It prints every metric by name with its unit.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics:
  --trace 0: the end_to_end metrics of BENCHMARK.json for the workload;
  --trace 1: the per_layer metrics. Each per-layer metric comes from exactly
             one workload, so a traced run executes all three workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("frame_pipeline", "offload_session", "churn_soak")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the harness; returns its path or exits 1."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return os.path.join(out, "perfbench_harness")


def run_harness(harness, workload, seed, seconds, trace, inject="none",
                echo=True):
    """Runs the harness and returns its parsed result object."""
    out_dir = os.path.join(os.path.dirname(build_dir()), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [harness, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--inject", inject, "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness timed out")
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"harness exited with {done.returncode}")
        sys.exit(1)
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(result, declared):
    """Picks the declared metrics out of the harness result, checking units."""
    merged = {}
    for report in result["workloads"].values():
        for name, metric in report["metrics"].items():
            merged.setdefault(name, metric)
    metrics = {}
    for spec in declared:
        got = merged.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise KeyError(f"metric {spec['name']} missing or not in {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def contract_line(result, declared):
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": select(result, declared)}


def selftest(harness):
    """Short run of every workload: every metric of BENCHMARK.json is printed
    with its unit, outputs verify, and injected faults trip the checks."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        result = run_harness(harness, workload, 7, 1, False, echo=False)
        if not result["correct"]:
            problems.append(f"{workload}: checks failed on a clean run")
        try:
            line = contract_line(result, spec["end_to_end"])
            zero = [n for n, m in line["metrics"].items() if m["value"] <= 0]
            if zero:
                problems.append(f"{workload}: end-to-end metrics not positive: {zero}")
        except KeyError as e:
            problems.append(f"{workload}: {e}")
    result = run_harness(harness, "all", 7, 1, True, echo=False)
    if not result["correct"]:
        problems.append("traced run: checks failed on a clean run")
    try:
        contract_line(result, spec["per_layer"])
    except KeyError as e:
        problems.append(f"traced run: {e}")
    for inject in ("lz4", "turbo"):
        result = run_harness(harness, "frame_pipeline", 7, 1, False, inject,
                             echo=False)
        if result["correct"] or result["failed"] == 0:
            problems.append(f"injected {inject} fault passed the checks")
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources next to the benchmark; nothing to measure")
        return 1
    harness = build()
    if args.selftest:
        return selftest(harness)

    spec = load_spec()
    workload = "all" if args.trace else args.workload
    result = run_harness(harness, workload, args.seed, args.seconds, args.trace)
    if args.workload == "all" and not args.trace:
        # Every workload in one process: report each metric under its workload.
        metrics = {f"{w}/{n}": m for w, r in result["workloads"].items()
                   for n, m in r["metrics"].items()}
        line = {k: result[k] for k in ("correct", "attempted", "failed")}
        line["metrics"] = metrics
    else:
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        line = contract_line(result, declared)
    for report in result["workloads"].values():
        for failure in report["failures"]:
            log(f"check failed: {failure}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
