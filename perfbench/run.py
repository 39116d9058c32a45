#!/usr/bin/env python3
"""End-to-end benchmark of the HeavyKeeper library and hk_serve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload campus-serve --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which builds the library from the checkout) into
.bench_build/perfbench, runs one workload, and prints the run context as
one JSON line followed by the result as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones; the
names must match BENCHMARK.json. Exits non-zero, without a result line, when
the build fails, and non-zero after the result line when a correctness
check fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("campus-serve", "caida-window", "zipf-sharded")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    bench_src = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "hk_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hk_perfbench")


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return done.stdout.strip() or "unknown"


def source_digest(root):
    """SHA-256 over the library and benchmark sources (names the code when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Shape check of the result line against the contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a non-negative integer")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ from BENCHMARK.json: missing {missing}, "
                        f"extra {extra}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and metric.get("unit") != expected[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, expected {expected[name]!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        binary = build(root, build_dir)
        expected = expected_metrics(root, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"cannot run: {e}")
        return 1

    workdir = os.path.join(root, ".bench_build", "run")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--git-sha", git_sha(root)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        log(f"no result (exit code {done.returncode})")
        return 1
    context = json.loads(lines[-2])
    context["context"]["source_digest"] = source_digest(root)
    result = json.loads(lines[-1])
    problems = check_result(result, expected)
    for problem in problems:
        log(problem)
    print(json.dumps(context))
    print(json.dumps(result))
    if done.returncode != 0 or problems or result.get("correct") is not True:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
