#!/usr/bin/env python3
"""keyguard benchmark runner.

    python3 perfbench/run.py --workload ssh_scp --seed 1 --seconds 10 --trace 0

Run from the repository root. On first use (or when any source is newer
than the binary) it builds the benchmark from source into .bench_build/,
then runs the statistics self-test and one measurement. Standard output
ends with one JSON line: {"correct", "attempted", "failed", "metrics"},
carrying the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. A per-layer metric of a layer the chosen
workload never calls is reported as 0.

Exit codes: 0 ok, 1 a correctness check failed or the output was malformed,
2 the benchmark could not be built or run (no result line is printed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
STATS_TEST = BUILD / "stats_test"
WORKLOADS = ("ssh_scp", "sni_tenants", "scan_audit", "host_sign")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def newest_source_mtime():
    newest = 0.0
    for base in (HERE, ROOT / "src"):
        for path in base.rglob("*"):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                newest = max(newest, path.stat().st_mtime)
    return newest


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if BINARY.exists() and STATS_TEST.exists() and BINARY.stat().st_mtime >= newest_source_mtime():
        return
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs],
    ]
    # Compiler temporaries stay inside the build directory too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def declared_metrics(trace):
    """name -> unit for the mode's metric list in BENCHMARK.json (None if absent)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def finish(result, declared, trace):
    """Checks the result line against BENCHMARK.json; returns the problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if declared is None:
        return problems
    metrics = result.get("metrics", {})
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name, unit in declared.items():
        if name not in metrics:
            if trace:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                problems.append(f"end-to-end metric {name} missing")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} has unit {metrics[name]['unit']}, declared {unit}")
    result["metrics"] = dict(sorted(metrics.items()))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    test = subprocess.run([str(STATS_TEST)], capture_output=True, text=True)
    if test.returncode != 0:
        fail("statistics self-test failed:\n" + test.stdout)

    # Runtime knobs of the library (matcher, SIMD cap, pool width) must not
    # leak in from the caller's environment: every run measures defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("KEYGUARD_")}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--trace-dir", str(BUILD.parent)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(run.stdout)
        fail(f"no result line (exit code {run.returncode})")
    print("\n".join(lines[:-1]))
    problems = finish(result, declared_metrics(args.trace == 1), args.trace == 1)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
