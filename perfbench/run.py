#!/usr/bin/env python3
"""The repository benchmark: build the perfbench driver, run one workload,
check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver is built from source into
$CARGO_TARGET_DIR (default .bench_build) on first use. With --trace 0 the
last stdout line carries every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric:

    {"correct": true, "attempted": 2, "failed": 0,
     "metrics": {"setup_s": {"value": 0.27, "unit": "s"}, ...}}

The lines above it are the workload's report (simulated outcomes, accuracy
against the paper, digests). --smoke shrinks every workload for the
benchmark's own test (perfbench/test_smoke.py).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    """Configures (once) and builds the driver; returns the binary path."""
    cmake_dir = build_root / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir)])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return cmake_dir / "perfbench"


def fingerprint(path):
    return hashlib.sha1(path.read_bytes()).hexdigest()[:16]


def run_driver(cmd):
    """Runs @cmd; returns (exit code, stdout lines, peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return proc.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").exists() or \
            not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no repository sources next to {BENCH_DIR.name}/")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    work = build_root / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work-dir", str(work), "--fleet-cache",
           str(build_root / "fleet_cache" / fingerprint(binary))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        code, lines, rss_mb = run_driver(cmd)
        spans = work / "spans.jsonl"
        if spans.exists():
            kept = build_root / "spans" / \
                f"{args.workload}-seed{args.seed}.jsonl"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), str(kept))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not lines:
        fail(f"driver exited with code {code}")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")
    for line in lines[:-1]:
        print(line)
    measured = dict(raw["metrics"])
    measured["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    correct = raw["correct"]
    for name, ok in raw["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            print(f"metric {m['name']} missing or not in {m['unit']}",
                  file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print(f"metric {m['name']} = {got['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
