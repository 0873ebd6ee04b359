#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, untraced and traced,
at --smoke size. Checks that each run passes its output checks and prints
exactly the contract's result keys, with every metric BENCHMARK.json names
for that mode, in its unit.

    python3 perfbench/test_smoke.py      # from the repository root, ~2 min
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{tag}: not correct: {lines[-1]}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {got} != {want}")
            print(f"{tag}: {len(got)} metrics ok", flush=True)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
