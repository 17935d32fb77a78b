#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark (BENCHMARK.json).

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds e2e_query from source in a build tree
of the top-level project at .bench_build/e2e, with bench/e2e attached
through bench/e2e/attach.cmake; runs it; forwards its output; and
prints as the last line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end metrics, with --trace 1 its per_layer metrics (the traced run
also writes its spans to .bench_build/e2e/<workload>.trace.json).

Exits nonzero, without a result line, when the build fails; exits nonzero
after the result line when an op failed, an oracle check did not hold or a
listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configures the top-level project with bench/e2e attached (once) and
    (re)builds e2e_query; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "e2e_query",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        attach = ROOT / "bench" / "e2e" / "attach.cmake"
        steps.insert(0, ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release",
                         f"-DCMAKE_PROJECT_ccdb_INCLUDE={attach}"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "bench" / "e2e" / "e2e_query"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}"]
    if args.trace:
        command.append(f"--trace={BUILD / (args.workload + '.trace.json')}")
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=False)
    lines = run.stdout.splitlines()
    print("\n".join(lines))
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"e2e_query exited {run.returncode} without a summary",
              file=sys.stderr)
        return 1

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    missing = []
    for metric in listed:
        got = summary["metrics"].get(metric["name"])
        if (got is None or not isinstance(got["value"], (int, float))
                or got["unit"] != metric["unit"]):
            missing.append(metric["name"])
        else:
            metrics[metric["name"]] = {"value": got["value"],
                                       "unit": got["unit"]}
    if missing:
        print(f"missing or mismatched metrics: {missing}", file=sys.stderr)
    correct = bool(summary["correct"]) and run.returncode == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
