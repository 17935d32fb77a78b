#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench/e2e/compare.py <parent_dir> <change_dir>

Each directory holds one file per run: the standard output of
bench/e2e/run.py or of e2e_query. Runs are paired by (workload, seed); run
the two sides alternately, so both see the same host. Prints one row per
(workload, metric) with each side's median and quartiles, the pairs the
change won, and a verdict:

  better     the change wins at least 9/10 of the pairs and the medians
             differ by more than the parent's quartile spread, or every
             change run beats every parent run
  no worse   the change's median is within the metric's bound
  worse      the change's median is worse by more than the bound
  unresolved the run-to-run spread is wider than the bound, so the
             medians cannot tell

The rows are:

  - every end_to_end metric of BENCHMARK.json, with its bound. The timing
    metrics there are normalized by the host-speed probe (README, "Host
    speed"); when the two sides' host.slowdown medians differ by more than
    the bound, the probe itself moved and those rows are unresolved;
  - the measured timings (measured_<metric>) with the same bounds;
  - the crowd cost per query, with the bounds in CROWD_BOUNDS, on the
    workloads that spend;
  - failed ops, where any failure the parent did not have is worse.

Exits 1 when any row is worse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The paper's cost axis (Table 1, Figures 3-4). These are not end_to_end
# metrics of BENCHMARK.json because sql_select_100k spends nothing, and an
# end_to_end metric may never read 0.
CROWD_BOUNDS = {"dollars_per_query": 0.02, "crowd_minutes_per_query": 0.02}
TIMINGS = ("setup_s", "p50_ms", "p95_ms", "throughput_ops")


def load_runs(directory: Path) -> dict:
    """{(workload, seed): summary} from e2e_query summary lines."""
    runs = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        for line in reversed(path.read_text(errors="replace").splitlines()):
            try:
                summary = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(summary, dict) and "workload" in summary:
                runs[(summary["workload"], summary["seed"])] = summary
                break
    return runs


def value(summary: dict, name: str):
    """A metric, a context value or the failed-op count; None if absent."""
    if name in summary["metrics"]:
        return summary["metrics"][name]["value"]
    if name == "failed":
        return summary["failed"]
    return summary["context"].get(name)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cell(q: tuple) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(parent: list, change: list, pairs: list, lower: bool,
            bound: float) -> tuple:
    """Returns (wins, verdict) for one metric of one workload."""
    def better(a, b):  # a reads better than b
        return a < b if lower else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if pm == 0:
        return wins, "unresolved"
    worse_share = (cm - pm) / abs(pm) * (1 if lower else -1)
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm) if cm else 0.0)
    if all(better(c, p) for c in change for p in parent):
        return wins, "better"
    if (all(better(p, c) for c in change for p in parent)
            and worse_share > bound):
        return wins, "worse"
    if spread > bound:
        return wins, "unresolved"
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > (p3 - p1) and worse_share < 0):
        return wins, "better"
    return wins, "worse" if worse_share > bound else "no worse"


def rows(spec: dict) -> list:
    """(row name, value name, lower is better, bound) of every gated row."""
    out = [(m["name"], m["name"], m["better"] == "lower", m["bound"])
           for m in spec["end_to_end"]]
    out += [(f"measured_{m['name']}", f"measured_{m['name']}",
             m["better"] == "lower", m["bound"])
            for m in spec["end_to_end"] if m["name"] in TIMINGS]
    out += [(name, name, True, bound) for name, bound in CROWD_BOUNDS.items()]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs = load_runs(args.parent_dir)
    change_runs = load_runs(args.change_dir)
    if not parent_runs or not change_runs:
        print("no runs found", file=sys.stderr)
        return 2

    by_workload = defaultdict(lambda: (set(), set()))
    for workload, seed in parent_runs:
        by_workload[workload][0].add(seed)
    for workload, seed in change_runs:
        by_workload[workload][1].add(seed)

    print(f"{'workload':18} {'metric':24} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>6}  verdict")
    regressed = False
    for workload in sorted(by_workload):
        parent_seeds, change_seeds = by_workload[workload]

        def side(runs, seeds, name):
            got = [value(runs[(workload, s)], name) for s in sorted(seeds)]
            return [v for v in got if v is not None]

        def show(name, parent, change, wins, pairs, result):
            pq, cq = quartiles(parent), quartiles(change)
            delta = (cq[1] - pq[1]) / abs(pq[1]) * 100 if pq[1] else 0.0
            print(f"{workload:18} {name:24} {cell(pq):>34} {cell(cq):>34} "
                  f"{delta:+7.1f}% {wins:>2}/{pairs:<3}  {result}")

        slowdown = (side(parent_runs, parent_seeds, "host.slowdown"),
                    side(change_runs, change_seeds, "host.slowdown"))
        host_shift = (abs(statistics.median(slowdown[1]) /
                          statistics.median(slowdown[0]) - 1)
                      if all(slowdown) else 0.0)
        for row, name, lower, bound in rows(spec):
            parent = side(parent_runs, parent_seeds, name)
            change = side(change_runs, change_seeds, name)
            if not parent or not change:
                continue
            if name in CROWD_BOUNDS and statistics.median(parent) == 0:
                continue
            pairs = [(value(parent_runs[(workload, s)], name),
                      value(change_runs[(workload, s)], name))
                     for s in sorted(parent_seeds & change_seeds)]
            pairs = [p for p in pairs if None not in p]
            wins, result = verdict(parent, change, pairs, lower, bound)
            if name in TIMINGS and host_shift > bound:
                result = f"unresolved (host.slowdown moved {host_shift:.0%})"
            regressed |= result == "worse"
            show(row, parent, change, wins, len(pairs), result)

        parent_failed = sum(side(parent_runs, parent_seeds, "failed"))
        change_failed = sum(side(change_runs, change_seeds, "failed"))
        result = "worse" if change_failed > parent_failed else "no worse"
        regressed |= result == "worse"
        print(f"{workload:18} {'failed ops':24} {parent_failed:>34} "
              f"{change_failed:>34} {'':>8} {'':>6}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
