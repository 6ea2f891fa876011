"""Compare two source trees, a parent and a change, with this benchmark.

    python3 bench/compare.py --base PARENT_ROOT [--head CHANGE_ROOT] [--workload W ...]

Each root is a checkout holding src/negarr; a parent checkout can be made
with `git archive <commit> | tar -x -C DIR`.  Both sides run this bench's
run.py (--src ROOT/src), so the benchmark code and settings are identical.
For every workload it runs 10 pairs of BENCHMARK.json's run_seconds each, on
seeds 101 to 110, one process at a time, alternating which side runs first.

Per workload and end-to-end metric it prints each side's median and
quartiles, the change's wins over its pair partner (ties count for neither)
and a verdict:

- gain: the change wins at least 9 of the 10 pairs, and
  the medians differ by more than the parent's interquartile range;
- unresolved: either side's spread (IQR / median) exceeds the metric's bound
  and not every run of the change reads better than every run of the parent;
- regression: the change's median is worse than the parent's by more than
  the bound;
- no regression: otherwise.

fail_ratio (failed / attempted over all runs) is compared as its own row.
Exits 1 when any row is a regression or fail_ratio rose, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
FIRST_SEED = 101
PAIRS = 10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(root: str, workload: str, seed: int, seconds, trace: int = 0,
             quick: bool = False) -> dict:
    """One benchmark process on the tree at root; its parsed result line."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--src", os.path.join(root, "src")] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list, change: list) -> tuple:
    """(wins, verdict) for one metric's paired runs."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    if (len(parent) >= PAIRS and wins >= 0.9 * len(parent) and better(cm, pm)
            and abs(cm - pm) > p3 - p1):
        return wins, "gain"
    if spread > metric["bound"] and not all_better:
        return wins, f"unresolved (spread {spread:.3f} > bound)"
    if worse_by > metric["bound"]:
        return wins, f"regression ({worse_by:+.1%})"
    return wins, "no regression"


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent checkout root")
    ap.add_argument("--head", default=ROOT, help="change checkout root (default: this one)")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    bad = False
    print(f"{'workload':9} {'metric':16} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                root = args.base if side == "base" else args.head
                runs[side].append(run_once(root, workload, seed, spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["base"]]
            change = [r["metrics"][name]["value"] for r in runs["head"]]
            wins, result = verdict(metric, parent, change)
            bad |= result.startswith("regression")
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"{workload:9} {name:16} {pm:12.6g} [{p1:.6g}, {p3:.6g}] "
                  f"{cm:12.6g} [{c1:.6g}, {c3:.6g}] {wins:3}/{len(parent):<2}  {result}")
        ratios = []
        for side in ("base", "head"):
            attempted = sum(r["attempted"] for r in runs[side])
            ratios.append(sum(r["failed"] for r in runs[side]) / attempted)
        bad |= ratios[1] > ratios[0]
        print(f"{workload:9} {'fail_ratio':16} {ratios[0]:>32.6g} {ratios[1]:>32.6g} "
              f"{'':6}  {'worse' if ratios[1] > ratios[0] else 'not worse'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
