#!/usr/bin/env python
"""Compare two trees with alternating perfbench runs: the perf-claim protocol.

Runs ``perfbench/run.py --trace 0`` for one workload in a parent tree and
a changed tree, ``--pairs`` times each, for the ``run_seconds`` of the
changed tree's ``BENCHMARK.json``.  Pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd, so a drift in host
speed does not favour one side.  For every end-to-end metric it prints
each side's median and quartiles, the pairs the change won (ties count
for neither side) and a verdict:

* ``gain`` -- the change won at least 9 of every 10 pairs and its median
  beats the parent's by more than the parent's interquartile range;
* ``worse than bound`` -- the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved`` -- either side's interquartile range is wider than the
  bound, so the runs spread too widely to tell, and not every run of the
  change beats every run of the parent;
* ``inside bound`` -- none of the above.

Exits 1 when any run is not ``correct``, has ``failed`` checks or prints
no result line.

    python scripts/perf_pairs.py --parent ../parent --change . \\
        --workload cluster_deadline_churn --pairs 10 --seed 0
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q1, median, q3)


def _cell(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[int, str]:
    """``(wins, verdict)`` of one metric over paired runs (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return wins, "worse than bound"
    if wins * 10 >= 9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return wins, "gain"
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if max(p_q3 - p_q1, c_q3 - c_q1) > bound * abs(p_med) and not every_run_better:
        return wins, "unresolved"
    return wins, "inside bound"


def run_failures(results: Sequence[Optional[dict]]) -> List[str]:
    """Why each run that cannot count failed (empty when all are good)."""
    failures = []
    for i, result in enumerate(results):
        if result is None:
            failures.append(f"run {i}: no result line")
        elif result.get("correct") is not True or result.get("failed") != 0:
            failures.append(
                f"run {i}: correct={result.get('correct')} failed={result.get('failed')}"
            )
    return failures


def summarize(
    parent: Sequence[Optional[dict]], change: Sequence[Optional[dict]], spec: dict
) -> Tuple[List[str], int]:
    """The report lines and exit status for paired result objects.

    ``parent[i]`` and ``change[i]`` are the result objects of pair ``i``
    (``None`` for a run that printed none); ``spec`` is ``BENCHMARK.json``.
    """
    failures = [f"FAIL parent {f}" for f in run_failures(parent)]
    failures += [f"FAIL change {f}" for f in run_failures(change)]
    if failures:
        return failures, 1
    lines = [f"{'metric':24s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  wins"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins, word = verdict(p, c, metric["better"], metric["bound"])
        p_med, c_med = quartiles(p)[1], quartiles(c)[1]
        delta = (c_med - p_med) / p_med * 100.0 if p_med else 0.0
        lines.append(
            f"{name:24s} {_cell(p):>34s} {_cell(c):>34s}  {wins}/{len(p)}"
            f"  {word} ({delta:+.1f}%)"
        )
    return lines, 0


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Optional[dict]:
    """One untraced perfbench run in ``tree``: its result object, or ``None``."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent commit's tree")
    parser.add_argument("--change", required=True, type=Path, help="the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides: Dict[str, List[Optional[dict]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            result = run_once(tree, args.workload, args.seed, seconds)
            sides[side].append(result)
            shown = "no result" if result is None else json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            )
            print(f"pair {i + 1}/{args.pairs} {side}: {shown}", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s")
    lines, status = summarize(sides["parent"], sides["change"], spec)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
