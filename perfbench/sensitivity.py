"""Sensitivity check: the comparison must flag a real slowdown, and only there.

Each injection adds a fixed busy-wait, from outside, to every call of one
public function (with the wrapper machinery of the traced run), sized so
that one phase of one workload takes ``SHARE`` longer.  Every workload
then runs with the busy-wait switched on in alternate measuring rounds,
so that both sides see the same host drift, and each end-to-end metric is
computed for both sides the way the benchmark computes it: the median of
its samples, each at the reference host speed.  The worsening, as a
median over ``SEEDS`` seeds, is compared with the metric's bound from
``BENCHMARK.json``.

The predicted flags come from counts, not from the timings under test: a
busy-wait of ``d`` seconds per call adds ``calls x d`` to a sample's wall
time, so a metric is predicted to worsen by that share of its wall time
without the injection (``1 - 1/(1 + share)`` for rates).  The check
passes, exit status 0, when the flagged (metric, workload) pairs are
exactly the predicted ones.  Peak RSS is not compared: a busy-wait
allocates nothing.

Usage (from the repository root; about 15 minutes)::

    python3 perfbench/sensitivity.py
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Slowdown of the sized phase.  Every timing bound is 0.25, so a 25%
#: slowdown would sit exactly on the bound (and worsen a rate by only
#: 20%); 50% makes a rate worsen by a third, clearly past the bound.
SHARE = 0.5
SEEDS = (101, 102, 103)
#: ``--seconds`` of each benchmark run.
SECONDS = 40.0

#: name -> (binding to slow down, workload and phase the delay is sized on)
INJECTIONS: Dict[str, Tuple[str, str, str]] = {
    "try_preempt": (
        "repro.core.global_scheduler:GlobalScheduler.try_preempt",
        "cluster_deadline_churn",
        "events",
    ),
    "pack_fill_job": ("repro.core.executor:pack_fill_job", "config_sweep", "sweep_cold"),
}
#: The phase each timed end-to-end metric is measured in.
PHASE = {
    "setup_s": "setup",
    "plan_cold_s": "plan_cold",
    "events_per_s": "events",
    "sweep_cold_points_per_s": "sweep_cold",
    "sweep_warm_points_per_s": "sweep_warm",
}


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def child(args: argparse.Namespace) -> None:
    """One benchmark run, the busy-wait on in every other round.

    Prints, per phase, the median sample of each side as the benchmark
    computes it, and the calls of the injected function and the wall time
    per sample on the side without the busy-wait.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure, tracing
    from perfbench.workloads import WORKLOADS

    calls = [0]
    on = [True]  # flipped at the start of every round; the first is off
    marks: Dict[str, Tuple[float, int]] = {}
    rows: Dict[str, List[Tuple[bool, float, int]]] = {}  # (on, wall seconds, calls)

    def probe(phase: str, edge: str) -> None:
        now = time.perf_counter()
        if phase == "plan_cold" and edge == "start":
            on[0] = not on[0]
        if edge == "start":
            marks[phase] = (now, calls[0])
        else:
            start, before = marks[phase]
            rows.setdefault(phase, []).append((on[0], now - start, calls[0] - before))

    def make_wrapper(i: int, span, fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            calls[0] += 1
            if on[0] and args.delay:
                _spin(args.delay)
            return fn(*a, **k)

        return wrapper

    span = tracing.Span(args.inject, INJECTIONS[args.inject][0])
    with tracing.patched((span,), make_wrapper):
        check, _, samples = measure.measure(WORKLOADS[args.workload], args.seed, args.seconds, ROOT, probe)

    median = statistics.median
    phases = {}
    for phase, row in rows.items():
        side = {flag: [i for i, r in enumerate(row) if r[0] is flag] for flag in (False, True)}
        phases[phase] = {
            "off": median(samples[phase][i] for i in side[False]),
            "on": median(samples[phase][i] for i in side[True]),
            "calls": median(row[i][2] for i in side[False]),
            "wall": median(row[i][1] for i in side[False]),
        }
    print(json.dumps({"correct": check.correct, "phases": phases}))


def _run(workload: str, seed: int, seconds: float, inject: str, delay: float) -> dict:
    cmd = [sys.executable, __file__, "--child", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--inject", inject, "--delay", repr(delay)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} produced wrong results")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--inject", help=argparse.SUPPRESS)
    parser.add_argument("--delay", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"] if m["name"] in PHASE}

    mismatches = 0
    table = []
    for name, (_, sized_workload, sized_phase) in INJECTIONS.items():
        sized = _run(sized_workload, SEEDS[0], SECONDS / 2, name, 0.0)["phases"][sized_phase]
        delay = SHARE * sized["wall"] / sized["calls"]
        print(f"{name}: {sized['calls']:.0f} calls per {sized_phase} sample of {sized_workload}, "
              f"busy-wait {delay * 1e6:.1f} us per call", flush=True)
        for w in workloads:
            observed: Dict[str, List[float]] = {m: [] for m in metrics}
            predicted: Dict[str, List[float]] = {m: [] for m in metrics}
            for seed in SEEDS:
                phases = _run(w, seed, SECONDS, name, delay)["phases"]
                for metric in metrics:
                    p = phases[PHASE[metric]]
                    added = p["calls"] * delay / p["wall"]
                    if metrics[metric]["better"] == "lower":
                        observed[metric].append(p["on"] / p["off"] - 1)
                        predicted[metric].append(added)
                    else:
                        observed[metric].append(1 - p["on"] / p["off"])
                        predicted[metric].append(1 - 1 / (1 + added))
            for metric, m in metrics.items():
                want = statistics.median(predicted[metric])
                got = statistics.median(observed[metric])
                mismatches += (want > m["bound"]) != (got > m["bound"])
                table.append((name, w, metric, want, got, m["bound"]))
            print(f"  {w} done", flush=True)

    print(f"\n| injection | workload | metric | predicted | observed | bound | flagged |")
    print("|---|---|---|---|---|---|---|")
    for name, w, metric, want, got, bound in table:
        flag = "yes" if got > bound else "no"
        if (want > bound) != (got > bound):
            flag += " (predicted otherwise)"
        print(f"| `{name}` | `{w}` | `{metric}` | {want:.3f} | {got:.3f} | {bound:.2f} | {flag} |")
    print(f"\n{mismatches} mismatches between predicted and flagged pairs")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
