"""The paired-run summary of ``scripts/perf_pairs.py``, on synthetic result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

_loader = importlib.util.spec_from_file_location(
    "perf_pairs", REPO_ROOT / "scripts" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(perf_pairs)


def result(events_per_s, *, correct=True, failed=0, **overrides):
    """A perfbench result line with every end-to-end metric of BENCHMARK.json."""
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    values.update(events_per_s=events_per_s, **overrides)
    return {
        "correct": correct,
        "attempted": 27,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()},
    }


def line_of(lines, metric):
    (line,) = [line for line in lines if line.startswith(metric + " ")]
    return line


PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


@pytest.mark.parametrize(
    "change, wins, word",
    [
        ([136.0] * 10, "10/10", "gain (+36.0%)"),
        ([136.0] * 9 + [90.0], "9/10", "gain"),
        ([136.0] * 8 + [90.0, 90.0], "8/10", "inside bound"),
        ([101.0, 99.0, 100.0, 100.0, 102.0, 98.0, 100.0, 101.0, 97.0, 103.0], "5/10", "inside bound (+0.0%)"),
        ([70.0] * 10, "0/10", "worse than bound (-30.0%)"),
        ([100.0, 40.0, 160.0, 100.0, 40.0, 160.0, 100.0, 40.0, 160.0, 100.0], "3/10", "unresolved"),
    ],
    ids=["gain", "nine-of-ten", "eight-of-ten", "noise", "worse", "spread"],
)
def test_verdicts(change, wins, word):
    lines, status = perf_pairs.summarize(
        [result(v) for v in PARENT], [result(v) for v in change], SPEC
    )
    assert status == 0
    line = line_of(lines, "events_per_s")
    assert f"  {wins}  " in line and word in line, line


def test_ties_count_for_neither_side_and_lower_is_better_flips_the_sign():
    parent = [result(100.0, setup_s=s) for s in (1.0, 1.0, 1.0)]
    change = [result(100.0, setup_s=s) for s in (0.5, 1.0, 2.0)]
    lines, _ = perf_pairs.summarize(parent, change, SPEC)
    assert "  0/3  " in line_of(lines, "events_per_s")
    assert "  1/3  " in line_of(lines, "setup_s")


def test_median_gap_must_exceed_the_parents_iqr():
    parent = [95.0, 105.0] * 5  # median 100, IQR 10
    assert perf_pairs.verdict(parent, [v + 8.0 for v in parent], "higher", 0.25) == (
        10,
        "inside bound",
    )
    assert perf_pairs.verdict(parent, [v + 12.0 for v in parent], "higher", 0.25) == (10, "gain")
    # An IQR wider than the bound cannot show a metric inside it, unless
    # every run of the change beats every run of the parent.
    assert perf_pairs.verdict(parent, parent, "higher", 0.05) == (0, "unresolved")
    assert perf_pairs.verdict(parent, [v + 11.0 for v in parent], "lower", 0.05) == (
        0,
        "worse than bound",
    )
    assert perf_pairs.verdict(parent, [v - 11.0 for v in parent], "lower", 0.05) == (
        10,
        "gain",
    )
    assert perf_pairs.verdict(parent, [v + 3.0 for v in parent], "higher", 0.05) == (
        10,
        "unresolved",
    )
    assert perf_pairs.verdict(parent, [106.0] * 10, "higher", 0.05) == (10, "inside bound")


def test_one_pair_has_its_own_quartiles():
    assert perf_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert perf_pairs.verdict([10.0], [12.0], "higher", 0.25) == (1, "gain")


@pytest.mark.parametrize(
    "bad, message",
    [
        (result(100.0, correct=False), "FAIL change run 1: correct=False failed=0"),
        (result(100.0, failed=2), "FAIL change run 1: correct=True failed=2"),
        (None, "FAIL change run 1: no result line"),
    ],
    ids=["not-correct", "failed", "no-result"],
)
def test_a_bad_run_fails_the_comparison(bad, message):
    lines, status = perf_pairs.summarize(
        [result(100.0), result(100.0)], [result(130.0), bad], SPEC
    )
    assert status == 1
    assert lines == [message]
