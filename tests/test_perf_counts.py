"""The work-count ratchet: ``perf-counts.json`` and ``scripts/perf_counts.py``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((REPO_ROOT / "perf-counts.json").read_text())["workloads"]
PACKS = COMMITTED["config_sweep"]["plan.pack_fill_job.calls"]


def test_committed_file_covers_every_workload_and_count_metric():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    counters = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    assert set(COMMITTED) == {w["name"] for w in spec["workloads"]}
    for workload, counts in COMMITTED.items():
        assert set(counts) == counters, workload


def _metric(results, workload, name):
    return results[workload]["metrics"][name]


@pytest.mark.parametrize(
    "edit, exit_code, message",
    [
        (lambda r: None, 0, "0 failure(s), 0 fell"),
        (
            lambda r: _metric(r, "config_sweep", "cand.add.calls").update(value=1),
            0,
            "ratchet with --update",
        ),
        (
            lambda r: _metric(r, "config_sweep", "plan.pack_fill_job.calls").update(
                value=PACKS + 1
            ),
            1,
            f"FAIL config_sweep plan.pack_fill_job.calls: {PACKS} -> {PACKS + 1} (+1)",
        ),
        (
            lambda r: r["single_tenant_sjf"].update(correct=False),
            1,
            "FAIL single_tenant_sjf: correct=False failed=0",
        ),
        (
            lambda r: r["single_tenant_sjf"].update(failed=1),
            1,
            "FAIL single_tenant_sjf: correct=True failed=1",
        ),
        (
            lambda r: r.pop("cluster_deadline_churn"),
            1,
            "FAIL cluster_deadline_churn: no traced result",
        ),
        (
            lambda r: r["config_sweep"]["metrics"].pop("plancache.errors"),
            1,
            "FAIL config_sweep plancache.errors: missing from the result",
        ),
    ],
    ids=["same", "fell", "rose", "not-correct", "failed", "no-workload", "no-counter"],
)
def test_gate_names_what_changed(tmp_path, edit, exit_code, message):
    results = {
        workload: {
            "correct": True,
            "attempted": 30,
            "failed": 0,
            "metrics": {n: {"value": v, "unit": "count"} for n, v in counts.items()},
        }
        for workload, counts in COMMITTED.items()
    }
    edit(results)
    paths = []
    for workload, result in results.items():
        paths.append(tmp_path / f"perfbench-{workload}-trace.json")
        paths[-1].write_text(json.dumps(result))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "perf_counts.py"), *map(str, paths)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == exit_code and message in proc.stdout, proc.stdout
