"""Tests of the benchmark's own input generators.

Run from the repository root::

    python3 -m pytest -q perfbench/test_generators.py
"""

from __future__ import annotations

import ast
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import measure, workloads  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.api import Experiment  # noqa: E402
from repro.workloads.generator import build_tenant_fill_job_traces  # noqa: E402

NAMES = sorted(WORKLOADS)


def _inputs(name: str, seed: int):
    w = WORKLOADS[name]
    return (
        workloads.generate_jobs(w, seed),
        workloads.generate_faults(w),
        workloads.sweep_document(w, seed),
    )


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_different_seeds_different_inputs(name):
    jobs_a, _, doc_a = _inputs(name, 7)
    jobs_b, _, doc_b = _inputs(name, 8)
    assert jobs_a != jobs_b
    assert doc_a != doc_b


def test_failure_waves_cover_every_tenant_within_the_window():
    w = WORKLOADS["cluster_deadline_churn"]
    faults = workloads.generate_faults(w)
    assert len(faults) == w.failure_waves
    assert {f.tenant for f in faults} == {t.name for t in w.tenants}
    assert all(0 < f.fail_at < w.window_seconds for f in faults)
    assert workloads.generate_faults(WORKLOADS["single_tenant_sjf"]) == []


#: The program modules the benchmark may import: the kept public surfaces
#: plus the value types and model helpers its generators need.  The old
#: benchmark harness package is not among them.
ALLOWED_IMPORTS = {
    "repro",
    "repro.api",
    "repro.core.executor",
    "repro.core.scheduler",
    "repro.core.system",
    "repro.models.configs",
    "repro.models.registry",
    "repro.pipeline.parallelism",
    "repro.sim.kernel",
    "repro.sim.multi_tenant",
    "repro.utils",
    "repro.workloads.generator",
}


def test_benchmark_imports_only_kept_surfaces():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] == "repro":
                    assert module in ALLOWED_IMPORTS, (path.name, module)


@pytest.mark.parametrize("name", ["single_tenant_sjf", "cluster_deadline_churn"])
def test_backlog_stays_stable(name):
    """The open-loop stream forms a bounded backlog: most jobs finish."""
    w = WORKLOADS[name]
    inputs = measure.Inputs.make(w, 3)
    _, simulator = measure.build_cluster(inputs)
    result = simulator.run(faults=inputs.faults, horizon_seconds=w.horizon_seconds)
    submitted = result.aggregate.jobs_submitted
    assert submitted == sum(len(jobs) for jobs in inputs.streams.values())
    assert result.jobs_rejected_global == 0
    assert result.backlog_remaining < 0.25 * submitted
    assert result.aggregate.jobs_completed > 0.75 * submitted


def test_every_job_class_is_submitted():
    """All eight (model, job type) classes of the five Table 1 models."""
    for name in NAMES:
        streams = workloads.generate_jobs(WORKLOADS[name], 0)
        assert len(workloads.job_classes(streams)) == 8


@pytest.mark.parametrize("name", NAMES)
def test_every_sweep_trace_holds_every_job_class(name):
    """Each tenant's sweep trace submits all eight classes at any seed.

    The traces are derived the way the scenario builds them; a trace
    missing a class makes a sweep pass cheaper at that seed.
    """
    w = WORKLOADS[name]
    for seed in range(1, 11):
        spec = Experiment.from_dict(workloads.sweep_document(w, seed)).validate()
        specs = [
            replace(t.workload, name=t.name, seed=spec.seed + 7919 * (i + 1))
            for i, t in enumerate(spec.tenants)
        ]
        streams = build_tenant_fill_job_traces(spec.horizon_seconds, specs, seed=spec.seed)
        for tenant, jobs in streams.items():
            assert len(workloads.job_classes({tenant: jobs})) == 8, (name, seed, tenant)
