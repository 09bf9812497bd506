"""One-tenant runs of the event-driven cluster simulator (the paper's setting)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.core.policies import sjf_policy
from repro.core.scheduler import FillJob, FillJobState
from repro.models.configs import JobType
from repro.pipeline.bubbles import BubbleCycle
from repro.sim.multi_tenant import MultiTenantSimulator, Tenant
from repro.utils.units import GIB

TENANT = "main"


class OneTenant:
    """Runs a fill-job trace as a one-tenant simulation over fixed executors."""

    def __init__(self, executors) -> None:
        self.system = SimpleNamespace(
            executors=executors,
            config=PipeFillConfig(),
            main_job=SimpleNamespace(tflops_per_device=10.0, bubble_ratio=0.5),
        )

    def run(self, jobs, **kwargs):
        simulator = MultiTenantSimulator([Tenant(TENANT, self.system)], policy=sjf_policy)
        return simulator.run(extra_jobs=jobs, **kwargs)


@pytest.fixture()
def simulator() -> OneTenant:
    executors = {
        i: FillJobExecutor(BubbleCycle.from_durations([1.0, 1.0], 4.5 * GIB, period=4.0))
        for i in range(2)
    }
    return OneTenant(executors)


def make_jobs(n=4, samples=1_000.0, spacing=1.0, job_type=JobType.BATCH_INFERENCE):
    return [
        FillJob(
            job_id=f"j{i}",
            model_name="bert-base",
            job_type=job_type,
            num_samples=samples,
            arrival_time=i * spacing,
        )
        for i in range(n)
    ]


class TestRun:
    def test_all_jobs_complete_without_horizon(self, simulator):
        result = simulator.run(make_jobs(4))
        assert result.aggregate.jobs_completed == 4
        assert result.aggregate.jobs_submitted == 4
        assert result.aggregate.total_flops > 0

    def test_horizon_truncates(self, simulator):
        full = simulator.run(make_jobs(6, samples=20_000.0))
        truncated = simulator.run(make_jobs(6, samples=20_000.0), horizon_seconds=10.0)
        assert truncated.horizon_seconds == 10.0
        assert truncated.aggregate.jobs_completed <= full.aggregate.jobs_completed
        # Pro-rated progress still counts some FLOPs.
        assert 0 < truncated.aggregate.total_flops <= full.aggregate.total_flops

    def test_deterministic(self, simulator):
        a = simulator.run(make_jobs(5)).aggregate
        b = simulator.run(make_jobs(5)).aggregate
        assert a.total_flops == b.total_flops
        assert a.average_jct == b.average_jct

    def test_infeasible_jobs_rejected(self, simulator):
        jobs = [
            FillJob(
                job_id="big",
                model_name="xlm-roberta-xl",
                job_type=JobType.TRAINING,
                num_samples=10.0,
                arrival_time=0.0,
            )
        ]
        result = simulator.run(jobs)
        assert result.aggregate.jobs_rejected == 1
        assert result.aggregate.jobs_completed == 0

    def test_jobs_spread_across_devices(self, simulator):
        result = simulator.run(make_jobs(2, samples=5_000.0, spacing=0.0))
        assigned = {
            r.assigned_executor
            for r in result.tenants[TENANT].scheduler.records.values()
            if r.state is FillJobState.COMPLETED
        }
        assert assigned == {0, 1}

    def test_serial_execution_per_device(self, simulator):
        """A device never runs two fill jobs at once."""
        result = simulator.run(make_jobs(6, samples=3_000.0, spacing=0.0))
        per_executor = {}
        for record in result.tenants[TENANT].scheduler.completed_records():
            per_executor.setdefault(record.assigned_executor, []).append(
                (record.start_time, record.completion_time)
            )
        for intervals in per_executor.values():
            intervals.sort()
            for (s1, e1), (s2, _) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9

    def test_fill_tflops_per_device(self, simulator):
        result = simulator.run(make_jobs(8, samples=2_000.0), horizon_seconds=60.0)
        assert result.fill_tflops_per_device > 0
        busy_fraction = result.aggregate.busy_device_seconds / (
            result.horizon_seconds * result.num_devices
        )
        assert busy_fraction > 0

    def test_queue_drains_in_sjf_order(self, simulator):
        jobs = [
            FillJob("small", "bert-base", JobType.BATCH_INFERENCE, 100.0, 0.0),
            FillJob("large", "bert-base", JobType.BATCH_INFERENCE, 50_000.0, 0.0),
            FillJob("medium", "bert-base", JobType.BATCH_INFERENCE, 5_000.0, 0.0),
        ]
        result = simulator.run(jobs)
        records = result.tenants[TENANT].scheduler.records
        assert records["small"].completion_time < records["large"].completion_time

    def test_requires_executors(self):
        with pytest.raises(ValueError):
            OneTenant({}).run([])

    def test_empty_trace(self, simulator):
        result = simulator.run([], horizon_seconds=10.0)
        assert result.aggregate.jobs_submitted == 0
        assert result.aggregate.total_flops == 0.0
