"""Tests for repro.core.system (the PipeFillSystem facade)."""

from __future__ import annotations

import pytest

from repro.core.config import PipeFillConfig
from repro.core.system import PipeFillSystem
from repro.models.configs import JobType
from repro.pipeline.parallelism import ParallelConfig, microbatches_for_cluster
from repro.workloads.generator import build_fill_job_trace
from repro.utils.units import GIB


@pytest.fixture(scope="module")
def system_8k(gpt40b_model_module, parallel_8k_module) -> PipeFillSystem:
    return PipeFillSystem(gpt40b_model_module, parallel_8k_module)


@pytest.fixture(scope="module")
def gpt40b_model_module():
    from repro.models.registry import build_model

    return build_model("gpt-40b")


@pytest.fixture(scope="module")
def parallel_8k_module() -> ParallelConfig:
    return ParallelConfig(
        tensor_parallel=8, pipeline_stages=16, data_parallel=64,
        microbatch_size=2, global_batch_size=1024,
    )


@pytest.fixture(scope="module")
def short_trace():
    return build_fill_job_trace(1800.0, arrival_rate_per_hour=300, seed=3)


class TestConstruction:
    def test_executor_per_stage(self, system_8k):
        assert system_8k.num_simulated_devices == 16
        assert system_8k.cluster_devices == 8192

    def test_devices_per_stage(self, gpt40b_model_module, parallel_8k_module):
        system = PipeFillSystem(gpt40b_model_module, parallel_8k_module, devices_per_stage=2)
        assert system.num_simulated_devices == 32

    def test_bubble_cycle_accessor(self, system_8k):
        cycle = system_8k.bubble_cycle(8)
        assert cycle.stage_id == 8
        assert cycle.total_bubble_time > 0

    def test_free_memory_override(self, gpt40b_model_module, parallel_8k_module):
        system = PipeFillSystem(
            gpt40b_model_module, parallel_8k_module, bubble_free_memory_bytes=2 * GIB
        )
        assert system.bubble_cycle(5).min_free_memory_bytes == pytest.approx(2 * GIB)

    def test_offload_increases_bubble_memory(self, gpt40b_model_module, parallel_8k_module):
        plain = PipeFillSystem(gpt40b_model_module, parallel_8k_module)
        offloaded = PipeFillSystem(
            gpt40b_model_module,
            parallel_8k_module,
            config=PipeFillConfig(offload_main_job=True),
        )
        assert (
            offloaded.bubble_cycle(8).min_free_memory_bytes
            > plain.bubble_cycle(8).min_free_memory_bytes
        )

    def test_engine_backed_cycles(self, gpt5b_model, parallel_5b):
        system = PipeFillSystem(gpt5b_model, parallel_5b, use_engine=True)
        assert system.bubble_cycle(8).total_bubble_time > 0


class TestRun:
    def test_run_produces_report(self, system_8k, short_trace):
        report = system_8k.run(short_trace, horizon_seconds=1800.0)
        u = report.utilization
        assert u.fill_tflops_per_device > 0
        assert u.main_tflops_per_device > 0
        assert u.total_tflops_per_device == pytest.approx(
            u.main_tflops_per_device + u.fill_tflops_per_device
        )
        assert report.gpus_saved > 0

    def test_main_job_slowdown_under_two_percent_at_default_fill(self, system_8k, short_trace):
        """The headline claim: <2% main-job slowdown at the default fill fraction."""
        report = system_8k.run(short_trace, horizon_seconds=1800.0)
        assert report.utilization.main_job_slowdown < 0.02

    def test_higher_fill_fraction_more_overhead(
        self, gpt40b_model_module, parallel_8k_module, short_trace
    ):
        aggressive = PipeFillSystem(
            gpt40b_model_module,
            parallel_8k_module,
            config=PipeFillConfig(fill_fraction=0.95),
        )
        report = aggressive.run(short_trace, horizon_seconds=1800.0)
        assert report.utilization.main_job_slowdown > 0.02

    def test_utilization_gain_substantial_at_8k(self, system_8k, short_trace):
        """At 8K GPUs (65% bubbles) the trace mix recovers >20% extra utilization."""
        report = system_8k.run(short_trace, horizon_seconds=1800.0)
        assert report.utilization.utilization_gain > 0.20


class TestOneTenantRun:
    @pytest.fixture(scope="class")
    def smoke(self, short_trace):
        """A small gpt-5b pipeline (8 executors) loaded past capacity."""
        from repro.models.registry import build_model

        system = PipeFillSystem(
            build_model("gpt-5b"),
            ParallelConfig(
                tensor_parallel=1, pipeline_stages=8, data_parallel=2,
                microbatch_size=2, global_batch_size=32,
            ),
        )
        return system, short_trace, 1800.0

    def test_report_wraps_the_one_tenant_result(self, smoke):
        from repro.core.system import MAIN_TENANT

        system, jobs, horizon = smoke
        report = system.run(jobs, horizon_seconds=horizon)
        result = report.simulation
        assert list(result.tenants) == [MAIN_TENANT]
        # Rejected and still-waiting jobs never reach the tenant's records,
        # so the report carries the aggregate's counts.
        assert report.utilization.fill_metrics == result.aggregate
        assert result.aggregate.jobs_submitted == len(jobs)
        assert result.jobs_rejected_global == result.aggregate.jobs_rejected > 0
        tenant = result.tenants[MAIN_TENANT]
        assert report.utilization.fill_tflops_per_device == tenant.fill_tflops_per_device
        assert tenant.scheduler.completed_records()

    def test_placement_does_no_local_queue_work(self, smoke, monkeypatch):
        """Without faults or preemption, a placed job is indexed once (in
        the backlog) and the empty tenant queue is never scored."""
        from collections import Counter

        from repro.core.candidates import CandidateIndex
        from repro.core.scheduler import FillJobScheduler

        adds: Counter = Counter()
        local_scans = []
        add = CandidateIndex.add
        select = FillJobScheduler.select_job_scored

        def counting_add(index, job):
            adds[job.job_id] += 1
            return add(index, job)

        def counting_select(sched, executor_index, now):
            local_scans.append(executor_index)
            return select(sched, executor_index, now)

        monkeypatch.setattr(CandidateIndex, "add", counting_add)
        monkeypatch.setattr(FillJobScheduler, "select_job_scored", counting_select)
        system, jobs, horizon = smoke
        report = system.run(jobs, horizon_seconds=horizon)
        metrics = report.utilization.fill_metrics
        assert report.simulation.aggregate.num_preemptions == 0
        assert set(adds) <= {job.job_id for job in jobs}
        assert len(adds) == metrics.jobs_submitted - metrics.jobs_rejected
        assert max(adds.values()) == 1
        assert local_scans == []
