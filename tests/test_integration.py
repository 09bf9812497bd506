"""End-to-end integration tests across modules.

Each test exercises the full stack (models -> pipeline -> PipeFill core ->
simulator -> metrics) on small-but-real scenarios and checks the paper's
headline behaviours.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.core.plan import plan_fill_job
from repro.core.scheduler import FillJob
from repro.core.system import PipeFillSystem
from repro.models.configs import JobType
from repro.models.profiles import best_profile
from repro.models.registry import build_model
from repro.pipeline.parallelism import ParallelConfig
from repro.sim.mainjob import AnalyticMainJob
from repro.workloads.generator import build_fill_job_trace


class TestEngineToExecutorPath:
    """Bubbles measured by the instrumented engine feed Algorithm 1 directly."""

    def test_engine_cycle_is_plannable(self, engine_5b, bert_base_model):
        cycle = engine_5b.bubble_cycle(8)
        profile = best_profile(
            bert_base_model,
            JobType.BATCH_INFERENCE,
            memory_limit_bytes=cycle.min_free_memory_bytes,
        )
        assert profile is not None
        plan = plan_fill_job(profile.graph, cycle, PipeFillConfig())
        assert plan.planned_work_seconds > 0
        assert plan.iterations >= 1

    def test_planned_work_fits_engine_without_slowdown(self, engine_5b, bert_base_model):
        """Every partition planned against the engine's cycle fits inside its
        bubble, in time and in memory, so filling never delays the main job
        (the <2% slowdown claim)."""
        cycle = engine_5b.bubble_cycle(8)
        executor = FillJobExecutor(cycle)
        estimate = executor.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        filled = [p for p in estimate.plan.partitions if not p.is_empty]
        assert filled
        for partition in filled:
            bubble = estimate.plan.bubbles[partition.bubble_index]
            assert bubble in cycle.fillable_bubbles
            assert partition.duration <= bubble.duration
            assert partition.memory_bytes <= bubble.free_memory_bytes


class TestSystemLevelClaims:
    @pytest.fixture(scope="class")
    def report_8k(self):
        model = build_model("gpt-40b")
        parallel = ParallelConfig(
            tensor_parallel=8, pipeline_stages=16, data_parallel=64,
            microbatch_size=2, global_batch_size=1024,
        )
        system = PipeFillSystem(model, parallel)
        jobs = build_fill_job_trace(1200.0, arrival_rate_per_hour=400, seed=5)
        return system.run(jobs, horizon_seconds=1200.0)

    def test_substantial_recovery_at_8k(self, report_8k):
        assert report_8k.utilization.utilization_gain > 0.25

    def test_gpus_saved_in_paper_band(self, report_8k):
        """Section 6.2: 1.5K-2.6K GPUs' worth of work at the 8K scale."""
        assert 800 < report_8k.gpus_saved < 3500

    def test_fill_jobs_actually_complete(self, report_8k):
        assert report_8k.utilization.fill_metrics.jobs_completed > 0

    def test_low_scale_gain_modest(self):
        """Figure 4: at 1K GPUs the gain is in the 5-15% band."""
        model = build_model("gpt-40b")
        parallel = ParallelConfig(
            tensor_parallel=8, pipeline_stages=16, data_parallel=8,
            microbatch_size=2, global_batch_size=1024,
        )
        system = PipeFillSystem(model, parallel)
        jobs = build_fill_job_trace(1200.0, arrival_rate_per_hour=400, seed=5)
        report = system.run(jobs, horizon_seconds=1200.0)
        assert 0.02 < report.utilization.utilization_gain < 0.25


class TestSchedulerRoundTrip:
    def test_deadline_query_consistency(self, bubble_cycle_8k):
        from repro.core.global_scheduler import GlobalScheduler
        from repro.core.scheduler import FillJobScheduler

        executors = {0: FillJobExecutor(bubble_cycle_8k)}
        gs = GlobalScheduler({"t": FillJobScheduler(executors)})
        job = FillJob(
            job_id="deadline-job",
            model_name="bert-base",
            job_type=JobType.BATCH_INFERENCE,
            num_samples=1_000,
            arrival_time=0.0,
            deadline=1e7,
        )
        assert gs.submit(job)
        assert gs.idle_can_meet_deadline("deadline-job", now=0.0)
        assignment = gs.dispatch("t", 0, now=0.0)
        assert assignment is not None
        assert assignment.completion_time <= 1e7

    def test_main_job_and_fill_job_memory_coexist(self, mainjob_40b_8k, bert_base_model):
        """Main-job residency plus the fill job's footprint fit the device."""
        from repro.hardware.device import V100_16GB

        cycle = mainjob_40b_8k.bubble_cycle(8)
        executor = FillJobExecutor(cycle)
        estimate = executor.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        main_resident = V100_16GB.usable_memory_bytes - cycle.min_free_memory_bytes
        assert (
            main_resident + estimate.profile.device_footprint_bytes
            <= V100_16GB.usable_memory_bytes + 1e-6
        )
