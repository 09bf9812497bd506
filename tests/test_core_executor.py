"""Tests for repro.core.executor (the Fill Job Executor)."""

from __future__ import annotations

import pytest

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.models.configs import ExecutionConfig, JobType
from repro.pipeline.bubbles import BubbleCycle
from repro.utils.units import GIB


@pytest.fixture(scope="module")
def executor_8k(bubble_cycle_8k_module) -> FillJobExecutor:
    return FillJobExecutor(bubble_cycle_8k_module)


@pytest.fixture(scope="module")
def bubble_cycle_8k_module():
    from repro.models.registry import build_model
    from repro.pipeline.parallelism import ParallelConfig
    from repro.sim.mainjob import AnalyticMainJob

    parallel = ParallelConfig(
        tensor_parallel=8, pipeline_stages=16, data_parallel=64,
        microbatch_size=2, global_batch_size=1024,
    )
    job = AnalyticMainJob(model=build_model("gpt-40b"), parallel=parallel)
    return job.bubble_cycle(8)


class TestEstimates:
    def test_estimate_exists_for_all_table1_inference_jobs(self, executor_8k):
        from repro.models.registry import build_model

        for name in ("bert-base", "bert-large", "efficientnet", "swin-large", "xlm-roberta-xl"):
            est = executor_8k.build_estimate(build_model(name), JobType.BATCH_INFERENCE)
            assert est is not None, name
            assert est.recovered_tflops > 0

    def test_xlm_training_does_not_fit(self, executor_8k, xlm_model):
        assert executor_8k.build_estimate(xlm_model, JobType.TRAINING) is None

    def test_inference_beats_training(self, executor_8k, bert_base_model):
        """Figure 7a: batch inference reaches higher FLOPS than training."""
        inf = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        train = executor_8k.build_estimate(bert_base_model, JobType.TRAINING)
        assert inf.recovered_tflops > train.recovered_tflops

    def test_swin_and_efficientnet_perform_poorly(self, executor_8k):
        """Figure 7a: Swin and EfficientNet are the weakest fill jobs."""
        from repro.models.registry import build_model

        def tflops(name):
            est = executor_8k.build_estimate(build_model(name), JobType.BATCH_INFERENCE)
            return est.recovered_tflops

        assert tflops("swin-large") < tflops("bert-base")
        assert tflops("efficientnet") < tflops("bert-base")

    def test_xlm_similar_tflops_to_bert_inference(self, executor_8k, xlm_model, bert_base_model):
        """Figure 7: XLM inference recovers TFLOPS comparable to BERT inference."""
        xlm = executor_8k.build_estimate(xlm_model, JobType.BATCH_INFERENCE)
        bert = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert xlm.recovered_tflops == pytest.approx(bert.recovered_tflops, rel=0.5)

    def test_substantial_slowdown_relative_to_exclusive(self, executor_8k, bert_base_model):
        """Figure 7b: fill jobs run at a fraction (~20-50%) of exclusive throughput."""
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert 0.1 < est.relative_performance < 0.6
        assert est.slowdown > 1.5

    def test_recovered_tflops_below_main_job_tflops(self, executor_8k, bert_base_model):
        """Fill jobs in bubbles stay well below the main job's ~60 TFLOP/s."""
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert est.recovered_tflops < 40.0

    def test_estimate_cache_hit(self, executor_8k, bert_base_model):
        first = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        second = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert first is second

    def test_explicit_configs_bypass_cache(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(
            bert_base_model,
            JobType.BATCH_INFERENCE,
            configs=[ExecutionConfig(batch_size=2)],
        )
        assert est is not None
        assert est.profile.config.batch_size == 2

    def test_footprint_respects_usable_memory(self, executor_8k, bert_large_model):
        est = executor_8k.build_estimate(bert_large_model, JobType.TRAINING)
        assert est is not None
        assert est.profile.device_footprint_bytes <= executor_8k.usable_memory_bytes


class TestProcessingTime:
    def test_processing_time_scales_linearly(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        t1 = est.processing_time(1_000)
        t2 = est.processing_time(2_000)
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_processing_time_infinite_when_no_fit(self, executor_8k, xlm_model):
        # No estimate: the scheduler prices the job at +inf on this executor.
        assert executor_8k.build_estimate(xlm_model, JobType.TRAINING) is None

    def test_flops_for_samples(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        flops = est.flops_for_samples(100)
        assert flops > 0
        assert est.flops_for_samples(200) == pytest.approx(2 * flops)

    def test_processing_time_invalid_samples(self, executor_8k, bert_base_model):
        est = executor_8k.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        with pytest.raises(ValueError):
            est.processing_time(0)


class TestBubbleSensitivity:
    def test_more_free_memory_helps_training(self, bert_large_model):
        """Figure 10b: more bubble free memory raises recovered TFLOPS."""
        small = FillJobExecutor(BubbleCycle.from_durations([1.0, 1.0], 2 * GIB, period=4.0))
        large = FillJobExecutor(BubbleCycle.from_durations([1.0, 1.0], 8 * GIB, period=4.0))
        est_small = small.build_estimate(bert_large_model, JobType.TRAINING)
        est_large = large.build_estimate(bert_large_model, JobType.TRAINING)
        assert est_large.recovered_tflops >= est_small.recovered_tflops

    def test_longer_bubbles_do_not_hurt(self, bert_base_model):
        """Figure 10a: scaling bubble durations changes recovered TFLOPS little."""
        short = FillJobExecutor(BubbleCycle.from_durations([0.5, 0.5], 4.5 * GIB, period=2.0))
        long = FillJobExecutor(BubbleCycle.from_durations([2.0, 2.0], 4.5 * GIB, period=8.0))
        est_short = short.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        est_long = long.build_estimate(bert_base_model, JobType.BATCH_INFERENCE)
        assert est_long.recovered_tflops >= est_short.recovered_tflops
        # ... but the change is moderate, not a cliff.
        assert est_long.recovered_tflops < 2.5 * est_short.recovered_tflops
