"""Shared pytest fixtures.

Model construction and profile generation are cheap but not free, so the
fixtures that build them are session-scoped; they are all immutable
(frozen dataclasses), so sharing them across tests is safe.
"""

from __future__ import annotations

import pytest

from repro.models.configs import ExecutionConfig, JobType
from repro.models.registry import build_model
from repro.pipeline.bubbles import BubbleCycle
from repro.pipeline.costs import main_job_costs
from repro.pipeline.engine import InstrumentedPipelineEngine
from repro.pipeline.parallelism import ParallelConfig
from repro.sim.mainjob import AnalyticMainJob
from repro.utils.units import GIB


@pytest.fixture(autouse=True)
def _plancache_isolation(request, tmp_path_factory, monkeypatch):
    """Keep the persistent plan cache out of the repository during tests.

    The CLI commands enable the disk cache at ``.repro-cache`` by default;
    under pytest that default is redirected to a temp directory, and the
    module-level switch is reset afterwards so a CLI test can never leak
    an enabled cache into library tests.
    """
    import repro.cli as cli
    from repro.utils import plancache

    monkeypatch.setattr(
        cli,
        "DEFAULT_CACHE_DIR",
        str(tmp_path_factory.mktemp("repro-cache")),
        raising=True,
    )
    yield
    plancache.configure(None, enabled=False)


@pytest.fixture(scope="session")
def bert_base_model():
    """BERT-base fill-job model."""
    return build_model("bert-base")


@pytest.fixture(scope="session")
def bert_large_model():
    """BERT-large fill-job model."""
    return build_model("bert-large")


@pytest.fixture(scope="session")
def efficientnet_model():
    """EfficientNet fill-job model (the only CNN)."""
    return build_model("efficientnet")


@pytest.fixture(scope="session")
def swin_model():
    """Swin-large fill-job model."""
    return build_model("swin-large")


@pytest.fixture(scope="session")
def xlm_model():
    """XLM-RoBERTa-XL fill-job model."""
    return build_model("xlm-roberta-xl")


@pytest.fixture(scope="session")
def gpt5b_model():
    """The 5B-parameter main-job LLM."""
    return build_model("gpt-5b")


@pytest.fixture(scope="session")
def gpt40b_model():
    """The 40B-parameter main-job LLM."""
    return build_model("gpt-40b")


@pytest.fixture(scope="session")
def parallel_5b() -> ParallelConfig:
    """The paper's 5B physical-cluster configuration (pp16, m=8)."""
    return ParallelConfig(
        tensor_parallel=1,
        pipeline_stages=16,
        data_parallel=64,
        microbatch_size=2,
        global_batch_size=1024,
    )


@pytest.fixture(scope="session")
def parallel_40b_8k() -> ParallelConfig:
    """The 40B job scaled to 8K GPUs (tp8, pp16, dp64, m=8)."""
    return ParallelConfig(
        tensor_parallel=8,
        pipeline_stages=16,
        data_parallel=64,
        microbatch_size=2,
        global_batch_size=1024,
    )


@pytest.fixture(scope="session")
def parallel_40b_1k() -> ParallelConfig:
    """The 40B job at 1K GPUs (dp8, m=64)."""
    return ParallelConfig(
        tensor_parallel=8,
        pipeline_stages=16,
        data_parallel=8,
        microbatch_size=2,
        global_batch_size=1024,
    )


@pytest.fixture(scope="session")
def small_parallel() -> ParallelConfig:
    """A tiny 4-stage configuration for fast engine tests."""
    return ParallelConfig(
        tensor_parallel=1,
        pipeline_stages=4,
        data_parallel=1,
        microbatch_size=2,
        global_batch_size=8,
    )


@pytest.fixture(scope="session")
def costs_5b(gpt5b_model, parallel_5b):
    """Cost model of the 5B physical-cluster main job."""
    return main_job_costs(gpt5b_model, parallel_5b)


@pytest.fixture(scope="session")
def engine_5b(costs_5b):
    """Instrumented engine replaying the 5B main job with GPipe."""
    return InstrumentedPipelineEngine(costs_5b, "gpipe")


@pytest.fixture(scope="session")
def mainjob_40b_8k(gpt40b_model, parallel_40b_8k) -> AnalyticMainJob:
    """Analytic 40B main job at 8K GPUs."""
    return AnalyticMainJob(model=gpt40b_model, parallel=parallel_40b_8k)


@pytest.fixture(scope="session")
def bubble_cycle_8k(mainjob_40b_8k) -> BubbleCycle:
    """Bubble cycle of a middle stage of the 8K-GPU 40B job."""
    return mainjob_40b_8k.bubble_cycle(8)


@pytest.fixture()
def synthetic_cycle() -> BubbleCycle:
    """A small synthetic bubble cycle: two 1-second bubbles, 4.5 GiB free."""
    return BubbleCycle.from_durations(
        [1.0, 1.0], free_memory_bytes=4.5 * GIB, period=4.0
    )


@pytest.fixture(scope="session")
def inference_config() -> ExecutionConfig:
    """A plain batch-inference configuration."""
    return ExecutionConfig(batch_size=8)


@pytest.fixture(scope="session")
def training_config() -> ExecutionConfig:
    """A plain training configuration."""
    return ExecutionConfig(batch_size=4)


@pytest.fixture(scope="session")
def job_types() -> tuple[JobType, JobType]:
    """Both fill-job types."""
    return (JobType.BATCH_INFERENCE, JobType.TRAINING)
