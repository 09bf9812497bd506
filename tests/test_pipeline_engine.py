"""Tests for repro.pipeline.engine (the instrumented pipeline engine)."""

from __future__ import annotations

import pytest

from repro.pipeline.costs import main_job_costs
from repro.pipeline.engine import InstrumentedPipelineEngine
from repro.pipeline.instructions import BubbleKind
from repro.pipeline.parallelism import ParallelConfig


@pytest.fixture(scope="module")
def small_engine(bert_base_model_module):
    """A fast 4-stage pipeline over BERT-base used for structural tests."""
    cfg = ParallelConfig(
        tensor_parallel=1, pipeline_stages=4, data_parallel=1,
        microbatch_size=2, global_batch_size=16,
    )
    costs = main_job_costs(bert_base_model_module, cfg)
    return InstrumentedPipelineEngine(costs, "gpipe")


@pytest.fixture(scope="module")
def bert_base_model_module():
    from repro.models.registry import build_model

    return build_model("bert-base")


class TestReplayBasics:
    def test_all_stages_have_timelines(self, small_engine):
        timelines = small_engine.run()
        assert len(timelines) == 4

    def test_iteration_counts(self, small_engine):
        timelines = small_engine.run()
        for t in timelines:
            assert len(t.iteration_starts) == small_engine.num_iterations

    def test_deterministic_replay(self, small_engine):
        a = small_engine.bubble_cycles()
        b = small_engine.bubble_cycles()
        assert a == b

    def test_minimum_iterations_enforced(self, small_engine):
        with pytest.raises(ValueError):
            InstrumentedPipelineEngine(small_engine.costs, "gpipe", num_iterations=2)

    def test_schedule_mismatch_rejected(self, small_engine):
        from repro.pipeline.schedules import GPipeSchedule

        with pytest.raises(ValueError):
            InstrumentedPipelineEngine(small_engine.costs, GPipeSchedule(8, 4))


def mean_bubble_ratio(engine):
    """Mean fraction of the steady iteration each stage spends idle."""
    cycles = engine.bubble_cycles()
    return sum(c.bubble_ratio for c in cycles) / len(cycles)


class TestMeasuredBubbles:
    def test_5b_job_bubble_ratio_matches_paper(self, engine_5b):
        """The 5B physical-cluster job runs at ~65% bubbles (Section 6.1)."""
        assert 0.55 <= mean_bubble_ratio(engine_5b) <= 0.72

    def test_measured_iteration_close_to_analytic(self, engine_5b, costs_5b):
        period = engine_5b.bubble_cycle(0).period
        assert period == pytest.approx(costs_5b.iteration_time, rel=0.10)

    def test_bubble_kinds_by_stage(self, engine_5b):
        cycles = engine_5b.bubble_cycles()
        # Stage 0: only fwd-bwd; last stage: only fill-drain.
        kinds_first = {b.kind for b in cycles[0].bubbles if b.duration > 1e-6}
        kinds_last = {b.kind for b in cycles[-1].bubbles if b.duration > 1e-6}
        assert BubbleKind.FWD_BWD in kinds_first
        assert BubbleKind.FILL_DRAIN not in kinds_first
        assert BubbleKind.FILL_DRAIN in kinds_last
        assert BubbleKind.FWD_BWD not in kinds_last

    def test_fwd_bwd_bubble_shrinks_with_stage_id(self, engine_5b):
        cycles = engine_5b.bubble_cycles()

        def fwd_bwd(c):
            return sum(b.duration for b in c.bubbles if b.kind is BubbleKind.FWD_BWD)

        assert fwd_bwd(cycles[0]) > fwd_bwd(cycles[8]) > fwd_bwd(cycles[15])

    def test_fill_drain_bubble_grows_with_stage_id(self, engine_5b):
        cycles = engine_5b.bubble_cycles()

        def fill_drain(c):
            return sum(b.duration for b in c.bubbles if b.kind is BubbleKind.FILL_DRAIN)

        assert fill_drain(cycles[15]) > fill_drain(cycles[8]) > fill_drain(cycles[0])

    def test_gpipe_measured_bubbles_match_formulas_uniform_stages(self):
        """With perfectly uniform stages the measured bubbles equal Section 4.5's formulas."""
        from repro.models.base import LayerKind, LayerSpec, ModelSpec

        block = dict(
            kind=LayerKind.TRANSFORMER_BLOCK,
            param_count=1e6,
            fwd_flops_per_sample=1e12,
            activation_bytes_per_sample=1e6,
            output_bytes_per_sample=1e5,
        )
        model = ModelSpec(
            name="uniform",
            layers=tuple(LayerSpec(name=f"b{i}", **block) for i in range(8)),
            reference_seq_len=128,
        )
        cfg = ParallelConfig(
            tensor_parallel=1, pipeline_stages=8, data_parallel=1,
            microbatch_size=1, global_batch_size=6,
        )
        costs = main_job_costs(model, cfg)
        engine = InstrumentedPipelineEngine(costs, "gpipe")
        cycles = engine.bubble_cycles()
        t_f, t_b = costs.max_t_forward, costs.max_t_backward
        sched = engine.schedule
        for stage in (1, 4, 6):
            measured = sum(
                b.duration for b in cycles[stage].bubbles if b.kind is BubbleKind.FWD_BWD
            )
            expected = sched.fwd_bwd_bubble_duration(stage, t_f, t_b)
            assert measured == pytest.approx(expected, rel=0.15)

    def test_cycle_period_matches_iteration_time(self, engine_5b):
        timelines = engine_5b.run()
        it = engine_5b.steady_iteration
        iteration_time = max(
            t.iteration_starts[it + 1] - t.iteration_starts[it] for t in timelines
        )
        cycle = engine_5b.bubble_cycle(5)
        assert cycle.period == pytest.approx(iteration_time, rel=1e-6)

    def test_1f1b_total_bubble_similar_to_gpipe(self, costs_5b):
        gpipe = mean_bubble_ratio(InstrumentedPipelineEngine(costs_5b, "gpipe"))
        f1b = mean_bubble_ratio(InstrumentedPipelineEngine(costs_5b, "1f1b"))
        assert f1b == pytest.approx(gpipe, rel=0.10)

    def test_1f1b_has_non_contiguous_idle(self, costs_5b):
        engine = InstrumentedPipelineEngine(costs_5b, "1f1b")
        cycles = engine.bubble_cycles()
        non_contig = sum(
            b.duration
            for c in cycles
            for b in c.bubbles
            if b.kind is BubbleKind.NON_CONTIGUOUS
        )
        assert non_contig > 0.0
