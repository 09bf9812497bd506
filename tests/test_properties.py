"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.config import PipeFillConfig, main_job_overhead_fraction
from repro.core.executor import _BOUND_MARGIN, FillJobExecutor
from repro.core.plan import PlanError, pack_fill_job, plan_fill_job
from repro.hardware.device import V100_16GB
from repro.models.base import ComputationalGraph, GraphNode, NodeRole
from repro.models.configs import ExecutionConfig, JobType
from repro.models.efficiency import EfficiencyModel
from repro.models.profiles import ModelProfile
from repro.models.registry import build_model
from repro.pipeline.bubbles import Bubble, BubbleCycle
from repro.pipeline.instructions import BubbleKind
from repro.pipeline.parallelism import bubble_fraction
from repro.pipeline.schedules import GPipeSchedule, OneFOneBSchedule
from repro.sim.events import EventKind, EventQueue
from repro.utils.units import GIB

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

durations = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)
memories = st.floats(min_value=1e6, max_value=4 * GIB, allow_nan=False)


@st.composite
def graphs(draw, max_nodes: int = 8, max_memory: float = 2 * GIB):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = tuple(
        GraphNode(
            name=f"n{i}",
            role=NodeRole.FORWARD,
            duration=draw(st.floats(min_value=0.001, max_value=0.3)),
            memory_bytes=draw(st.floats(min_value=1e6, max_value=max_memory)),
            flops=draw(st.floats(min_value=1e9, max_value=1e13)),
        )
        for i in range(n)
    )
    return ComputationalGraph(model_name="prop", nodes=nodes)


@st.composite
def bubble_cycles(draw, max_bubbles: int = 4):
    n = draw(st.integers(min_value=1, max_value=max_bubbles))
    ds = [draw(st.floats(min_value=0.2, max_value=2.0)) for _ in range(n)]
    free = draw(st.floats(min_value=2 * GIB, max_value=8 * GIB))
    period = sum(ds) + draw(st.floats(min_value=0.5, max_value=5.0))
    return BubbleCycle.from_durations(ds, free, period)


@st.composite
def per_bubble_memory_cycles(draw, max_bubbles: int = 4):
    """Cycles whose bubbles each expose their own free memory (1-5 GiB)."""
    n = draw(st.integers(min_value=1, max_value=max_bubbles))
    bubbles = tuple(
        Bubble(
            kind=BubbleKind.FWD_BWD,
            stage_id=0,
            index=i,
            duration=draw(st.floats(min_value=0.2, max_value=2.0)),
            free_memory_bytes=draw(st.floats(min_value=1 * GIB, max_value=5 * GIB)),
        )
        for i in range(n)
    )
    period = sum(b.duration for b in bubbles) + draw(st.floats(min_value=0.5, max_value=5.0))
    return BubbleCycle(stage_id=0, bubbles=bubbles, period=period)


def _graph(*nodes):
    """A graph of ``(duration, memory_bytes)`` nodes."""
    return ComputationalGraph(
        model_name="example",
        nodes=tuple(
            GraphNode(
                name=f"n{i}",
                role=NodeRole.FORWARD,
                duration=duration,
                memory_bytes=memory,
                flops=1e9,
            )
            for i, (duration, memory) in enumerate(nodes)
        ),
    )


# ---------------------------------------------------------------------------
# Algorithm 1 invariants
# ---------------------------------------------------------------------------

_PERMISSIVE = PipeFillConfig(
    fill_fraction=1.0,
    context_switch_seconds=0.0,
    min_fill_bubble_seconds=0.0,
    memory_safety_fraction=1.0,
)


class TestPlanProperties:
    @given(graph=graphs(), cycle=bubble_cycles())
    @settings(max_examples=60, deadline=None)
    def test_partitions_never_exceed_bubble_capacity(self, graph, cycle):
        try:
            plan = plan_fill_job(graph, cycle, _PERMISSIVE)
        except PlanError:
            assume(False)
            return
        for partition in plan.partitions:
            bubble = plan.bubbles[partition.bubble_index]
            assert partition.duration <= bubble.duration + 1e-9
            assert partition.memory_bytes <= bubble.free_memory_bytes + 1e-6

    @given(graph=graphs(), cycle=bubble_cycles())
    @settings(max_examples=60, deadline=None)
    def test_every_replicated_node_scheduled_exactly_once(self, graph, cycle):
        try:
            plan = plan_fill_job(graph, cycle, _PERMISSIVE)
        except PlanError:
            assume(False)
            return
        names = [n.name for p in plan.partitions for n in p.nodes]
        assert len(names) == len(set(names))
        assert len(names) == plan.iterations * len(graph)

    @given(graph=graphs(), cycle=bubble_cycles())
    @settings(max_examples=60, deadline=None)
    def test_sequential_order_preserved(self, graph, cycle):
        try:
            plan = plan_fill_job(graph, cycle, _PERMISSIVE)
        except PlanError:
            assume(False)
            return
        order = [n.name for p in plan.partitions for n in p.nodes]
        expected = [
            f"iter{i}/{node.name}" for i in range(plan.iterations) for node in graph.nodes
        ]
        assert order == expected

    @given(graph=graphs(), cycle=bubble_cycles())
    @settings(max_examples=40, deadline=None)
    def test_planned_flops_conserved(self, graph, cycle):
        try:
            plan = plan_fill_job(graph, cycle, _PERMISSIVE)
        except PlanError:
            assume(False)
            return
        assert math.isclose(
            plan.planned_flops, plan.iterations * graph.total_flops, rel_tol=1e-9
        )

    @given(graph=graphs(max_memory=4 * GIB), cycle=per_bubble_memory_cycles())
    @example(  # nodes that fill a bubble's time and memory exactly
        graph=_graph(*[(0.25, 2 * GIB)] * 3),
        cycle=BubbleCycle.from_durations([0.5, 0.75], 2 * GIB, period=2.0),
    )
    @example(  # the longest node fits only the first bubble, the largest only the second
        graph=_graph((0.8, 0.5 * GIB), (0.1, 3 * GIB)),
        cycle=BubbleCycle(
            stage_id=0,
            bubbles=(
                Bubble(BubbleKind.FWD_BWD, 0, 0, duration=1.0, free_memory_bytes=1 * GIB),
                Bubble(BubbleKind.FWD_BWD, 0, 1, duration=0.3, free_memory_bytes=4 * GIB),
            ),
            period=2.0,
        ),
    )
    @example(  # visits that start mid-graph and wrap over several whole iterations
        graph=_graph((0.03, GIB), (0.05, GIB), (0.07, GIB)),
        cycle=BubbleCycle.from_durations([0.5, 0.75], 2 * GIB, period=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_packed_plan_matches_reference_planner(self, graph, cycle):
        """The executor's fast packer builds exactly the reference plan,
        also where a bubble's own free memory ends a visit."""
        try:
            reference = plan_fill_job(graph, cycle, _PERMISSIVE)
        except PlanError as exc:
            with pytest.raises(PlanError) as packed_error:
                pack_fill_job(graph, cycle, _PERMISSIVE)
            assert str(packed_error.value) == str(exc)
            return
        packed = pack_fill_job(graph, cycle, _PERMISSIVE)
        assert packed.iterations == reference.iterations
        assert packed.num_cycles == reference.num_cycles
        assert packed.bubbles == reference.bubbles
        visits = list(zip(packed._visit_counts, packed._visit_durations))
        assert visits == [(len(p.nodes), p.duration) for p in reference.partitions]
        assert packed.planned_work_seconds == reference.planned_work_seconds

    @pytest.mark.parametrize(
        "case, message",
        [
            ("long_node", "does not fit in any bubble"),
            ("large_node", "does not fit in any bubble"),
            ("no_fillable_bubble", "has no fillable bubbles"),
            ("max_cycles", "plan exceeded 1 bubble cycles"),
        ],
    )
    def test_packer_raises_the_reference_plan_error(self, case, message):
        def node(name, duration=0.5, memory=1e6):
            return GraphNode(
                name=name,
                role=NodeRole.FORWARD,
                duration=duration,
                memory_bytes=memory,
                flops=1e9,
            )

        cycle = BubbleCycle.from_durations([0.6, 0.6], 2 * GIB, period=3.0)
        config, max_cycles = _PERMISSIVE, 10_000
        nodes = [node("a"), node("b")]
        if case == "long_node":
            nodes.append(node("long", duration=0.7))
        elif case == "large_node":
            nodes.append(node("large", memory=3 * GIB))
        elif case == "no_fillable_bubble":
            config = PipeFillConfig(min_fill_bubble_seconds=1.0)
        else:
            nodes.append(node("c"))  # three half-second nodes need two cycles
            max_cycles = 1
        graph = ComputationalGraph(model_name="errors", nodes=tuple(nodes))
        with pytest.raises(PlanError, match=message) as reference:
            plan_fill_job(graph, cycle, config, max_cycles=max_cycles)
        with pytest.raises(PlanError) as packed:
            pack_fill_job(graph, cycle, config, max_cycles=max_cycles)
        assert str(packed.value) == str(reference.value)

    @given(
        graph=graphs(),
        cycle=bubble_cycles(),
        cold=st.floats(min_value=0.0, max_value=1.0),
        batch_size=st.integers(min_value=1, max_value=128),
        config=st.sampled_from([_PERMISSIVE, PipeFillConfig()]),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_throughput_never_exceeds_the_search_bound(
        self, graph, cycle, cold, batch_size, config
    ):
        """The executor's best-first search stops at the first configuration
        whose margined throughput bound is below the best plan so far; that
        is exact only if no plan ever beats its own bound."""
        executor = FillJobExecutor(
            cycle, config=config, efficiency=EfficiencyModel(cold_efficiency=cold)
        )
        profile = ModelProfile(
            model=build_model("bert-base"),
            job_type=JobType.BATCH_INFERENCE,
            config=ExecutionConfig(batch_size=batch_size),
            device=V100_16GB,
            graph=graph,
            device_footprint_bytes=0.0,
            host_footprint_bytes=0.0,
        )
        estimate = executor._evaluate_config(
            profile.model, profile.job_type, profile, isolated_samples_per_second=1.0
        )
        assume(estimate is not None)
        bound = executor._throughput_bound(profile)
        assert estimate.effective_samples_per_second <= bound * (1.0 + _BOUND_MARGIN)


# ---------------------------------------------------------------------------
# Schedule / bubble invariants
# ---------------------------------------------------------------------------


class TestScheduleProperties:
    @given(
        p=st.integers(min_value=1, max_value=32),
        m=st.integers(min_value=1, max_value=128),
        t_f=st.floats(min_value=0.001, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bubble_formulas_consistent(self, p, m, t_f):
        """Per-stage bubble decomposition sums to the schedule-independent total."""
        t_b = 2 * t_f
        for schedule in (GPipeSchedule(p, m), OneFOneBSchedule(p, m)):
            for stage in range(p):
                total = schedule.total_bubble_duration(stage, t_f, t_b)
                parts = (
                    schedule.fill_drain_bubble_duration(stage, t_f, t_b)
                    + schedule.fwd_bwd_bubble_duration(stage, t_f, t_b)
                    + schedule.non_contiguous_bubble_duration(stage, t_f, t_b)
                )
                assert math.isclose(total, parts, rel_tol=1e-9, abs_tol=1e-12)
                assert schedule.non_contiguous_bubble_duration(stage, t_f, t_b) >= -1e-12

    @given(p=st.integers(min_value=1, max_value=64), m=st.integers(min_value=1, max_value=512))
    @settings(max_examples=100, deadline=None)
    def test_bubble_fraction_bounds(self, p, m):
        frac = bubble_fraction(p, m)
        assert 0.0 <= frac < 1.0
        # More microbatches can only reduce the fraction.
        assert bubble_fraction(p, m + 1) <= frac

    @given(
        p=st.integers(min_value=2, max_value=8),
        m=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_instruction_streams_complete(self, p, m):
        """Every schedule runs every microbatch exactly once on every stage."""
        from repro.pipeline.instructions import InstructionKind

        for schedule in (GPipeSchedule(p, m), OneFOneBSchedule(p, m)):
            for stage in range(p):
                instrs = schedule.stage_instructions(stage)
                fwd = [i for i in instrs if i.kind is InstructionKind.FORWARD]
                bwd = [i for i in instrs if i.kind is InstructionKind.BACKWARD]
                assert sorted(getattr(i, "microbatch") for i in fwd) == list(range(m))
                assert sorted(getattr(i, "microbatch") for i in bwd) == list(range(m))


class TestEfficiencyProperties:
    @given(
        d1=st.floats(min_value=0.0, max_value=100.0),
        d2=st.floats(min_value=0.0, max_value=100.0),
        cold=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bubble_efficiency_monotone_and_bounded(self, d1, d2, cold):
        model = EfficiencyModel(cold_efficiency=cold)
        e1, e2 = model.bubble_efficiency(d1), model.bubble_efficiency(d2)
        assert model.cold_efficiency - 1e-9 <= e1 <= 1.0
        if d1 <= d2:
            assert e1 <= e2 + 1e-9

    @given(f=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_overhead_model_bounded(self, f):
        overhead = main_job_overhead_fraction(f)
        assert 0.0 <= overhead <= 2.0
        assert overhead <= main_job_overhead_fraction(1.0) + 1e-12


class TestEventQueueProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_events_pop_in_time_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, EventKind.JOB_ARRIVAL)
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(popped)
        assert not queue


class TestBubbleCycleProperties:
    @given(cycle=bubble_cycles(), scale=st.floats(min_value=0.25, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_preserves_busy_time(self, cycle, scale):
        scaled = cycle.scaled(duration_scale=scale)
        busy_before = cycle.period - cycle.total_bubble_time
        busy_after = scaled.period - scaled.total_bubble_time
        assert math.isclose(busy_before, busy_after, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(
            scaled.total_bubble_time, scale * cycle.total_bubble_time, rel_tol=1e-9
        )


# ---------------------------------------------------------------------------
# Horizon-cutoff invariants (one and two tenants, fast path and reference)
# ---------------------------------------------------------------------------


def _horizon_executors(n=2):
    from repro.core.executor import FillJobExecutor

    return {
        i: FillJobExecutor(
            BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0)
        )
        for i in range(n)
    }


def _horizon_jobs():
    from repro.core.scheduler import FillJob
    from repro.models.configs import JobType

    # Staggered arrivals and mixed sizes so random horizons land mid-queue:
    # some jobs running, some queued, some not yet arrived.
    sizes = [2_000.0, 6_000.0, 1_000.0, 4_000.0, 3_000.0, 5_000.0]
    return [
        FillJob(
            job_id=f"h{i}",
            model_name="bert-base",
            job_type=JobType.BATCH_INFERENCE,
            num_samples=size,
            arrival_time=7.0 * i,
        )
        for i, size in enumerate(sizes)
    ]


def _one_tenant_run(jobs, *, reference=False, **kwargs):
    """A one-tenant simulation of ``jobs`` over ``_horizon_executors()``,
    on :class:`~repro.verify.reference.ReferenceSimulator` if ``reference``."""
    from types import SimpleNamespace

    from repro.core.config import PipeFillConfig
    from repro.sim.multi_tenant import MultiTenantSimulator, Tenant
    from repro.verify.reference import ReferenceSimulator

    system = SimpleNamespace(
        executors=_horizon_executors(),
        config=PipeFillConfig(),
        main_job=SimpleNamespace(tflops_per_device=10.0, bubble_ratio=0.5),
    )
    simulator_class = ReferenceSimulator if reference else MultiTenantSimulator
    return simulator_class([Tenant("main", system)]).run(extra_jobs=jobs, **kwargs)


class TestHorizonCutoffProperties:
    """Pro-rated FLOP accounting and event counts stay consistent wherever
    ``horizon_seconds`` cuts the run -- mid-segment, mid-queue, or past the
    makespan -- with one or two tenants, on the fast path and the reference."""

    @given(
        fractions=st.tuples(
            st.floats(min_value=0.02, max_value=1.3),
            st.floats(min_value=0.02, max_value=1.3),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_single_tenant_cutoff(self, fractions):
        jobs = _horizon_jobs()
        full = _one_tenant_run(jobs)
        for fraction in sorted(fractions):
            horizon = fraction * full.horizon_seconds
            cached = _one_tenant_run(jobs, horizon_seconds=horizon)
            brute = _one_tenant_run(jobs, reference=True, horizon_seconds=horizon)
            # The memoised fast path is invisible at any cutoff.
            assert cached.to_dict() == brute.to_dict()
            m = cached.aggregate
            # Event accounting: the per-kind breakdown always sums to the
            # total, and a truncated run never processes more events.
            assert sum(cached.events_by_kind.values()) == cached.events_processed
            assert cached.events_processed <= full.events_processed
            # Pro-rated FLOPs/busy-time never exceed the full run's, and
            # busy time fits inside the observation window.
            assert 0.0 <= m.total_flops <= full.aggregate.total_flops * (1 + 1e-9)
            assert m.busy_device_seconds <= horizon * cached.num_devices + 1e-6
            assert m.jobs_completed <= full.aggregate.jobs_completed

    @given(fractions=st.tuples(
        st.floats(min_value=0.02, max_value=1.3),
        st.floats(min_value=0.02, max_value=1.3),
    ))
    @settings(max_examples=10, deadline=None)
    def test_single_tenant_cutoff_monotone(self, fractions):
        jobs = _horizon_jobs()
        full = _one_tenant_run(jobs)
        lo, hi = sorted(fractions)
        results = [
            _one_tenant_run(jobs, horizon_seconds=f * full.horizon_seconds)
            for f in (lo, hi)
        ]
        # A longer observation window only ever adds progress and events.
        assert (
            results[0].aggregate.total_flops
            <= results[1].aggregate.total_flops * (1 + 1e-9) + 1e-9
        )
        assert results[0].events_processed <= results[1].events_processed
        assert (
            results[0].aggregate.jobs_completed
            <= results[1].aggregate.jobs_completed
        )

    @given(fraction=st.floats(min_value=0.02, max_value=1.3))
    @settings(max_examples=12, deadline=None)
    def test_multi_tenant_cutoff(self, fraction):
        from types import SimpleNamespace

        from repro.core.config import PipeFillConfig
        from repro.sim.multi_tenant import MultiTenantSimulator, Tenant
        from repro.verify.reference import ReferenceSimulator

        def stub():
            return SimpleNamespace(
                executors=_horizon_executors(1),
                config=PipeFillConfig(),
                main_job=SimpleNamespace(tflops_per_device=10.0, bubble_ratio=0.5),
            )

        jobs = _horizon_jobs()

        def tenants():
            return [
                Tenant("a", stub(), jobs=jobs[:3]),
                Tenant("b", stub(), jobs=jobs[3:]),
            ]

        full = MultiTenantSimulator(tenants()).run()
        horizon = fraction * full.horizon_seconds
        cached = MultiTenantSimulator(tenants()).run(horizon_seconds=horizon)
        brute = ReferenceSimulator(tenants()).run(horizon_seconds=horizon)
        assert cached.to_dict() == brute.to_dict()
        agg = cached.aggregate
        assert sum(cached.events_by_kind.values()) == cached.events_processed
        assert cached.events_processed <= full.events_processed
        assert 0.0 <= agg.total_flops <= full.aggregate.total_flops * (1 + 1e-9)
        assert agg.busy_device_seconds <= horizon * cached.num_devices + 1e-6
        # Conservation at the cut: placed + backlog + rejected = submitted.
        placed = sum(
            len(t.scheduler.records) for t in cached.tenants.values()
        )
        assert (
            placed + cached.backlog_remaining + cached.jobs_rejected_global
            == agg.jobs_submitted
        )


# ---------------------------------------------------------------------------
# Fuzzed-scenario invariants (the repro.verify stack)
# ---------------------------------------------------------------------------


campaign_seeds = st.integers(min_value=0, max_value=2**16)
spec_indices = st.integers(min_value=0, max_value=63)


class TestFuzzedScenarioProperties:
    """The invariant engine holds over the whole fuzzable scenario space."""

    def test_invariants_hold_over_200_smoke_scenarios(self):
        """One deterministic sweep: 200 fuzzed smoke scenarios, every event
        checked by every registered invariant, all differential-free."""
        from repro.api import Experiment, InvariantObserver
        from repro.verify import ScenarioFuzzer

        fuzzer = ScenarioFuzzer(seed=0, budget="smoke")
        events = 0
        for raw in fuzzer.specs(200):
            result = Experiment.from_dict(raw).run(
                observers=[InvariantObserver(check_every=1)]
            )
            events += result.raw.events_processed
        assert events > 0

    @given(seed=campaign_seeds, index=spec_indices)
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_at_random_coordinates(self, seed, index):
        """Hypothesis roams the (seed, index) plane the fixed sweep misses."""
        from repro.api import Experiment, InvariantObserver
        from repro.verify import ScenarioFuzzer

        raw = ScenarioFuzzer(seed=seed, budget="smoke").spec_dict(index)
        Experiment.from_dict(raw).run(observers=[InvariantObserver(check_every=1)])

    @given(seed=campaign_seeds, index=spec_indices)
    @settings(max_examples=60, deadline=None)
    def test_generated_specs_always_validate(self, seed, index):
        from repro.sim.scenario import ScenarioSpec
        from repro.verify import ScenarioFuzzer

        raw = ScenarioFuzzer(seed=seed, budget="smoke").spec_dict(index)
        spec = ScenarioSpec.from_dict(raw)
        assert spec.horizon_seconds == raw["horizon_seconds"]
        assert len(spec.tenants) == len(raw["tenants"])

    @given(seed=campaign_seeds, index=spec_indices)
    @settings(max_examples=60, deadline=None)
    def test_generation_is_deterministic(self, seed, index):
        from repro.verify import ScenarioFuzzer

        first = ScenarioFuzzer(seed=seed, budget="smoke").spec_dict(index)
        second = ScenarioFuzzer(seed=seed, budget="smoke").spec_dict(index)
        assert first == second


class TestShrinkerProperties:
    """Shrinker output always revalidates and still fails its predicate."""

    @given(seed=campaign_seeds, index=st.integers(min_value=0, max_value=15))
    @settings(max_examples=40, deadline=None)
    def test_shrunk_spec_revalidates_and_still_fails(self, seed, index):
        from repro.sim.scenario import ScenarioSpec
        from repro.verify import ScenarioFuzzer, shrink_spec, spec_complexity

        raw = ScenarioFuzzer(seed=seed, budget="smoke").spec_dict(index)
        # A cheap structural predicate standing in for a real failure: the
        # shrinker must preserve it while only ever removing structure.
        target_policy = raw["policy"]

        def still_fails(candidate):
            return candidate.get("policy") == target_policy and bool(
                candidate.get("tenants")
            )

        shrunk = shrink_spec(raw, still_fails, max_evaluations=30)
        ScenarioSpec.from_dict(shrunk)  # revalidates
        assert still_fails(shrunk)  # still fails
        assert sum(spec_complexity(shrunk)) <= sum(spec_complexity(raw))

    @given(seed=campaign_seeds)
    @settings(max_examples=30, deadline=None)
    def test_shrinking_a_passing_spec_is_an_error(self, seed):
        from repro.verify import ScenarioFuzzer, shrink_spec

        raw = ScenarioFuzzer(seed=seed, budget="smoke").spec_dict(0)
        with pytest.raises(ValueError):
            shrink_spec(raw, lambda candidate: False)
