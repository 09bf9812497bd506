"""Tests for the public library API (repro.api.Experiment + observers)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import registry
from repro.api import (
    EventStream,
    Experiment,
    RunObserver,
    RunResult,
    ScenarioError,
    SweepResult,
)
from repro.core.policies import sjf_policy
from repro.sim.events import EventKind

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE = REPO_ROOT / "scenarios" / "smoke.yaml"

MINIMAL = {
    "name": "api-minimal",
    "horizon_seconds": 600,
    "tenants": [
        {
            "name": "t0",
            "model": "gpt-5b",
            "parallel": {
                "tensor_parallel": 1,
                "pipeline_stages": 16,
                "data_parallel": 1,
                "microbatch_size": 2,
                "global_batch_size": 16,
            },
            "workload": {"arrival_rate_per_hour": 60, "models": ["bert-base"]},
        }
    ],
}


def minimal(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return raw


def module_level_policy(job, state, executor_index):
    """Module-level (hence picklable) custom policy for sweep tests."""
    return 0.0


class TestConstruction:
    def test_from_yaml(self):
        exp = Experiment.from_yaml(SMOKE)
        assert exp.name == "smoke"
        assert exp.validate().tenants

    def test_from_dict_deep_copies(self):
        raw = minimal()
        exp = Experiment.from_dict(raw)
        raw["policy"] = "fifo"  # caller mutation must not leak in
        assert exp.validate().policy == "sjf"

    def test_from_spec_runs_identically(self):
        spec = Experiment.from_dict(minimal()).validate()
        a = Experiment.from_spec(spec).run()
        b = Experiment.from_dict(minimal()).run()
        assert a.digest() == b.digest()

    def test_constructor_requires_input(self):
        with pytest.raises(ValueError, match="raw scenario dict or a ScenarioSpec"):
            Experiment()

    def test_validate_raises_scenario_error(self):
        with pytest.raises(ScenarioError, match="mystery"):
            Experiment.from_dict(minimal(mystery=1)).validate()

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            Experiment.from_yaml("scenarios/does-not-exist.yaml")


class TestBuilders:
    def test_with_override_returns_new_experiment(self):
        base = Experiment.from_dict(minimal())
        forked = base.with_override("policy", "fifo")
        assert base.validate().policy == "sjf"
        assert forked.validate().policy == "fifo"

    def test_with_override_nested_path(self):
        forked = Experiment.from_dict(minimal()).with_override(
            "tenants.0.workload.arrival_rate_per_hour", 240
        )
        assert forked.validate().tenants[0].workload.arrival_rate_per_hour == 240

    def test_with_policy_by_name(self):
        assert (
            Experiment.from_dict(minimal()).with_policy("edf+sjf").validate().policy
            == "edf+sjf"
        )

    def test_with_policy_unknown_name_fails_fast(self):
        with pytest.raises(KeyError, match="unknown policy"):
            Experiment.from_dict(minimal()).with_policy("not-real")

    def test_with_policy_callable_registers_and_names(self):
        def my_experiment_policy(job, state, executor_index):
            return -job.arrival_time

        try:
            exp = Experiment.from_dict(minimal()).with_policy(my_experiment_policy)
            assert exp.validate().policy == "my_experiment_policy"
            assert registry.policies.get("my_experiment_policy") is my_experiment_policy
            assert exp.run().aggregate.jobs_completed >= 0
        finally:
            registry.policies.unregister("my_experiment_policy")

    def test_with_policy_overwrite_rebinds_redefined_callable(self):
        # Notebook workflow: redefining the function (new object, same
        # name) must be re-registrable via overwrite=True.
        def first(job, state, executor_index):
            return 0.0

        def second(job, state, executor_index):
            return 1.0

        second.__name__ = first.__name__ = "test-rebind-policy"
        try:
            Experiment.from_dict(minimal()).with_policy(first)
            with pytest.raises(ValueError, match="already registered"):
                Experiment.from_dict(minimal()).with_policy(second)
            exp = Experiment.from_dict(minimal()).with_policy(second, overwrite=True)
            assert registry.policies.get("test-rebind-policy") is second
            assert exp.validate().policy == "test-rebind-policy"
        finally:
            registry.policies.unregister("test-rebind-policy")

    def test_with_policy_callable_explicit_name(self):
        try:
            exp = Experiment.from_dict(minimal()).with_policy(
                lambda j, s, e: 0.0, name="test-null-policy"
            )
            assert exp.validate().policy == "test-null-policy"
        finally:
            registry.policies.unregister("test-null-policy")

    def test_with_preemption_and_clear(self):
        exp = Experiment.from_dict(minimal()).with_preemption("deadline")
        assert exp.validate().preemption == "deadline"
        cleared = exp.with_preemption(None)
        assert cleared.validate().preemption is None

    def test_with_seed_and_horizon(self):
        exp = Experiment.from_dict(minimal()).with_seed(7).with_horizon(1200)
        spec = exp.validate()
        assert (spec.seed, spec.horizon_seconds) == (7, 1200.0)

    def test_builders_work_on_spec_built_experiments(self):
        spec = Experiment.from_dict(minimal()).validate()
        forked = Experiment.from_spec(spec).with_policy("fifo")
        assert forked.validate().policy == "fifo"
        assert spec.policy == "sjf"


class TestRun:
    def test_run_returns_typed_result(self):
        result = Experiment.from_yaml(SMOKE).run()
        assert isinstance(result, RunResult)
        assert result.scenario == "smoke"
        assert result.aggregate.jobs_completed > 0
        assert "llm-5b-16" in result.tenants
        assert result.to_dict()["schema_version"] == 1
        assert len(result.digest()) == 16

    def test_reference_experiment_is_bit_identical(self):
        from repro.verify.reference import ReferenceExperiment

        reference = ReferenceExperiment.from_yaml(SMOKE)
        assert isinstance(reference.with_seed(1), ReferenceExperiment)
        assert Experiment.from_yaml(SMOKE).run().digest() == reference.run().digest()


class TestObservers:
    def _scenario_with_dynamics(self):
        raw = minimal(name="observer-dynamics")
        raw["tenants"].append(
            {
                "name": "t1",
                "model": "gpt-5b",
                "parallel": dict(raw["tenants"][0]["parallel"]),
                "workload": {"arrival_rate_per_hour": 60, "models": ["bert-base"]},
                "join_at": 30,
                "leave_at": 450,
                "leave_mode": "requeue",
            }
        )
        raw["faults"] = [{"tenant": "t0", "executor": 1, "fail_at": 60, "recover_at": 300}]
        return raw

    def test_observer_sees_every_event_and_ordering(self):
        log = []

        class Recorder(RunObserver):
            progress_every = 10

            def on_event(self, event, now):
                log.append(("event", event.kind.value, now))

            def on_job_completed(self, job_id, tenant, executor_index, now):
                log.append(("completed", job_id, now))

            def on_executor_lost(self, tenant, executor_index, now):
                log.append(("lost", (tenant, executor_index), now))

            def on_tenant_change(self, tenant, change, now):
                log.append(("tenant", (tenant, change), now))

            def on_progress(self, events_processed, now):
                log.append(("progress", events_processed, now))

        result = Experiment.from_dict(self._scenario_with_dynamics()).run(
            observers=[Recorder()]
        )
        events = [e for e in log if e[0] == "event"]
        assert len(events) == result.events_processed
        # Semantic callbacks fired for the dynamics.
        lost = [e for e in log if e[0] == "lost"]
        assert lost and lost[0][1] == ("t0", 1) and lost[0][2] == 60.0
        changes = [e[1] for e in log if e[0] == "tenant"]
        assert ("t1", "join") in changes and ("t1", "leave") in changes
        completions = [e for e in log if e[0] == "completed"]
        assert len(completions) == result.aggregate.jobs_completed
        # Ordering: each semantic callback is immediately preceded (in the
        # log) by the on_event of its own kernel event.
        for i, entry in enumerate(log):
            if entry[0] == "completed":
                prior_events = [e for e in log[:i] if e[0] == "event"]
                assert prior_events[-1][1] == "job_completion"
            if entry[0] == "lost":
                prior_events = [e for e in log[:i] if e[0] == "event"]
                assert prior_events[-1][1] == "executor_failure"
        # Progress ticks: every 10th event, before that event's handler.
        ticks = [e[1] for e in log if e[0] == "progress"]
        assert ticks == list(range(10, result.events_processed + 1, 10))

    def test_observed_run_is_bit_identical(self):
        raw = self._scenario_with_dynamics()
        plain = Experiment.from_dict(raw).run()
        observed = Experiment.from_dict(raw).run(observers=[RunObserver()])
        assert plain.digest() == observed.digest()

    def test_progress_cadence_is_min_across_observers(self):
        ticks_a, ticks_b = [], []

        class A(RunObserver):
            progress_every = 4

            def on_progress(self, n, now):
                ticks_a.append(n)

        class B(RunObserver):
            progress_every = 100

            def on_progress(self, n, now):
                ticks_b.append(n)

        Experiment.from_yaml(SMOKE).run(observers=[A(), B()])
        assert ticks_a == ticks_b  # fanout drives both at the joint cadence
        assert ticks_a and ticks_a[0] == 4


class TestIterEvents:
    def test_stream_yields_all_events_and_result(self):
        exp = Experiment.from_yaml(SMOKE)
        expected = exp.run()
        stream = exp.iter_events()
        assert isinstance(stream, EventStream)
        kinds = [event.kind for event in stream]
        assert len(kinds) == expected.events_processed
        assert EventKind.JOB_ARRIVAL in kinds
        assert stream.result is not None
        assert stream.result.digest() == expected.digest()

    def test_finish_drains_remaining(self):
        stream = Experiment.from_yaml(SMOKE).iter_events()
        next(stream)  # consume one event, then hand control back
        result = stream.finish()
        assert result.digest() == Experiment.from_yaml(SMOKE).run().digest()

    def test_close_abandons_stream(self):
        stream = Experiment.from_yaml(SMOKE).iter_events()
        next(stream)
        stream.close()
        assert stream.result is None

    def test_stream_combines_with_observers(self):
        seen = []

        class Counter(RunObserver):
            def on_event(self, event, now):
                seen.append(event)

        stream = Experiment.from_yaml(SMOKE).iter_events(observers=[Counter()])
        total = sum(1 for _ in stream)
        assert len(seen) == total


class TestSweep:
    def test_sweep_inline_grid(self):
        result = Experiment.from_dict(minimal()).sweep(
            parameter="policy", values=["sjf", "fifo"], workers=1
        )
        assert isinstance(result, SweepResult)
        assert [p.value for p in result.points] == ["sjf", "fifo"]
        assert all(p.payload["aggregate"]["jobs_submitted"] >= 1 for p in result)

    def test_sweep_uses_scenario_block(self):
        raw = minimal(sweep={"parameter": "policy", "values": ["sjf", "fifo"]})
        result = Experiment.from_dict(raw).sweep(workers=1)
        assert result.parameter == "policy"
        assert len(result) == 2

    def test_sweep_matches_individual_runs(self):
        from repro.api import result_digest

        swept = Experiment.from_dict(minimal()).sweep(
            parameter="policy", values=["fifo"], workers=1
        )
        direct = Experiment.from_dict(minimal(policy="fifo")).run()
        assert swept.points[0].digest() == result_digest(direct.raw.to_dict())

    def test_sweep_without_grid_errors(self):
        with pytest.raises(ScenarioError, match="sweep"):
            Experiment.from_dict(minimal()).sweep()

    def test_sweep_empty_values_errors(self):
        with pytest.raises(ScenarioError, match="no sweep values"):
            Experiment.from_dict(minimal()).sweep(parameter="policy", values=[])

    def test_sweep_fails_fast_on_bad_path(self):
        # A dead path must raise before any worker fan-out (workers=4
        # would otherwise spawn a pool first and explode inside it).
        with pytest.raises(ScenarioError, match="does not resolve"):
            Experiment.from_dict(minimal()).sweep(
                parameter="tenants.7.policy", values=["sjf"], workers=4
            )

    def test_sweep_fails_fast_on_typo_key(self):
        with pytest.raises(ScenarioError, match="polciy"):
            Experiment.from_dict(minimal()).sweep(
                parameter="polciy", values=["sjf"], workers=4
            )

    def test_sweep_fails_fast_on_bad_value(self):
        with pytest.raises(ScenarioError, match="unknown policy"):
            Experiment.from_dict(minimal()).sweep(
                parameter="policy", values=["sjf", "wat"], workers=4
            )

    def test_sweep_ships_registered_policies_to_workers(self):
        # Spawn-safety: the worker payloads must carry the registrations
        # the grid references, so workers that re-import repro from
        # scratch (spawn/forkserver) can still resolve custom names.
        from repro.api.experiment import _shippable_registrations
        from repro.core.policies import sjf_policy

        try:
            registry.register_policy("test-shippable", module_level_policy)
            registry.register_policy("test-lambda", lambda j, s, e: 0.0)
            spec = Experiment.from_dict(minimal()).validate()
            shipped = _shippable_registrations(
                spec, "policy", ["sjf", "test-shippable", "test-lambda"]
            )
            by_name = {name: obj for _, name, obj in shipped}
            assert by_name["sjf"] is sjf_policy
            assert by_name["test-shippable"] is module_level_policy
            assert "test-lambda" not in by_name  # unpicklable: skipped, not fatal
        finally:
            registry.policies.unregister("test-shippable")
            registry.policies.unregister("test-lambda")

    def test_sweep_over_registered_custom_policy(self):
        # Regression (custom-policy ergonomics): a registered callable is
        # sweepable by name like any shipped policy.
        try:
            registry.register_policy("test-sweep-custom", lambda j, s, e: j.arrival_time)
            result = Experiment.from_dict(minimal()).sweep(
                parameter="policy", values=["sjf", "test-sweep-custom"], workers=1
            )
            assert len(result) == 2
        finally:
            registry.policies.unregister("test-sweep-custom")


class TestProfile:
    def test_profile_wraps_run(self):
        profile = Experiment.from_yaml(SMOKE).profile()
        assert profile.scenario == "smoke"
        assert profile.events_processed == profile.run.events_processed
        assert profile.wall_seconds > 0
        assert profile.handler_seconds >= 0
        payload = profile.to_dict()
        assert payload["schema_version"] == 1
        assert payload["plan_cache"]["enabled"] in (True, False)
