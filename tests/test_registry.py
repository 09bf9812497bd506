"""Tests for the unified plugin registries (repro.registry)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import registry
from repro.core.policies import (
    POLICIES,
    PREEMPTION_RULES,
    deadline_preemption_rule,
    get_policy,
    get_preemption_rule,
    sjf_policy,
)
from repro.registry import (
    Registry,
    load_entry_point_plugins,
    policy_name,
    register_policy,
    resolve_policy,
    resolve_preemption_rule,
)
from repro.sim.scenario import ScenarioError, ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parent.parent

MINIMAL = {
    "name": "registry-minimal",
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


class TestRegistryBasics:
    def test_decorator_registration_and_lookup(self):
        reg = Registry("thing")

        @reg.register("My-Thing")
        def thing():
            return 42

        assert reg.get("my-thing") is thing
        assert reg.get("MY-THING") is thing  # case-insensitive
        assert "my-thing" in reg
        assert reg.names() == ["my-thing"]
        assert reg.name_of(thing) == "my-thing"

    def test_duplicate_name_rejected_same_object_idempotent(self):
        reg = Registry("thing")
        obj = object()
        reg.register("x", obj)
        reg.register("x", obj)  # same object: idempotent re-import
        with pytest.raises(ValueError, match="already registered"):
            reg.register("x", object())
        replacement = object()
        reg.register("x", replacement, overwrite=True)
        assert reg.get("x") is replacement

    def test_unknown_name_raises_keyerror_listing_known(self):
        reg = Registry("gizmo")
        reg.register("a", object())
        with pytest.raises(KeyError, match="unknown gizmo 'b'.*'a'"):
            reg.get("b")

    def test_unregister(self):
        reg = Registry("thing")
        reg.register("x", object())
        reg.unregister("x")
        assert "x" not in reg

    def test_view_is_live_mapping(self):
        reg = Registry("thing")
        view = reg.view()
        assert len(view) == 0
        reg.register("a", 1)
        assert view["a"] == 1
        assert set(view) == {"a"}


class TestShippedRegistries:
    def test_policies_view_backed_by_registry(self):
        assert {"fifo", "sjf", "makespan", "edf", "edf+sjf", "slack", "slack+sjf"} <= set(
            POLICIES
        )
        assert POLICIES["sjf"] is sjf_policy
        assert get_policy("SJF") is sjf_policy
        assert registry.policies.get("sjf") is sjf_policy

    def test_preemption_view_backed_by_registry(self):
        assert set(PREEMPTION_RULES) == {"deadline"}
        assert get_preemption_rule("deadline") is deadline_preemption_rule

    def test_arrival_process_registry_has_poisson(self):
        from repro.workloads.generator import ArrivalProcess

        assert registry.arrival_processes.get("poisson") is ArrivalProcess

    def test_fault_models_registry_has_periodic_waves(self):
        assert "periodic-waves" in registry.fault_models.names()


class TestResolveHelpers:
    def test_resolve_policy_accepts_name_and_callable(self):
        assert resolve_policy("sjf") is sjf_policy
        assert resolve_policy(sjf_policy) is sjf_policy
        with pytest.raises(KeyError, match="unknown policy"):
            resolve_policy("not-a-policy")

    def test_resolve_preemption_rule(self):
        assert resolve_preemption_rule(None) is None
        assert resolve_preemption_rule("deadline") is deadline_preemption_rule
        assert resolve_preemption_rule(deadline_preemption_rule) is deadline_preemption_rule

    def test_policy_name_reverse_lookup(self):
        assert policy_name(sjf_policy) == "sjf"
        assert policy_name("SJF") == "sjf"
        assert policy_name(lambda j, s, e: 0.0) is None
        assert policy_name("never-registered") is None

    def test_simulator_accepts_policy_by_name(self):
        # Regression (custom-policy ergonomics): MultiTenantSimulator
        # resolves registry names, so a registered custom policy is
        # addressable exactly like a shipped one.
        from repro.sim.multi_tenant import MultiTenantSimulator
        from repro.sim.scenario import build_tenants

        spec = ScenarioSpec.from_dict(minimal())
        by_name = MultiTenantSimulator(build_tenants(spec), policy="sjf")
        assert by_name.policy is sjf_policy
        with pytest.raises(KeyError, match="unknown policy"):
            MultiTenantSimulator(build_tenants(spec), policy="nope")


class TestEntryPointDiscovery:
    class _FakeEntryPoint:
        def __init__(self, name, target):
            self.name = name
            self._target = target

        def load(self):
            if isinstance(self._target, Exception):
                raise self._target
            return self._target

    def test_plugin_callable_loaded_once_and_registers(self, monkeypatch):
        calls = []

        def plugin():
            calls.append(1)
            register_policy("test-ep-policy", lambda j, s, e: 1.0)

        monkeypatch.setattr(
            registry,
            "_iter_entry_points",
            lambda: [self._FakeEntryPoint("toy", plugin)],
        )
        monkeypatch.setattr(registry, "_plugins_loaded", False)
        try:
            loaded = load_entry_point_plugins()
            assert loaded == ["toy"]
            assert calls == [1]
            assert "test-ep-policy" in registry.policies.names()
            # Cached: a second call is a no-op.
            assert load_entry_point_plugins() == []
            assert calls == [1]
        finally:
            registry.policies.unregister("test-ep-policy")

    def test_lookup_miss_triggers_discovery(self, monkeypatch):
        def plugin():
            register_policy("test-lazy-policy", lambda j, s, e: 2.0)

        monkeypatch.setattr(
            registry,
            "_iter_entry_points",
            lambda: [self._FakeEntryPoint("lazy", plugin)],
        )
        monkeypatch.setattr(registry, "_plugins_loaded", False)
        try:
            # No explicit load: the miss resolves through discovery.
            assert callable(registry.policies.get("test-lazy-policy"))
        finally:
            registry.policies.unregister("test-lazy-policy")

    def test_broken_plugin_warns_but_does_not_break(self, monkeypatch):
        def good():
            register_policy("test-good-ep", lambda j, s, e: 3.0)

        monkeypatch.setattr(
            registry,
            "_iter_entry_points",
            lambda: [
                self._FakeEntryPoint("broken", RuntimeError("boom")),
                self._FakeEntryPoint("good", good),
            ],
        )
        try:
            with pytest.warns(RuntimeWarning, match="broken"):
                loaded = load_entry_point_plugins(force=True)
            assert loaded == ["good"]
            assert "test-good-ep" in registry.policies.names()
        finally:
            registry.policies.unregister("test-good-ep")


class TestRegistryRegressionFixes:
    def test_register_seeds_first_so_shipped_collisions_fail_cleanly(self):
        # In a FRESH process (unseeded registry), registering over a
        # shipped name must fail immediately in user code -- not later,
        # from inside the seed module's own import, poisoning the
        # registry for the rest of the process.
        import os
        import subprocess
        import sys

        code = (
            "from repro.registry import register_policy, policies\n"
            "try:\n"
            "    register_policy('sjf', lambda j, s, e: 0.0)\n"
            "except ValueError as e:\n"
            "    assert 'already registered' in str(e), e\n"
            "else:\n"
            "    raise SystemExit('collision with shipped name not detected')\n"
            "assert callable(policies.get('fifo'))  # registry still healthy\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ok" in proc.stdout

    def test_contains_falls_back_to_plugin_discovery(self, monkeypatch):
        def plugin():
            register_policy("test-contains-ep", lambda j, s, e: 0.0)

        class FakeEP:
            name = "contains"

            @staticmethod
            def load():
                return plugin

        monkeypatch.setattr(registry, "_iter_entry_points", lambda: [FakeEP()])
        monkeypatch.setattr(registry, "_plugins_loaded", False)
        try:
            assert "test-contains-ep" in registry.policies
            assert registry.policy_name("test-contains-ep") == "test-contains-ep"
        finally:
            registry.policies.unregister("test-contains-ep")

    def test_periodic_waves_rotation_is_full_for_any_executor_count(self):
        from types import SimpleNamespace

        from repro.sim.faultmodels import periodic_waves

        for n in (12, 16, 9, 7):
            tenant = SimpleNamespace(name="t", num_executors=n)
            faults = periodic_waves([tenant], 3600.0, waves=n)
            assert {f.executor_index for f in faults} == set(range(n)), n


class TestInstalledPluginDiscovery:
    """Real importlib.metadata discovery: a dist-info on sys.path.

    Mirrors what ``pip install examples/plugins/repro-toy-plugin`` gives
    CI's clean-venv job, without needing pip: a module plus hand-written
    ``entry_points.txt`` metadata, visible to a subprocess interpreter.
    """

    def _install_fake_plugin(self, site: Path) -> None:
        dist_info = site / "fake_repro_plugin-1.0.dist-info"
        dist_info.mkdir(parents=True)
        (site / "fake_repro_plugin.py").write_text(
            "from repro.registry import register_policy\n"
            "@register_policy('fake-plugin-policy')\n"
            "def fake_plugin_policy(job, state, executor_index):\n"
            "    return state.now - job.arrival_time\n"
        )
        (dist_info / "METADATA").write_text(
            "Metadata-Version: 2.1\nName: fake-repro-plugin\nVersion: 1.0\n"
        )
        (dist_info / "entry_points.txt").write_text(
            "[repro.plugins]\nfake = fake_repro_plugin\n"
        )

    def test_plugin_policy_resolves_in_cli_run_and_sweep(self, tmp_path):
        import os
        import subprocess
        import sys

        site = tmp_path / "site"
        self._install_fake_plugin(site)
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src, str(site)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        smoke = str(REPO_ROOT / "scenarios" / "smoke.yaml")
        run = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", smoke,
                "--set", "policy=fake-plugin-policy", "--no-disk-cache",
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "jobs completed" in run.stdout
        sweep = subprocess.run(
            [
                sys.executable, "-m", "repro", "sweep", smoke,
                "--parameter", "policy", "--values", "sjf,fake-plugin-policy",
                "--workers", "2", "--no-disk-cache",
            ],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
        )
        assert sweep.returncode == 0, sweep.stderr
        assert "fake-plugin-policy" in sweep.stdout


class TestScenarioRegistryIntegration:
    def test_custom_policy_usable_from_scenario_and_plan_cache_key(self):
        @register_policy("test-scenario-policy")
        def anti_fifo(job, state, executor_index):
            return job.arrival_time

        try:
            spec = ScenarioSpec.from_dict(minimal(policy="test-scenario-policy"))
            assert spec.policy == "test-scenario-policy"
            # The registered name is what sweep grids and cache keys carry.
            assert policy_name(anti_fifo) == "test-scenario-policy"
        finally:
            registry.policies.unregister("test-scenario-policy")

    def test_unknown_arrival_process_rejected(self):
        raw = minimal()
        raw["tenants"][0]["workload"]["arrival_process"] = "warp-drive"
        with pytest.raises(ScenarioError, match="unknown arrival process"):
            ScenarioSpec.from_dict(raw)

    def test_custom_arrival_process_streams_jobs(self):
        from repro.api import Experiment
        from repro.workloads.generator import ArrivalProcess

        def doubled(**kwargs):
            kwargs["arrival_rate_per_hour"] *= 2
            return ArrivalProcess(**kwargs)

        registry.register_arrival_process("test-doubled", doubled)
        try:
            raw = minimal(name="custom-arrivals")
            raw["tenants"][0]["workload"].update(
                open_loop=True, arrival_process="test-doubled"
            )
            base = minimal(name="custom-arrivals")
            base["tenants"][0]["workload"].update(open_loop=True)
            jobs_doubled = Experiment.from_dict(raw).run().aggregate.jobs_submitted
            jobs_base = Experiment.from_dict(base).run().aggregate.jobs_submitted
            assert jobs_doubled > jobs_base
        finally:
            registry.arrival_processes.unregister("test-doubled")

    def test_fault_model_block_materializes_faults(self):
        spec = ScenarioSpec.from_dict(
            minimal(fault_model={"name": "periodic-waves", "waves": 3})
        )
        assert len(spec.faults) == 3
        assert all(f.tenant == "t0" for f in spec.faults)
        assert all(0 <= f.executor_index < 16 for f in spec.faults)
        fail_times = [f.fail_at for f in spec.faults]
        assert fail_times == sorted(fail_times)
        assert all(0 < t < 600 for t in fail_times)

    def test_fault_model_appends_to_explicit_faults(self):
        raw = minimal(
            faults=[{"tenant": "t0", "executor": 0, "fail_at": 10}],
            fault_model={"name": "periodic-waves", "waves": 2},
        )
        spec = ScenarioSpec.from_dict(raw)
        assert len(spec.faults) == 3

    def test_fault_model_bad_params_rejected(self):
        with pytest.raises(ScenarioError, match="fault_model"):
            ScenarioSpec.from_dict(
                minimal(fault_model={"name": "periodic-waves", "blast": 9})
            )
        with pytest.raises(ScenarioError, match="waves"):
            ScenarioSpec.from_dict(
                minimal(fault_model={"name": "periodic-waves", "waves": 0})
            )

    def test_fault_model_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault model"):
            ScenarioSpec.from_dict(minimal(fault_model={"name": "meteor"}))

    def test_fault_model_runs_end_to_end(self):
        from repro.api import Experiment

        result = Experiment.from_dict(
            minimal(fault_model={"name": "periodic-waves", "waves": 2})
        ).run()
        assert result.events_by_kind.get("executor_failure") == 2
        assert result.events_by_kind.get("executor_recovery", 0) >= 1
