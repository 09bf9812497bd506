"""Tests for scenario-spec loading/validation and the ``python -m repro`` CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.cli import main
from repro.sim.scenario import (
    ScenarioError,
    ScenarioSpec,
    set_by_path,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SMOKE_SCENARIO = REPO_ROOT / "scenarios" / "smoke.yaml"

MINIMAL = {
    "name": "minimal",
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


class TestScenarioSpec:
    def test_minimal_spec_parses(self):
        spec = ScenarioSpec.from_dict(MINIMAL)
        assert spec.name == "minimal"
        assert spec.policy == "sjf"
        assert len(spec.tenants) == 1
        assert spec.tenants[0].workload.models == ["bert-base"]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="typo_key"):
            ScenarioSpec.from_dict({**MINIMAL, "typo_key": 1})

    def test_unknown_tenant_key_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["tenants"][0]["gpus"] = 128
        with pytest.raises(ScenarioError, match="gpus"):
            ScenarioSpec.from_dict(bad)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ScenarioError, match="unknown policy"):
            ScenarioSpec.from_dict({**MINIMAL, "policy": "magic"})

    def test_unknown_preemption_rule_rejected(self):
        with pytest.raises(ScenarioError, match="unknown preemption"):
            ScenarioSpec.from_dict({**MINIMAL, "preemption": "always"})

    def test_bad_job_type_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["tenants"][0]["workload"]["job_type"] = "speculative"
        with pytest.raises(ScenarioError, match="job_type"):
            ScenarioSpec.from_dict(bad)

    def test_empty_yaml_blocks_fail_cleanly(self, tmp_path):
        # `workload:` with nothing under it parses to None; the loader must
        # treat it as empty rather than crash.
        scenario = tmp_path / "empty_block.yaml"
        scenario.write_text(
            "name: e\n"
            "tenants:\n"
            "  - name: t0\n"
            "    model: gpt-5b\n"
            "    parallel:\n"
            "      tensor_parallel: 1\n"
            "      pipeline_stages: 16\n"
            "      data_parallel: 1\n"
            "      microbatch_size: 2\n"
            "      global_batch_size: 16\n"
            "    workload:\n"
        )
        spec = Experiment.from_yaml(scenario).validate()
        assert spec.tenants[0].workload.arrival_rate_per_hour == 120.0

    def test_non_mapping_block_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["tenants"][0]["workload"] = ["not", "a", "mapping"]
        with pytest.raises(ScenarioError, match="mapping"):
            ScenarioSpec.from_dict(bad)

    def test_duplicate_tenant_names_rejected(self):
        bad = json.loads(json.dumps(MINIMAL))
        bad["tenants"].append(bad["tenants"][0])
        with pytest.raises(ScenarioError, match="unique"):
            ScenarioSpec.from_dict(bad)

    def test_all_shipped_scenarios_validate(self):
        scenario_dir = REPO_ROOT / "scenarios"
        paths = sorted(scenario_dir.glob("*.yaml"))
        assert len(paths) >= 3
        for path in paths:
            spec = Experiment.from_yaml(path).validate()
            assert spec.tenants

    def test_set_by_path(self):
        raw = json.loads(json.dumps(MINIMAL))
        set_by_path(raw, "policy", "edf+sjf")
        set_by_path(raw, "tenants.0.workload.arrival_rate_per_hour", 240)
        assert raw["policy"] == "edf+sjf"
        assert raw["tenants"][0]["workload"]["arrival_rate_per_hour"] == 240

    def test_run_from_spec_returns_result(self):
        spec = ScenarioSpec.from_dict(MINIMAL)
        result = Experiment.from_spec(spec).run().raw
        assert result.horizon_seconds == 600
        assert result.aggregate.jobs_submitted >= 1
        assert "t0" in result.tenants


class TestCli:
    def test_run_smoke_scenario(self, capsys, tmp_path):
        out_json = tmp_path / "result.json"
        exit_code = main(["run", str(SMOKE_SCENARIO), "--json", str(out_json)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Multi-tenant fill-job simulation" in captured.out
        assert "TOTAL" in captured.out
        payload = json.loads(out_json.read_text())
        assert payload["scenario"] == "smoke"
        assert payload["aggregate"]["jobs_completed"] > 0
        assert payload["tenants"]["llm-5b-16"]["fill_tflops_per_device"] > 0

    def test_run_missing_scenario_errors(self, capsys):
        exit_code = main(["run", "scenarios/does-not-exist.yaml"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_run_invalid_spec_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MINIMAL, "mystery": True}))
        exit_code = main(["run", str(bad)])
        assert exit_code == 2
        assert "mystery" in capsys.readouterr().err

    def test_sweep_inline_parameter(self, capsys, tmp_path):
        scenario = tmp_path / "mini.json"
        scenario.write_text(json.dumps(MINIMAL))
        exit_code = main(
            [
                "sweep",
                str(scenario),
                "--parameter",
                "policy",
                "--values",
                "sjf,fifo",
                "--workers",
                "1",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "sjf" in out and "fifo" in out

    def test_sweep_without_grid_errors(self, capsys, tmp_path):
        scenario = tmp_path / "mini.json"
        scenario.write_text(json.dumps(MINIMAL))
        exit_code = main(["sweep", str(scenario)])
        assert exit_code == 2
        assert "sweep" in capsys.readouterr().err


# -- dynamic-event blocks (faults, elastic tenants, open-loop) -----------------------


class TestDynamicBlocks:
    def with_faults(self, faults):
        raw = json.loads(json.dumps(MINIMAL))
        raw["faults"] = faults
        return raw

    def test_faults_parse(self):
        spec = ScenarioSpec.from_dict(
            self.with_faults(
                [{"tenant": "t0", "executor": 3, "fail_at": 60, "recover_at": 120}]
            )
        )
        assert len(spec.faults) == 1
        fault = spec.faults[0]
        assert fault.tenant == "t0"
        assert fault.executor_index == 3
        assert (fault.fail_at, fault.recover_at) == (60.0, 120.0)

    def test_fault_unknown_tenant_rejected(self):
        with pytest.raises(ScenarioError, match="unknown tenant"):
            ScenarioSpec.from_dict(
                self.with_faults([{"tenant": "nope", "executor": 0, "fail_at": 60}])
            )

    def test_fault_executor_out_of_range_rejected(self):
        with pytest.raises(ScenarioError, match="out of range"):
            ScenarioSpec.from_dict(
                self.with_faults([{"tenant": "t0", "executor": 99, "fail_at": 60}])
            )

    def test_fault_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="blast_radius"):
            ScenarioSpec.from_dict(
                self.with_faults(
                    [{"tenant": "t0", "executor": 0, "fail_at": 60, "blast_radius": 2}]
                )
            )

    def test_fault_recover_before_fail_rejected(self):
        with pytest.raises(ScenarioError, match="recover_at"):
            ScenarioSpec.from_dict(
                self.with_faults(
                    [{"tenant": "t0", "executor": 0, "fail_at": 60, "recover_at": 30}]
                )
            )

    def test_nan_fault_times_rejected_at_load(self, tmp_path):
        # NaN fails every comparison, so a ``< 0`` or ``<=`` check lets it
        # through and the failure (or recovery) silently never happens.
        for fault in ("fail_at: .nan, recover_at: 100", "fail_at: 60, recover_at: .nan"):
            path = tmp_path / "nan_fault.yaml"
            path.write_text(
                SMOKE_SCENARIO.read_text()
                + f"faults:\n  - {{tenant: llm-5b-16, executor: 0, {fault}}}\n"
            )
            with pytest.raises(ScenarioError, match="faults\\[0\\]"):
                Experiment.from_yaml(path).validate()

    def test_elastic_tenant_fields_parse(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["tenants"][0].update(join_at=60, leave_at=300, leave_mode="requeue")
        tenant = ScenarioSpec.from_dict(raw).tenants[0]
        assert (tenant.join_at, tenant.leave_at) == (60.0, 300.0)
        assert tenant.leave_mode == "requeue"

    def test_bad_leave_mode_rejected(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["tenants"][0]["leave_mode"] = "explode"
        with pytest.raises(ScenarioError, match="leave_mode"):
            ScenarioSpec.from_dict(raw)

    def test_leave_before_join_rejected(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["tenants"][0].update(join_at=300, leave_at=100)
        with pytest.raises(ScenarioError, match="leave_at"):
            ScenarioSpec.from_dict(raw)

    def test_open_loop_flag_parses_and_runs(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["tenants"][0]["workload"]["open_loop"] = True
        spec = ScenarioSpec.from_dict(raw)
        assert spec.tenants[0].workload.open_loop
        result = Experiment.from_spec(spec).run().raw
        assert result.aggregate.jobs_submitted > 0

    def test_open_loop_must_be_boolean(self):
        raw = json.loads(json.dumps(MINIMAL))
        raw["tenants"][0]["workload"]["open_loop"] = "yes"
        with pytest.raises(ScenarioError, match="open_loop"):
            ScenarioSpec.from_dict(raw)

    def test_yaml_syntax_error_is_scenario_error(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("name: {unclosed\n")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            Experiment.from_yaml(bad).validate()


class TestValidateCommand:
    def test_validate_ok(self, capsys):
        assert main(["validate", str(SMOKE_SCENARIO)]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "smoke" in out

    def test_validate_reports_dynamics(self, capsys):
        path = REPO_ROOT / "scenarios" / "faulty_cluster.yaml"
        assert main(["validate", str(path)]) == 0
        assert "4 fault(s)" in capsys.readouterr().out

    def test_validate_bad_spec_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**MINIMAL, "mystery": True}))
        assert main(["validate", str(bad)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_validate_bad_fault_exits_nonzero(self, capsys, tmp_path):
        raw = json.loads(json.dumps(MINIMAL))
        raw["faults"] = [{"tenant": "t0", "executor": 99, "fail_at": 1}]
        bad = tmp_path / "badfault.json"
        bad.write_text(json.dumps(raw))
        assert main(["validate", str(bad)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_validate_missing_file_exits_nonzero(self, capsys):
        assert main(["validate", "scenarios/does-not-exist.yaml"]) == 2
        assert "error" in capsys.readouterr().err


class TestRemovedKernelBackendKey:
    """``kernel_backend:`` predates the single event queue and is now an
    unknown key like any other."""

    @pytest.fixture
    def legacy_smoke(self, tmp_path):
        path = tmp_path / "legacy_smoke.yaml"
        path.write_text(SMOKE_SCENARIO.read_text() + "kernel_backend: soa\n")
        return path

    def test_rejected_as_unknown_key(self, legacy_smoke):
        with pytest.raises(ScenarioError, match="unknown key.*kernel_backend"):
            Experiment.from_yaml(legacy_smoke).validate()

    def test_validate_command_exits_2(self, capsys, legacy_smoke):
        assert main(["validate", str(legacy_smoke)]) == 2
        assert "kernel_backend" in capsys.readouterr().err
