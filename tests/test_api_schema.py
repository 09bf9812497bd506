"""Schema-v1 round-trip and golden-digest tests for the public API.

The digests below were captured from the pre-API codebase (commit
154801b) by hashing the raw simulator result's ``to_dict()`` for every
shipped scenario.  The facade and the rebuilt CLI must both reproduce
them bit-for-bit: the API redesign is a pure re-routing of entry points,
never a simulation change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    Experiment,
    SCHEMA_VERSION,
    SchemaError,
    result_digest,
    validate_bench_payload,
    validate_profile_payload,
    validate_run_payload,
    validate_sweep_payload,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"

#: sha256[:16] of json.dumps(result.to_dict(), sort_keys=True) captured at
#: commit 154801b (pre-repro.api) for every shipped scenario.
GOLDEN_DIGESTS = {
    "deadline_rush": "28f3652f17702c41",
    "elastic_tenants": "f19e1117dfa29619",
    "faulty_cluster": "2f4a8c424d2b2c51",
    "large_cluster": "a9d0b433aef863d8",
    "multi_tenant": "98166af63411c397",
    "quickstart": "cd8bb06e40c1a820",
    "smoke": "d6343cb1485d95a3",
    "xlarge_cluster": "25f3a97f9fccb8f7",
}


def test_every_shipped_scenario_has_a_golden():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")) == sorted(GOLDEN_DIGESTS)


class TestGoldenThroughExperiment:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_run_matches_golden_and_schema(self, name):
        result = Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml").run()
        assert result.digest() == GOLDEN_DIGESTS[name]
        payload = validate_run_payload(result.to_dict())
        assert payload["schema_version"] == SCHEMA_VERSION


class TestGoldenThroughCli:
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_run_json_matches_golden_and_schema(self, name, tmp_path):
        out = tmp_path / "out.json"
        assert main(["run", str(SCENARIO_DIR / f"{name}.yaml"), "--json", str(out)]) == 0
        payload = validate_run_payload(json.loads(out.read_text()))
        core = {
            k: v
            for k, v in payload.items()
            if k not in ("schema_version", "scenario", "environment", "timings_by_kind")
        }
        assert result_digest(core) == GOLDEN_DIGESTS[name]


class TestCliPayloadSchemas:
    def test_sweep_json_validates(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                str(SCENARIO_DIR / "smoke.yaml"),
                "--parameter",
                "policy",
                "--values",
                "sjf,fifo",
                "--workers",
                "1",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        payload = validate_sweep_payload(json.loads(out.read_text()))
        assert [p["value"] for p in payload["sweep"]] == ["sjf", "fifo"]

    def test_profile_json_validates(self, tmp_path):
        out = tmp_path / "profile.json"
        assert main(
            ["profile", str(SCENARIO_DIR / "smoke.yaml"), "--json", str(out)]
        ) == 0
        payload = validate_profile_payload(json.loads(out.read_text()))
        assert payload["scenario"] == "smoke"

    def test_committed_bench_file_validates(self):
        payload = validate_bench_payload(
            json.loads((REPO_ROOT / "BENCH_smoke.json").read_text())
        )
        assert payload["size"] == "smoke"

    def test_run_set_override_changes_result(self, tmp_path, capsys):
        out = tmp_path / "fifo.json"
        assert main(
            [
                "run",
                str(SCENARIO_DIR / "smoke.yaml"),
                "--set",
                "policy=fifo",
                "--json",
                str(out),
            ]
        ) == 0
        capsys.readouterr()
        payload = validate_run_payload(json.loads(out.read_text()))
        assert payload["scenario"] == "smoke"

    def test_bad_set_override_is_one_line_error(self, capsys):
        assert main(
            ["run", str(SCENARIO_DIR / "smoke.yaml"), "--set", "nonsense"]
        ) == 2
        assert "PATH=VALUE" in capsys.readouterr().err


class TestSchemaValidators:
    def _run_payload(self):
        return Experiment.from_yaml(SCENARIO_DIR / "smoke.yaml").run().to_dict()

    def test_missing_key_rejected(self):
        payload = self._run_payload()
        del payload["aggregate"]
        with pytest.raises(SchemaError, match="aggregate"):
            validate_run_payload(payload)

    def test_wrong_version_rejected(self):
        payload = self._run_payload()
        payload["schema_version"] = 99
        with pytest.raises(SchemaError, match="schema_version"):
            validate_run_payload(payload)

    def test_missing_version_rejected(self):
        payload = self._run_payload()
        del payload["schema_version"]
        with pytest.raises(SchemaError, match="schema_version"):
            validate_run_payload(payload)

    def test_incomplete_metrics_rejected(self):
        payload = self._run_payload()
        del payload["aggregate"]["average_jct"]
        with pytest.raises(SchemaError, match="average_jct"):
            validate_run_payload(payload)

    def test_tenant_block_checked(self):
        payload = self._run_payload()
        tenant = next(iter(payload["tenants"].values()))
        del tenant["fill_metrics"]
        with pytest.raises(SchemaError, match="fill_metrics"):
            validate_run_payload(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError, match="mapping"):
            validate_run_payload([1, 2, 3])

    def test_sweep_point_checked(self):
        sweep = Experiment.from_yaml(SCENARIO_DIR / "smoke.yaml").sweep(
            parameter="policy", values=["sjf"], workers=1
        )
        payload = sweep.to_dict()
        validate_sweep_payload(payload)
        del payload["sweep"][0]["events_by_kind"]
        with pytest.raises(SchemaError, match="events_by_kind"):
            validate_sweep_payload(payload)
