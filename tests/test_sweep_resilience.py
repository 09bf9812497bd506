"""Crash/interrupt/resume tests for supervised sweeps (the chaos harness).

Every guarantee the supervised runtime claims is exercised with the
fault it defends against, injected deterministically by repro.exec.chaos:
SIGKILL'd workers retry and the merged result is digest-identical to an
undisturbed run; exhausted retries degrade to structured failures in a
schema-valid payload instead of aborting; a mid-sweep interrupt leaves a
resumable journal whose merge is also digest-identical; hung workers die
by timeout.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    ChaosPlan,
    Experiment,
    ScenarioError,
    SweepInterrupted,
    validate_sweep_payload,
)
from repro.exec import reset_chaos_state

MINIMAL = {
    "name": "resilience-minimal",
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

GRID = dict(parameter="policy", values=["sjf", "fifo"])


def minimal_exp() -> Experiment:
    return Experiment.from_dict(json.loads(json.dumps(MINIMAL)))


@pytest.fixture(scope="module")
def clean_sweep():
    """The undisturbed reference sweep every chaos run must reproduce."""
    return minimal_exp().sweep(workers=1, **GRID)


class TestCrashRetry:
    def test_sigkilled_workers_retry_to_identical_digest(self, clean_sweep):
        chaotic = minimal_exp().sweep(
            workers=2,
            backoff_seconds=0.01,
            chaos=ChaosPlan.build("kill", max_attempt=1),
            **GRID,
        )
        assert chaotic.ok
        assert all(p.attempts == 2 for p in chaotic.points)
        assert chaotic.digest() == clean_sweep.digest()

    def test_exhausted_retries_degrade_to_structured_failures(self):
        result = minimal_exp().sweep(
            workers=2,
            max_retries=1,
            backoff_seconds=0.01,
            chaos=ChaosPlan.build("exception", max_attempt=99),
            **GRID,
        )
        assert not result.ok
        assert len(result.failures) == 2 and len(result.points) == 0
        for failure in result.failures:
            assert failure.kind == "exception"
            assert failure.error_type == "ChaosError"
            assert failure.attempts == 2
        payload = result.to_dict()
        validate_sweep_payload(payload)  # empty sweep is legal WITH failed_points
        assert len(payload["failed_points"]) == 2
        assert payload["attempts"] == {f.key: 2 for f in result.failures}

    def test_failed_points_reattempt_on_resume(self, tmp_path, clean_sweep):
        exp = minimal_exp()
        broken = exp.sweep(
            workers=2,
            max_retries=0,
            chaos=ChaosPlan.build("exception", max_attempt=99),
            journal_dir=tmp_path,
            **GRID,
        )
        assert len(broken.failures) == 2
        # Resume WITHOUT chaos: the journaled failures are re-attempted.
        healed = exp.sweep(
            workers=2, journal_dir=tmp_path, resume="auto", **GRID
        )
        assert healed.ok and healed.resumed_from == broken.sweep_id
        assert healed.digest() == clean_sweep.digest()


class TestInterruptResume:
    def test_interrupt_then_resume_is_digest_identical(self, tmp_path, clean_sweep):
        reset_chaos_state()
        exp = minimal_exp()
        with pytest.raises(SweepInterrupted) as excinfo:
            exp.sweep(
                workers=1,  # inline: the injector's counter is in-process
                journal_dir=tmp_path,
                chaos=ChaosPlan.build("interrupt", {"after_points": 1}),
                **GRID,
            )
        interrupted = excinfo.value
        assert interrupted.completed == 1 and interrupted.total == 2
        assert interrupted.journal_path is not None

        journal_lines = [
            json.loads(line)
            for line in Path(interrupted.journal_path).read_text("utf-8").splitlines()
        ]
        assert [r["record"] for r in journal_lines] == ["sweep", "point"]

        resumed = exp.sweep(
            workers=1, journal_dir=tmp_path, resume=interrupted.sweep_id, **GRID
        )
        assert resumed.ok
        assert resumed.resumed_from == interrupted.sweep_id
        assert resumed.digest() == clean_sweep.digest()
        assert resumed.to_dict()["resumed_from"] == interrupted.sweep_id
        validate_sweep_payload(resumed.to_dict())

        # The resume appended exactly the missing point -- it did not
        # re-run the journaled one.
        journal_lines = [
            json.loads(line)
            for line in Path(interrupted.journal_path).read_text("utf-8").splitlines()
        ]
        assert [r["record"] for r in journal_lines] == ["sweep", "point", "point"]

    def test_resume_auto_resolves_the_grid_digest(self, tmp_path):
        reset_chaos_state()
        exp = minimal_exp()
        with pytest.raises(SweepInterrupted):
            exp.sweep(
                workers=1,
                journal_dir=tmp_path,
                chaos=ChaosPlan.build("interrupt", {"after_points": 1}),
                **GRID,
            )
        resumed = exp.sweep(workers=1, journal_dir=tmp_path, resume="auto", **GRID)
        assert resumed.ok and resumed.resumed_from == resumed.sweep_id

    def test_resume_refuses_a_different_grid(self, tmp_path):
        exp = minimal_exp()
        first = exp.sweep(workers=1, journal_dir=tmp_path, **GRID)
        with pytest.raises(ScenarioError, match="different grid"):
            exp.sweep(
                workers=1,
                journal_dir=tmp_path,
                resume=first.sweep_id,
                parameter="policy",
                values=["sjf", "fifo", "edf"],
            )

    def test_resume_without_journal_dir_errors(self):
        with pytest.raises(ScenarioError, match="journal"):
            minimal_exp().sweep(workers=1, resume="auto", **GRID)

    def test_resume_unknown_id_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="no sweep journal"):
            minimal_exp().sweep(
                workers=1, journal_dir=tmp_path, resume="deadbeef", **GRID
            )

    def test_fresh_run_truncates_stale_journal(self, tmp_path, clean_sweep):
        exp = minimal_exp()
        exp.sweep(workers=1, journal_dir=tmp_path, **GRID)
        # Second run WITHOUT resume: starts a fresh journal, same result.
        again = exp.sweep(workers=1, journal_dir=tmp_path, **GRID)
        assert again.ok and again.resumed_from is None
        assert again.digest() == clean_sweep.digest()
        journal_lines = (
            (tmp_path / again.sweep_id / "journal.jsonl").read_text("utf-8").splitlines()
        )
        assert len(journal_lines) == 3  # header + 2 points, not doubled


class TestTimeout:
    def test_hung_point_is_killed_and_retried(self, clean_sweep):
        result = minimal_exp().sweep(
            workers=2,
            timeout_seconds=8.0,
            max_retries=1,
            backoff_seconds=0.01,
            chaos=ChaosPlan.build("sleep", {"seconds": 120}, max_attempt=1),
            **GRID,
        )
        assert result.ok
        assert all(p.attempts == 2 for p in result.points)
        assert result.digest() == clean_sweep.digest()


class TestSupervisedFuzzCampaign:
    def test_crashed_case_becomes_runtime_failure(self, tmp_path, monkeypatch):
        import repro.verify.campaign as campaign_module
        from repro.verify import run_fuzz_campaign

        real_worker = campaign_module._fuzz_case_worker

        def crashy_worker(payload):
            import os as worker_os

            index = payload[2]
            if index == 1:
                worker_os._exit(77)  # one case hard-crashes the interpreter
            return real_worker(payload)

        monkeypatch.setattr(campaign_module, "_fuzz_case_worker", crashy_worker)
        report = run_fuzz_campaign(
            seed=5,
            runs=3,
            budget="smoke",
            out_dir=tmp_path,
            differential=False,
            workers=2,
            max_retries=0,
        )
        assert not report.ok
        assert [f.stage for f in report.failures] == ["runtime"]
        (failure,) = report.failures
        assert failure.index == 1 and "code 77" in failure.message
        assert failure.reproducer and Path(failure.reproducer).read_text()
        # The other two cases still completed.
        assert report.events_processed > 0
