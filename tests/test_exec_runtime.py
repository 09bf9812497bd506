"""Unit tests for the supervised execution runtime (repro.exec).

The supervisor's whole contract is "one TaskOutcome per task, no matter
what the worker does": raise, crash, hang, or succeed late.  These tests
drive each failure mode directly (os._exit, SIGKILL via the chaos
injector, sleeps against a timeout) plus the journal's crash-tolerance
(torn lines, resume supersession) and the chaos plan's determinism.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exec import (
    ChaosError,
    ChaosPlan,
    JournalState,
    RetryPolicy,
    SupervisedTask,
    Supervisor,
    SweepJournal,
    TaskOutcome,
    content_digest,
    reset_chaos_state,
)


# -- module-level workers (picklable for process mode) -------------------------------


def echo_worker(payload):
    return payload


def double_worker(payload):
    return payload * 2


def failing_worker(payload):
    raise ValueError(f"bad payload {payload!r}")


def exit_worker(payload):
    os._exit(payload)  # no exception, no result: a hard crash


def sleep_worker(payload):
    time.sleep(payload)
    return "woke"


def flaky_worker(payload):
    """Fails until a marker file exists, then succeeds -- retry fodder."""
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt always fails")
    return value


def unpicklable_worker(payload):
    return lambda: payload  # cannot cross the result pipe


class TestRetryPolicy:
    def test_backoff_grows_geometrically_and_caps(self):
        policy = RetryPolicy(
            backoff_seconds=0.5, backoff_factor=2.0, backoff_max_seconds=3.0
        )
        assert policy.delay_before_attempt(1) == 0.0
        assert policy.delay_before_attempt(2) == 0.5
        assert policy.delay_before_attempt(3) == 1.0
        assert policy.delay_before_attempt(4) == 2.0
        assert policy.delay_before_attempt(5) == 3.0  # capped
        assert policy.delay_before_attempt(50) == 3.0


class TestSupervisorInline:
    def test_success_in_order(self):
        outcomes = Supervisor(double_worker, workers=1).run(
            [SupervisedTask("a", 1), SupervisedTask("b", 2)]
        )
        assert [(o.key, o.result, o.ok, o.attempts) for o in outcomes] == [
            ("a", 2, True, 1),
            ("b", 4, True, 1),
        ]

    def test_exception_becomes_structured_failure(self):
        outcomes = Supervisor(
            failing_worker,
            workers=1,
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.0),
        ).run([SupervisedTask("a", "x")])
        (outcome,) = outcomes
        assert not outcome.ok and outcome.attempts == 3
        assert outcome.failure.kind == "exception"
        assert outcome.failure.error_type == "ValueError"
        assert "bad payload" in outcome.failure.message

    def test_retry_recovers_flaky_task(self, tmp_path):
        marker = str(tmp_path / "attempted")
        outcomes = Supervisor(
            flaky_worker,
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
        ).run([SupervisedTask("a", (marker, 42))])
        (outcome,) = outcomes
        assert outcome.ok and outcome.result == 42 and outcome.attempts == 2

    def test_keyboard_interrupt_propagates(self):
        def interrupter(payload):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Supervisor(interrupter, workers=1).run([SupervisedTask("a", 1)])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Supervisor(echo_worker, workers=1).run(
                [SupervisedTask("a", 1), SupervisedTask("a", 2)]
            )

    def test_callbacks_fire(self):
        outcomes_seen, retries_seen = [], []
        Supervisor(
            failing_worker,
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            on_outcome=outcomes_seen.append,
            on_retry=lambda task, attempt, failure, delay: retries_seen.append(
                (task.key, attempt, failure.kind)
            ),
        ).run([SupervisedTask("a", 1)])
        assert [o.key for o in outcomes_seen] == ["a"]
        assert retries_seen == [("a", 1, "exception")]


class TestSupervisorProcesses:
    def test_success_across_processes(self):
        tasks = [SupervisedTask(f"k{i}", i) for i in range(5)]
        outcomes = Supervisor(double_worker, workers=3).run(tasks)
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_hard_exit_is_a_crash_failure(self):
        outcomes = Supervisor(
            exit_worker,
            workers=2,
            retry=RetryPolicy(max_retries=0),
        ).run([SupervisedTask("a", 3)])
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.failure.kind == "crash"
        assert "code 3" in outcome.failure.message

    def test_sigkill_then_retry_succeeds(self):
        outcomes = Supervisor(
            double_worker,
            workers=2,
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.01),
            chaos=ChaosPlan.build("kill", max_attempt=1),
        ).run([SupervisedTask("a", 21), SupervisedTask("b", 22)])
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert [o.result for o in outcomes] == [42, 44]

    def test_sigkill_reported_by_signal_name(self):
        outcomes = Supervisor(
            double_worker,
            workers=2,
            retry=RetryPolicy(max_retries=0),
            chaos=ChaosPlan.build("kill", max_attempt=99),
        ).run([SupervisedTask("a", 1)])
        (outcome,) = outcomes
        assert outcome.failure.kind == "crash"
        assert "SIGKILL" in outcome.failure.message

    def test_timeout_kills_hung_worker(self):
        start = time.monotonic()
        outcomes = Supervisor(
            sleep_worker,
            workers=2,
            retry=RetryPolicy(max_retries=0, timeout_seconds=0.5),
        ).run([SupervisedTask("a", 60.0)])
        elapsed = time.monotonic() - start
        (outcome,) = outcomes
        assert not outcome.ok and outcome.failure.kind == "timeout"
        assert elapsed < 30, "hung worker was not killed by the deadline"

    def test_timeout_survivor_completes(self):
        # One task hangs, one is fine: the batch still returns both.
        outcomes = Supervisor(
            sleep_worker,
            workers=2,
            retry=RetryPolicy(max_retries=0, timeout_seconds=1.0),
        ).run([SupervisedTask("hang", 60.0), SupervisedTask("fast", 0.01)])
        by_key = {o.key: o for o in outcomes}
        assert not by_key["hang"].ok and by_key["hang"].failure.kind == "timeout"
        assert by_key["fast"].ok and by_key["fast"].result == "woke"

    def test_unpicklable_result_is_structured_failure(self):
        outcomes = Supervisor(
            unpicklable_worker,
            workers=2,
            retry=RetryPolicy(max_retries=0),
        ).run([SupervisedTask("a", 1)])
        (outcome,) = outcomes
        assert not outcome.ok
        assert outcome.failure.kind == "exception"
        assert "could not send result" in outcome.failure.message


class TestSweepJournal:
    def test_round_trip(self, tmp_path):
        journal = SweepJournal.for_sweep(tmp_path, "abc123")
        journal.start({"sweep_id": "abc123", "grid_digest": "g", "num_points": 2})
        journal.record_completed(
            "k1", parameter="policy", value="sjf", attempts=1, payload={"x": 1.5}
        )
        journal.record_failed(
            "k2",
            parameter="policy",
            value="fifo",
            attempts=3,
            kind="crash",
            error_type="WorkerCrash",
            message="killed",
        )
        journal.close()
        state = journal.read()
        assert isinstance(state, JournalState)
        assert state.header["sweep_id"] == "abc123"
        assert state.completed["k1"]["payload"] == {"x": 1.5}
        assert state.failed["k2"]["kind"] == "crash"
        assert state.corrupt_lines == 0

    def test_point_supersedes_failure(self, tmp_path):
        journal = SweepJournal.for_sweep(tmp_path, "s")
        journal.start({"grid_digest": "g"})
        journal.record_failed(
            "k",
            parameter="p",
            value=1,
            attempts=3,
            kind="timeout",
            error_type="WorkerTimeout",
            message="slow",
        )
        # The resume run re-attempts the failed point and completes it.
        journal.record_completed(
            "k", parameter="p", value=1, attempts=1, payload={"ok": True}
        )
        journal.close()
        state = journal.read()
        assert "k" in state.completed and "k" not in state.failed

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = SweepJournal.for_sweep(tmp_path, "s")
        journal.start({"grid_digest": "g"})
        journal.record_completed(
            "k1", parameter="p", value=1, attempts=1, payload={"a": 1}
        )
        journal.record_completed(
            "k2", parameter="p", value=2, attempts=1, payload={"a": 2}
        )
        journal.close()
        # Simulate a crash mid-append: chop the file mid final record.
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw[: len(raw) - 17])
        state = journal.read()
        assert "k1" in state.completed
        assert "k2" not in state.completed
        assert state.corrupt_lines == 1

    def test_missing_journal_reads_empty(self, tmp_path):
        state = SweepJournal.for_sweep(tmp_path, "nope").read()
        assert state.header is None and not state.completed and not state.failed

    def test_append_survives_reopen(self, tmp_path):
        journal = SweepJournal.for_sweep(tmp_path, "s")
        journal.start({"grid_digest": "g"})
        journal.record_completed(
            "k1", parameter="p", value=1, attempts=1, payload={}
        )
        journal.close()
        journal.open_append()
        journal.record_completed(
            "k2", parameter="p", value=2, attempts=1, payload={}
        )
        journal.close()
        state = journal.read()
        assert set(state.completed) == {"k1", "k2"}
        assert state.header is not None  # start() was not re-run

    def test_payload_json_round_trips_exactly(self, tmp_path):
        payload = {"f": 0.1 + 0.2, "i": 2**53 - 1, "nested": {"x": 1e-300}}
        journal = SweepJournal.for_sweep(tmp_path, "s")
        journal.start({"grid_digest": "g"})
        journal.record_completed(
            "k", parameter="p", value=1, attempts=1, payload=payload
        )
        journal.close()
        loaded = journal.read().completed["k"]["payload"]
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )
        assert loaded["f"] == payload["f"] and loaded["nested"]["x"] == 1e-300


class TestBatchedJournalFlush:
    """Every record is flushed and fsynced as it is written."""

    def test_default_is_flush_per_record(self, tmp_path):
        journal = SweepJournal.for_sweep(tmp_path, "s")
        journal.start({"grid_digest": "g"})
        journal.record_completed("k1", parameter="p", value=1, attempts=1, payload={})
        assert "k1" in SweepJournal(journal.path).read().completed
        journal.close()


class TestContentDigest:
    def test_stable_and_order_insensitive(self):
        assert content_digest({"a": 1, "b": 2}) == content_digest({"b": 2, "a": 1})
        assert content_digest({"a": 1}) != content_digest({"a": 2})
        assert len(content_digest({"a": 1})) == 16


class TestChaosPlan:
    def test_decision_is_deterministic(self):
        plan = ChaosPlan.build("exception", probability=0.5, max_attempt=9, seed=7)
        decisions = [plan.should_inject(f"key{i}", 1) for i in range(50)]
        assert decisions == [plan.should_inject(f"key{i}", 1) for i in range(50)]
        assert any(decisions) and not all(decisions)  # p=0.5 actually splits

    def test_seed_changes_decisions(self):
        a = ChaosPlan.build("exception", probability=0.5, max_attempt=9, seed=1)
        b = ChaosPlan.build("exception", probability=0.5, max_attempt=9, seed=2)
        keys = [f"key{i}" for i in range(64)]
        assert [a.should_inject(k, 1) for k in keys] != [
            b.should_inject(k, 1) for k in keys
        ]

    def test_max_attempt_gates_retries(self):
        plan = ChaosPlan.build("exception", max_attempt=2)
        assert plan.should_inject("k", 1) and plan.should_inject("k", 2)
        assert not plan.should_inject("k", 3)

    def test_exception_injector_raises(self):
        plan = ChaosPlan.build("exception", {"message": "boom"})
        with pytest.raises(ChaosError, match="boom"):
            plan.maybe_inject("k", 1)

    def test_interrupt_injector_counts_points(self):
        reset_chaos_state()
        plan = ChaosPlan.build("interrupt", {"after_points": 2}, max_attempt=99)
        plan.maybe_inject("k1", 1)
        plan.maybe_inject("k2", 1)
        with pytest.raises(KeyboardInterrupt):
            plan.maybe_inject("k3", 1)
        reset_chaos_state()

    def test_unknown_injector_is_a_keyerror(self):
        with pytest.raises(KeyError, match="chaos injector"):
            ChaosPlan.build("definitely-not-registered").maybe_inject("k", 1)

    def test_plans_are_picklable(self):
        import pickle

        plan = ChaosPlan.build("kill", {"sig": "SIGKILL"}, probability=0.3)
        assert pickle.loads(pickle.dumps(plan)) == plan
