"""Tests for the pluggable simulation kernel (repro.sim.kernel).

``TestPreRefactorGolden`` pins the kernel refactor to the exact behaviour
of the pre-kernel event loops: the digests below were captured by running
the two copy-pasted loops (the since-retired single-tenant simulator's and
the pre-kernel ``MultiTenantSimulator.run``) over every shipped scenario.
Keys added *after* the capture (``events_by_kind``) are popped before
hashing, so the comparison is exactly the pre-refactor ``to_dict()``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.sim.events import STALE_COMPLETION_EPSILON, EventKind
from repro.sim.kernel import FaultSpec, SimKernel

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: sha256[:16] of json.dumps(result.to_dict(), sort_keys=True) produced by
#: the PRE-refactor simulators (captured at commit 34be65f) for every
#: scenario shipped at that point.
PRE_REFACTOR_DIGESTS = {
    "smoke": "0719c2dd484bd17c",
    "quickstart": "4a008b3af0aa2d21",
    "multi_tenant": "57a215cb03c1b3da",
    "deadline_rush": "8781f075d5917783",
    "large_cluster": "5f9b1396a9a72de3",
}


class TestPreRefactorGolden:
    @pytest.mark.parametrize("name", sorted(PRE_REFACTOR_DIGESTS))
    def test_to_dict_identical_to_pre_refactor_loop(self, name):
        result = Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml").run().raw
        payload = result.to_dict()
        payload.pop("events_by_kind")  # added after the digests were captured
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert digest == PRE_REFACTOR_DIGESTS[name]


class TestSimKernel:
    def test_dispatches_on_kind(self):
        kernel = SimKernel()
        seen = []
        kernel.on(EventKind.JOB_ARRIVAL, lambda e: seen.append(("a", e.job_id)))
        kernel.on(EventKind.JOB_COMPLETION, lambda e: seen.append(("c", e.job_id)))
        kernel.schedule(2.0, EventKind.JOB_COMPLETION, job_id="x")
        kernel.schedule(1.0, EventKind.JOB_ARRIVAL, job_id="x")
        kernel.run()
        assert seen == [("a", "x"), ("c", "x")]
        assert kernel.events_processed == 2

    def test_handlers_can_schedule_while_running(self):
        kernel = SimKernel()
        kernel.on(
            EventKind.JOB_ARRIVAL,
            lambda e: kernel.schedule(kernel.now + 1.0, EventKind.JOB_COMPLETION),
        )
        done = []
        kernel.on(EventKind.JOB_COMPLETION, lambda e: done.append(kernel.now))
        kernel.schedule(0.5, EventKind.JOB_ARRIVAL)
        kernel.run()
        assert done == [1.5]

    def test_missing_handler_raises(self):
        kernel = SimKernel()
        kernel.schedule(0.0, EventKind.TENANT_JOIN, tenant="t")
        with pytest.raises(RuntimeError, match="tenant_join"):
            kernel.run()

    def test_duplicate_handler_rejected(self):
        kernel = SimKernel()
        kernel.on(EventKind.JOB_ARRIVAL, lambda e: None)
        with pytest.raises(ValueError, match="already registered"):
            kernel.on(EventKind.JOB_ARRIVAL, lambda e: None)

    def test_horizon_stops_before_late_event(self):
        kernel = SimKernel()
        handled = []
        kernel.on(EventKind.JOB_ARRIVAL, lambda e: handled.append(e.time))
        kernel.schedule(1.0, EventKind.JOB_ARRIVAL)
        kernel.schedule(5.0, EventKind.JOB_ARRIVAL)
        horizon = kernel.run(horizon_seconds=3.0)
        # The event beyond the horizon is neither handled nor counted.
        assert handled == [1.0]
        assert kernel.events_processed == 1
        assert kernel.now == 3.0 and horizon == 3.0

    def test_open_ended_horizon_resolves_to_last_completion(self):
        kernel = SimKernel()
        kernel.on(EventKind.JOB_ARRIVAL, lambda e: None)

        def complete(event):
            kernel.note_completion()

        kernel.on(EventKind.JOB_COMPLETION, complete)
        kernel.schedule(1.0, EventKind.JOB_COMPLETION)
        kernel.schedule(2.0, EventKind.JOB_ARRIVAL)  # arrival after last completion
        assert kernel.run() == 2.0  # last event time wins when later

        empty = SimKernel()
        assert empty.run() == 1e-9  # never zero: rate metrics stay defined

    def test_events_by_kind_sums_to_events_processed(self):
        kernel = SimKernel()
        for kind in (EventKind.JOB_ARRIVAL, EventKind.EXECUTOR_FAILURE):
            kernel.on(kind, lambda e: None)
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, EventKind.JOB_ARRIVAL)
        kernel.schedule(2.5, EventKind.EXECUTOR_FAILURE, executor_index=0)
        kernel.run()
        stats = kernel.stats()
        assert stats.events_by_kind == {"executor_failure": 1, "job_arrival": 3}
        assert sum(stats.events_by_kind.values()) == stats.events_processed == 4

    def test_stale_completion_guard(self):
        kernel = SimKernel()
        kernel.on(EventKind.JOB_COMPLETION, lambda e: None)
        event = kernel.schedule(10.0, EventKind.JOB_COMPLETION, job_id="j")
        # Different job on the executor: stale.
        assert kernel.is_stale_completion("other", 10.0, event)
        # Same job, re-dispatched to finish later: stale.
        assert kernel.is_stale_completion("j", 12.0, event)
        # Round-off within the named tolerance: not stale.
        assert not kernel.is_stale_completion(
            "j", 10.0 + STALE_COMPLETION_EPSILON / 2, event
        )
        assert not kernel.is_stale_completion("j", 10.0, event)


class TestFaultSpec:
    def test_recover_must_follow_failure(self):
        with pytest.raises(ValueError, match="recover_at"):
            FaultSpec(executor_index=0, fail_at=10.0, recover_at=10.0)
        with pytest.raises(ValueError, match="recover_at"):
            FaultSpec(executor_index=0, fail_at=10.0, recover_at=float("nan"))

    def test_negative_fail_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(executor_index=0, fail_at=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(executor_index=0, fail_at=float("nan"))

    def test_permanent_failure_allowed(self):
        fault = FaultSpec(executor_index=3, fail_at=5.0, tenant="t")
        assert fault.recover_at is None
