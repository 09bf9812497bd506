"""Tests for repro.core.scheduler (the Fill Job Scheduler).

Jobs reach a tenant scheduler only through the global scheduler, so the
submission and dispatch tests drive a one-tenant
:class:`~repro.core.global_scheduler.GlobalScheduler`, as the simulator does.
"""

from __future__ import annotations

import pytest

from repro.core.executor import FillJobExecutor
from repro.core.global_scheduler import GlobalScheduler
from repro.core.policies import makespan_policy, sjf_policy
from repro.core.scheduler import FillJob, FillJobScheduler, FillJobState
from repro.models.configs import JobType
from repro.pipeline.bubbles import BubbleCycle
from repro.utils.units import GIB


@pytest.fixture()
def executors():
    """Two executors with different bubble capacities (fast and slow device)."""
    fast = FillJobExecutor(BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0))
    slow = FillJobExecutor(BubbleCycle.from_durations([0.4, 0.4], 4.5 * GIB, period=4.0))
    return {0: fast, 1: slow}


@pytest.fixture()
def gs(executors) -> GlobalScheduler:
    return GlobalScheduler({"t": FillJobScheduler(executors, policy=sjf_policy)})


@pytest.fixture()
def scheduler(gs) -> FillJobScheduler:
    return gs.tenants["t"]


def make_job(job_id="job-0", samples=2_000.0, arrival=0.0, model="bert-base",
             job_type=JobType.BATCH_INFERENCE, deadline=None) -> FillJob:
    return FillJob(
        job_id=job_id, model_name=model, job_type=job_type,
        num_samples=samples, arrival_time=arrival, deadline=deadline,
    )


class TestSubmission:
    def test_submit_queues_job(self, gs):
        assert gs.submit(make_job())
        assert gs.job_states()["job-0"] is FillJobState.QUEUED
        assert gs.backlog_jobs()

    def test_duplicate_id_rejected(self, gs):
        gs.submit(make_job("a"))
        with pytest.raises(ValueError):
            gs.submit(make_job("a"))

    def test_infeasible_job_rejected(self, gs):
        assert not gs.submit(
            make_job("too-big", model="xlm-roberta-xl", job_type=JobType.TRAINING)
        )
        assert gs.job_states()["too-big"] is FillJobState.REJECTED
        assert not gs.backlog_jobs()

    def test_queued_jobs_respect_arrival_time(self, gs):
        gs.submit(make_job("later", arrival=100.0))
        assert not gs.backlog_jobs(now=50.0)
        assert gs.backlog_jobs(now=150.0)


class TestPredictions:
    def test_processing_times_faster_on_bigger_bubbles(self, scheduler):
        times = scheduler.processing_times(make_job())
        assert times[0] < times[1]

    def test_expected_completion_for_queued_job(self, gs):
        gs.submit(make_job("a"))
        assignment = gs.dispatch("t", 0, now=0.0)
        assert assignment.completion_time > 0.0
        assert assignment.completion_time != float("inf")

    def test_can_meet_deadline(self, gs):
        gs.submit(make_job("tight", deadline=1.0))
        gs.submit(make_job("loose", deadline=1e9))
        assert not gs.idle_can_meet_deadline("tight", now=0.0)
        assert gs.idle_can_meet_deadline("loose", now=0.0)

    def test_no_deadline_always_met(self, gs):
        gs.submit(make_job("free"))
        assert gs.idle_can_meet_deadline("free", now=0.0)


class TestAssignment:
    def test_dispatch_assigns_best_job(self, gs, scheduler):
        gs.submit(make_job("short", samples=500))
        gs.submit(make_job("long", samples=50_000))
        assert gs.dispatch("t", 0, now=0.0) is not None
        # SJF picks the short job first.
        assert scheduler.executors[0].current_job_id == "short"
        assert scheduler.records["short"].state is FillJobState.RUNNING

    def test_dispatch_on_busy_executor_is_noop(self, gs):
        gs.submit(make_job("a"))
        gs.dispatch("t", 0, now=0.0)
        assert gs.dispatch("t", 0, now=0.0) is None

    def test_assign_busy_executor_raises(self, gs, scheduler):
        gs.submit(make_job("a"))
        gs.submit(make_job("b"))
        gs.dispatch("t", 0, now=0.0)
        with pytest.raises(RuntimeError, match="busy"):
            scheduler.assign(0, gs.jobs["b"], now=0.0)

    def test_complete_frees_executor_and_records_jct(self, gs, scheduler):
        gs.submit(make_job("a", arrival=0.0))
        completion = gs.dispatch("t", 0, now=0.0).completion_time
        finished = gs.complete("t", 0, now=completion)
        assert finished == "a"
        record = scheduler.records["a"]
        assert record.state is FillJobState.COMPLETED
        assert record.jct == pytest.approx(completion)
        assert not scheduler.executors[0].is_busy

    def test_complete_idle_executor_returns_none(self, gs):
        assert gs.complete("t", 0, now=0.0) is None

    def test_flops_recorded_on_assignment(self, gs, scheduler):
        gs.submit(make_job("a"))
        gs.dispatch("t", 0, now=0.0)
        assert scheduler.records["a"].flops_executed > 0

    def test_expected_completion_for_running_job(self, gs, scheduler):
        gs.submit(make_job("a"))
        completion = gs.dispatch("t", 0, now=0.0).completion_time
        assert scheduler.executors[0].busy_until == pytest.approx(completion)
        assert scheduler.executors[0].remaining_time(1.0) == pytest.approx(completion - 1.0)


class TestMetricsAndPolicies:
    def test_average_jct_and_makespan(self, gs, scheduler):
        gs.submit(make_job("a", samples=500, arrival=0.0))
        gs.submit(make_job("b", samples=500, arrival=0.0))
        done_a = gs.dispatch("t", 0, now=0.0).completion_time
        done_b = gs.dispatch("t", 1, now=0.0).completion_time
        gs.complete("t", 0, now=done_a)
        gs.complete("t", 1, now=done_b)
        assert scheduler.makespan() == pytest.approx(max(done_a, done_b))
        assert scheduler.average_jct() == pytest.approx((done_a + done_b) / 2)

    def test_empty_metrics(self, scheduler):
        assert scheduler.average_jct() == 0.0
        assert scheduler.makespan() == 0.0

    def test_makespan_policy_balances_load(self, executors):
        scheduler = FillJobScheduler(executors, policy=makespan_policy)
        gs = GlobalScheduler({"t": scheduler}, policy=makespan_policy)
        gs.submit(make_job("big", samples=20_000))
        gs.submit(make_job("small", samples=500))
        gs.dispatch("t", 0, now=0.0)
        assert scheduler.executors[0].current_job_id in {"big", "small"}

    def test_requires_executors(self):
        with pytest.raises(ValueError):
            FillJobScheduler({})
