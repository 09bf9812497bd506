"""Tests for dynamic cluster events: executor failures/recoveries, elastic
tenants (join/leave with drain or requeue) and open-loop arrival streams.

Driven through small synthetic bubble cycles (the ``test_multi_tenant``
idiom) so every case is fast and deterministic; the two shipped dynamic
scenarios are exercised end-to-end at the bottom.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import Experiment
from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.core.global_scheduler import GlobalScheduler
from repro.core.scheduler import FillJob, FillJobScheduler, FillJobState
from repro.models.configs import JobType
from repro.pipeline.bubbles import BubbleCycle
from repro.sim.kernel import FaultSpec
from repro.sim.multi_tenant import MultiTenantSimulator, Tenant
from repro.utils.units import GIB
from repro.workloads.generator import ArrivalProcess

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def make_executors(n=1, durations=(1.5, 1.5), period=4.0):
    return {
        i: FillJobExecutor(
            BubbleCycle.from_durations(list(durations), 4.5 * GIB, period=period)
        )
        for i in range(n)
    }


def make_job(job_id, samples=2_000.0, arrival=0.0, deadline=None, tenant=None):
    return FillJob(
        job_id=job_id,
        model_name="bert-base",
        job_type=JobType.BATCH_INFERENCE,
        num_samples=samples,
        arrival_time=arrival,
        deadline=deadline,
        tenant=tenant,
    )


def make_stub_system(n_executors=1, durations=(1.5, 1.5), period=4.0):
    """A minimal stand-in for PipeFillSystem: executors + main-job numbers."""
    return SimpleNamespace(
        executors=make_executors(n_executors, durations, period),
        config=PipeFillConfig(),
        main_job=SimpleNamespace(tflops_per_device=10.0, bubble_ratio=0.5),
    )


#: The tenant of the one-tenant runs below (the paper's single main job).
SOLO = "solo"


def solo_simulator(n_executors=1, **tenant_kwargs):
    """A one-tenant simulator over ``make_executors(n_executors)``."""
    return MultiTenantSimulator(
        [Tenant(SOLO, make_stub_system(n_executors), **tenant_kwargs)]
    )


def solo_fault(executor_index, fail_at, recover_at=None):
    return FaultSpec(
        executor_index=executor_index,
        fail_at=fail_at,
        recover_at=recover_at,
        tenant=SOLO,
    )


def shipped_result(name):
    """The raw result of one shipped scenario."""
    return Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml").run().raw


def job_duration(samples=2_000.0) -> float:
    """Deterministic processing time of ``make_job`` on ``make_executors``."""
    sched = FillJobScheduler(make_executors())
    return sched.processing_times(make_job("probe", samples=samples))[0]


# -- scheduler-level hooks -----------------------------------------------------------


def one_tenant():
    """A one-tenant global scheduler over ``make_executors()``, and its tenant."""
    scheduler = FillJobScheduler(make_executors())
    return GlobalScheduler({"t": scheduler}), scheduler


class TestOnExecutorLost:
    def test_running_job_requeued_with_banked_progress(self):
        gs, scheduler = one_tenant()
        gs.submit(make_job("victim"))
        completion = gs.dispatch("t", 0, now=0.0).completion_time
        lost = gs.fail_executor("t", 0, now=completion / 2.0)
        assert lost == "victim"
        record = scheduler.records["victim"]
        assert record.state is FillJobState.QUEUED
        assert record.num_preemptions == 1
        assert record.samples_remaining == pytest.approx(1_000.0)
        assert record.flops_banked > 0
        assert scheduler.executors[0].is_down
        assert scheduler.idle_executor_indices() == []

    def test_idle_executor_goes_down_without_requeue(self):
        gs, scheduler = one_tenant()
        assert gs.fail_executor("t", 0, now=1.0) is None
        assert scheduler.executors[0].is_down
        # Losing it twice is a no-op.
        assert gs.fail_executor("t", 0, now=2.0) is None

    def test_no_dispatch_to_down_executor(self):
        gs, scheduler = one_tenant()
        gs.fail_executor("t", 0, now=0.0)
        gs.submit(make_job("j"))
        assert gs.dispatch("t", 0, now=0.0) is None
        with pytest.raises(RuntimeError, match="down"):
            scheduler.assign(0, gs.jobs["j"], now=0.0)

    def test_recovery_restores_dispatch(self):
        gs, scheduler = one_tenant()
        gs.fail_executor("t", 0, now=0.0)
        gs.submit(make_job("j"))
        gs.recover_executor("t", 0)
        assert scheduler.idle_executor_indices() == [0]
        assert gs.dispatch("t", 0, now=1.0) is not None


# -- one-tenant runs ------------------------------------------------------------------


class TestSingleTenantFaults:
    def test_failure_recovery_resumes_with_banked_progress(self):
        full = job_duration()
        simulator = solo_simulator()
        fail_at, recover_at = full / 2.0, full / 2.0 + 30.0
        result = simulator.run(
            extra_jobs=[make_job("j")],
            faults=[solo_fault(0, fail_at, recover_at)],
        )
        record = result.tenants[SOLO].scheduler.records["j"]
        assert record.state is FillJobState.COMPLETED
        assert record.num_preemptions == 1
        # Half ran before the failure; the remainder resumed at recovery.
        assert record.completion_time == pytest.approx(recover_at + full / 2.0, rel=1e-6)
        assert result.events_by_kind["executor_failure"] == 1
        assert result.events_by_kind["executor_recovery"] == 1

    def test_flops_conserved_across_failure(self):
        full = job_duration()
        plain = solo_simulator().run(extra_jobs=[make_job("j")])
        faulty = solo_simulator().run(
            extra_jobs=[make_job("j")],
            faults=[solo_fault(0, full / 3.0, full / 3.0 + 10.0)],
        )
        assert faulty.aggregate.jobs_completed == 1
        assert faulty.aggregate.total_flops == pytest.approx(
            plain.aggregate.total_flops, rel=1e-6
        )

    def test_permanent_failure_strands_job_queued_not_lost(self):
        full = job_duration()
        result = solo_simulator().run(
            extra_jobs=[make_job("j")],
            faults=[solo_fault(0, full / 2.0)],
            horizon_seconds=10.0 * full,
        )
        record = result.tenants[SOLO].scheduler.records["j"]
        assert record.state is FillJobState.QUEUED  # conserved, not silently lost
        assert record.flops_banked > 0  # partial progress still accounted
        assert result.aggregate.jobs_completed == 0

    def test_failover_to_second_executor(self):
        # With a second healthy device, the requeued job resumes there
        # immediately instead of waiting for recovery.
        full = job_duration()
        blocker = make_job("blocker", samples=2_000.0)
        victim = make_job("victim", samples=2_000.0)
        result = solo_simulator(2).run(
            extra_jobs=[blocker, victim],
            faults=[solo_fault(1, full / 2.0)],
        )
        records = result.tenants[SOLO].scheduler.records
        assert records["victim"].state is FillJobState.COMPLETED
        assert records["victim"].num_preemptions == 1
        assert records["blocker"].state is FillJobState.COMPLETED


# -- multi-tenant elasticity ---------------------------------------------------------


class TestElasticTenants:
    def test_join_at_delays_first_dispatch(self):
        jobs = [make_job(f"j{i}", arrival=float(i)) for i in range(6)]
        result = MultiTenantSimulator(
            [
                Tenant("always", make_stub_system(), jobs=jobs),
                Tenant("late", make_stub_system(), join_at=20.0),
            ]
        ).run()
        late_records = result.tenants["late"].scheduler.records
        started = [r.start_time for r in late_records.values() if r.start_time is not None]
        completed = [
            r.completion_time for r in late_records.values() if r.completion_time
        ]
        assert result.events_by_kind["tenant_join"] == 1
        # Work reached the late tenant, but none of it before it joined.
        assert completed, "the late tenant never took any work"
        assert all(t >= 20.0 for t in started)
        assert all(t >= 20.0 for t in completed)

    def test_leave_drain_finishes_running_but_takes_no_new_work(self):
        full = job_duration()
        jobs = [make_job(f"j{i}", samples=2_000.0, arrival=0.0) for i in range(4)]
        leave_at = full / 2.0  # mid-first-job
        result = MultiTenantSimulator(
            [
                Tenant("stays", make_stub_system(), jobs=jobs),
                Tenant("leaves", make_stub_system(), leave_at=leave_at, leave_mode="drain"),
            ]
        ).run()
        leaver = result.tenants["leaves"].scheduler
        finished = [
            r for r in leaver.records.values() if r.state is FillJobState.COMPLETED
        ]
        # The job running at leave_at drains to completion (after leave_at)...
        assert len(finished) == 1
        assert finished[0].completion_time > leave_at
        assert finished[0].num_preemptions == 0
        # ...but nothing new starts on the leaver afterwards.
        assert all(
            r.start_time is None or r.start_time < leave_at
            for r in leaver.records.values()
        )
        # Everything still completes somewhere: conservation.
        assert result.aggregate.jobs_completed == 4

    def test_leave_requeue_interrupts_and_resumes_elsewhere(self):
        full = job_duration()
        jobs = [make_job(f"j{i}", samples=2_000.0, arrival=0.0) for i in range(4)]
        leave_at = full / 2.0
        result = MultiTenantSimulator(
            [
                Tenant("stays", make_stub_system(), jobs=jobs),
                Tenant(
                    "leaves", make_stub_system(), leave_at=leave_at, leave_mode="requeue"
                ),
            ]
        ).run()
        leaver = result.tenants["leaves"].scheduler
        stayer = result.tenants["stays"].scheduler
        # The leaver's running job was interrupted, not finished there.
        assert not any(
            r.state is FillJobState.COMPLETED for r in leaver.records.values()
        )
        # Every job still completes -- the interrupted one resumed on the
        # stayer with its banked progress carried over.
        assert result.aggregate.jobs_completed == 4
        migrated = [r for r in stayer.records.values() if r.num_preemptions >= 1]
        assert len(migrated) == 1
        assert migrated[0].state is FillJobState.COMPLETED

    def test_requeue_conserves_flops(self):
        # Same workload; a tenant leaving with requeue must not lose the
        # FLOPs its interrupted job banked (they travel with the job).
        full = job_duration()
        jobs = [make_job(f"j{i}", samples=2_000.0, arrival=0.0) for i in range(4)]

        def total_flops(leave_at=None):
            tenants = [
                Tenant("stays", make_stub_system(), jobs=jobs),
                Tenant(
                    "leaves",
                    make_stub_system(),
                    leave_at=leave_at,
                    leave_mode="requeue",
                ),
            ]
            result = MultiTenantSimulator(tenants).run()
            assert result.aggregate.jobs_completed == 4
            return result.aggregate.total_flops

        assert total_flops(leave_at=full / 2.0) == pytest.approx(
            total_flops(leave_at=None), rel=1e-6
        )

    def test_fault_after_drain_leave_evicts_to_backlog(self):
        # A fault that hits a draining tenant's still-running executor
        # must not strand the requeued job in the departed tenant's local
        # queue: it migrates to the backlog and resumes elsewhere.
        full = job_duration()
        jobs = [make_job(f"j{i}", samples=2_000.0, arrival=0.0) for i in range(2)]
        result = MultiTenantSimulator(
            [
                Tenant("stays", make_stub_system(), jobs=jobs),
                Tenant(
                    "leaves",
                    make_stub_system(),
                    leave_at=full / 4.0,
                    leave_mode="drain",
                ),
            ]
        ).run(faults=[FaultSpec(executor_index=0, fail_at=full / 2.0, tenant="leaves")])
        assert result.aggregate.jobs_completed == 2
        leaver = result.tenants["leaves"].scheduler
        assert not any(
            r.state in (FillJobState.QUEUED, FillJobState.RUNNING)
            for r in leaver.records.values()
        )

    def test_faults_unknown_tenant_rejected(self):
        simulator = MultiTenantSimulator([Tenant("a", make_stub_system())])
        with pytest.raises(ValueError, match="unknown tenant"):
            simulator.run(faults=[FaultSpec(executor_index=0, fail_at=1.0, tenant="b")])

    def test_tenant_validation(self):
        with pytest.raises(ValueError, match="leave_mode"):
            Tenant("t", make_stub_system(), leave_mode="explode")
        with pytest.raises(ValueError, match="leave_at"):
            Tenant("t", make_stub_system(), join_at=10.0, leave_at=5.0)


class TestGlobalSchedulerDynamics:
    def test_job_states_cover_evicted_jobs(self):
        gs = GlobalScheduler(
            {
                "a": FillJobScheduler(make_executors()),
                "b": FillJobScheduler(make_executors()),
            }
        )
        for i in range(4):
            gs.submit(make_job(f"j{i}"))
        gs.dispatch_idle(now=0.0)
        gs.deactivate_tenant("b", now=1.0, requeue=True)
        states = gs.job_states()
        assert len(states) == 4  # exactly one entry per submitted job
        assert sum(1 for s in states.values() if s is FillJobState.RUNNING) == 1
        assert sum(1 for s in states.values() if s is FillJobState.QUEUED) == 3

    def test_departed_tenant_not_preempted(self):
        from repro.core.policies import (
            compose_policies,
            deadline_preemption_rule,
            edf_policy,
            sjf_policy,
        )

        gs = GlobalScheduler(
            {"a": FillJobScheduler(make_executors())},
            policy=compose_policies((1_000.0, edf_policy), (1.0, sjf_policy)),
            preemption_rule=deadline_preemption_rule,
        )
        gs.submit(make_job("long", samples=50_000.0))
        gs.dispatch_idle(now=0.0)
        gs.deactivate_tenant("a", now=1.0, requeue=False)  # drain: job keeps running
        gs.submit(make_job("urgent", samples=500.0, arrival=2.0, deadline=30.0))
        assert gs.try_preempt("urgent", now=2.0) is None


# -- open-loop arrivals --------------------------------------------------------------


class TestOpenLoopArrivals:
    def make_process(self, **kwargs):
        defaults = dict(
            name="t0",
            arrival_rate_per_hour=900.0,
            models=["bert-base"],
            seed=5,
            end_time=1_800.0,
        )
        defaults.update(kwargs)
        return ArrivalProcess(**defaults)

    def test_open_loop_matches_materialized_run(self):
        # Streaming the same jobs lazily must not change the simulation:
        # only the *scheduling* of arrival events differs, not their times.
        process = self.make_process()
        materialized = list(process)
        assert materialized, "the process generated no jobs"
        system = make_stub_system(n_executors=4)
        lazy = MultiTenantSimulator(
            [Tenant("t0", system, arrival_process=process)]
        ).run(horizon_seconds=1_800.0)
        closed = MultiTenantSimulator(
            [Tenant("t0", make_stub_system(n_executors=4), jobs=materialized)]
        ).run(horizon_seconds=1_800.0)
        assert lazy.to_dict() == closed.to_dict()

    def test_open_loop_requires_horizon(self):
        simulator = MultiTenantSimulator(
            [Tenant("t0", make_stub_system(), arrival_process=self.make_process())]
        )
        with pytest.raises(ValueError, match="horizon"):
            simulator.run()

    def test_single_tenant_open_loop(self):
        process = self.make_process()
        result = solo_simulator(4, arrival_process=process).run(
            horizon_seconds=1_800.0
        )
        assert result.aggregate.jobs_submitted > 0
        assert result.events_by_kind["job_arrival"] > 0

    def test_unbounded_stream_without_horizon_rejected(self):
        process = self.make_process(end_time=None)
        with pytest.raises(ValueError, match="horizon"):
            solo_simulator(arrival_process=process).run()


# -- shipped dynamic scenarios -------------------------------------------------------


class TestDynamicScenarios:
    @pytest.mark.parametrize("name", ["faulty_cluster", "elastic_tenants"])
    def test_scenario_conserves_every_job(self, name):
        result = shipped_result(name)
        agg = result.aggregate
        # Every submitted job is accounted for: completed/queued/running on
        # exactly one tenant, waiting in the backlog, or rejected.
        placed = sum(len(t.scheduler.records) for t in result.tenants.values())
        assert (
            placed + result.backlog_remaining + result.jobs_rejected_global
            == agg.jobs_submitted
        )
        ids_seen: set = set()
        for tenant in result.tenants.values():
            overlap = ids_seen & set(tenant.scheduler.records)
            assert not overlap, f"jobs double-booked: {overlap}"
            ids_seen |= set(tenant.scheduler.records)
        assert agg.jobs_completed > 0

    def test_faulty_cluster_requeues_failed_work(self):
        result = shipped_result("faulty_cluster")
        assert result.events_by_kind["executor_failure"] == 4
        assert result.events_by_kind["executor_recovery"] == 3
        # At least one failure interrupted a running job.
        assert result.aggregate.num_preemptions >= 1

    def test_elastic_tenants_sees_all_dynamic_kinds(self):
        result = shipped_result("elastic_tenants")
        kinds = result.events_by_kind
        assert kinds["tenant_join"] == 1
        assert kinds["tenant_leave"] == 2
        assert sum(kinds.values()) == result.events_processed


# -- review regressions --------------------------------------------------------------


class TestDynamicsInterplay:
    """Corner cases where failures, joins and leaves interact."""

    def test_recovery_before_join_stays_down(self):
        # A fault recovery on a tenant that has not joined yet must not
        # sneak its executor into rotation early.
        full = job_duration()
        jobs = [make_job("j0", arrival=0.0)]
        join_at = 10.0 * full
        result = MultiTenantSimulator(
            [
                Tenant("always", make_stub_system(), jobs=jobs),
                Tenant("late", make_stub_system(), join_at=join_at),
            ]
        ).run(
            faults=[
                FaultSpec(executor_index=0, fail_at=1.0, recover_at=5.0, tenant="late")
            ],
            horizon_seconds=join_at / 2.0,
        )
        late = result.tenants["late"].scheduler
        # The recovery fired long before join_at: still no work placed.
        assert not late.records
        assert late.executors[0].is_down

    def test_join_does_not_resurrect_permanently_failed_executor(self):
        full = job_duration()
        jobs = [make_job(f"j{i}", arrival=0.0) for i in range(4)]
        result = MultiTenantSimulator(
            [
                Tenant("always", make_stub_system(), jobs=jobs),
                Tenant("late", make_stub_system(n_executors=2), join_at=full / 2.0),
            ]
        ).run(
            # Executor 0 of the late tenant dies before the join, for good.
            faults=[FaultSpec(executor_index=0, fail_at=1.0, tenant="late")]
        )
        late = result.tenants["late"].scheduler
        assert late.executors[0].is_down  # never resurrected by the join
        # Executor 1 joined normally and took work.
        assert any(
            r.assigned_executor == 1 or r.state is FillJobState.COMPLETED
            for r in late.records.values()
        )
        assert all(r.assigned_executor != 0 for r in late.records.values())

    def test_job_fitting_only_departed_tenant_rejected(self):
        gs = GlobalScheduler({"a": FillJobScheduler(make_executors())})
        gs.deactivate_tenant("a", now=1.0, requeue=False)
        assert gs.submit(make_job("after-leave", arrival=2.0)) is False
        assert gs.job_states()["after-leave"] is FillJobState.REJECTED

    def test_parked_evicted_progress_kept_in_aggregate(self):
        # A job interrupted by a requeue-leave that never finds a new home
        # before the horizon still contributes its banked FLOPs/busy time.
        full = job_duration()
        blocker = make_job("blocker", samples=20_000.0, arrival=0.0)
        victim = make_job("victim", samples=2_000.0, arrival=0.0)
        leave_at = full / 2.0
        result = MultiTenantSimulator(
            [
                Tenant("stays", make_stub_system(), jobs=[blocker]),
                Tenant(
                    "leaves",
                    make_stub_system(),
                    jobs=[victim],
                    leave_at=leave_at,
                    leave_mode="requeue",
                ),
            ]
        ).run(horizon_seconds=leave_at + 1.0)  # cut before re-placement
        assert result.backlog_remaining == 1  # the evicted victim
        agg = result.aggregate
        stays_flops = result.tenants["stays"].fill_metrics.total_flops
        assert agg.total_flops > stays_flops  # banked progress not lost
        assert agg.num_preemptions >= 1

    def test_bad_fault_executor_rejected_at_setup(self):
        simulator = MultiTenantSimulator([Tenant("a", make_stub_system())])
        with pytest.raises(ValueError, match="unknown executor"):
            simulator.run(faults=[FaultSpec(executor_index=9, fail_at=1.0, tenant="a")])
        with pytest.raises(ValueError, match="unknown executor"):
            solo_simulator().run(
                extra_jobs=[make_job("j")], faults=[solo_fault(9, 1.0)]
            )

    def test_arrival_process_rejects_impossible_job_type(self):
        # xlm-roberta-xl is batch-inference-only; forcing TRAINING over it
        # could never yield a job (the stream would spin forever).
        with pytest.raises(ValueError, match="supports job_type"):
            ArrivalProcess(
                name="t0", models=["xlm-roberta-xl"], job_type=JobType.TRAINING
            )

    def test_overlapping_faults_hold_executor_down(self):
        # A permanent fault must not be undone by a later, shorter fault's
        # recovery on the same executor: the device stays down while ANY
        # fault holds it.
        full = job_duration()
        result = solo_simulator().run(
            extra_jobs=[make_job("j")],
            faults=[
                solo_fault(0, full / 4.0),  # permanent
                solo_fault(0, full / 3.0, recover_at=full / 2.0),
            ],
            horizon_seconds=10.0 * full,
        )
        sched = result.tenants[SOLO].scheduler
        assert result.aggregate.jobs_completed == 0
        assert sched.executors[0].is_down
        assert sched.records["j"].state is FillJobState.QUEUED

    def test_overlapping_faults_multi_tenant(self):
        full = job_duration()
        result = MultiTenantSimulator(
            [
                Tenant("a", make_stub_system(), jobs=[make_job("j")]),
            ]
        ).run(
            faults=[
                FaultSpec(executor_index=0, fail_at=full / 4.0, tenant="a"),
                FaultSpec(
                    executor_index=0,
                    fail_at=full / 3.0,
                    recover_at=full / 2.0,
                    tenant="a",
                ),
            ],
            horizon_seconds=10.0 * full,
        )
        sched = result.tenants["a"].scheduler
        assert sched.executors[0].is_down
        assert result.aggregate.jobs_completed == 0

    def test_evicted_job_scored_by_remaining_work(self):
        # SJF must rank a nearly-finished evicted job by its small
        # remainder, not its full size.
        gs = GlobalScheduler(
            {
                "a": FillJobScheduler(make_executors()),
                "b": FillJobScheduler(make_executors()),
            }
        )
        big = make_job("big", samples=20_000.0)
        medium = make_job("medium", samples=10_000.0)
        gs.submit(big)
        completion = gs.dispatch("b", 0, now=0.0).completion_time
        # Run "big" to 90% on tenant b, then b leaves with requeue.
        now = 0.9 * completion
        gs.deactivate_tenant("b", now=now, requeue=True)
        assert gs.evicted_records()[0].samples_remaining == pytest.approx(2_000.0)
        gs.submit(replace_arrival(medium, now))
        # SJF must pick the 2k-sample remainder of "big" over the
        # 10k-sample "medium" (without remaining-work scoring, "big"
        # would be priced at its full 20k samples and lose).
        assignment = gs.dispatch("a", 0, now=now)
        assert assignment is not None and assignment.job_id == "big"
        # And the assignment runs only the remainder, consistent with
        # the score it was picked on.
        remainder_time = gs.tenants["a"].processing_times(
            big, num_samples=2_000.0
        )[0]
        assert assignment.completion_time == pytest.approx(
            now + remainder_time, rel=1e-6
        )


def replace_arrival(job, arrival):
    from dataclasses import replace

    return replace(job, arrival_time=arrival)


class TestFaultTracker:
    def test_ref_count_semantics(self):
        from repro.utils.faults import FaultTracker

        tracker = FaultTracker()
        tracker.fail("x")
        tracker.fail("x")
        assert tracker.is_held("x")
        assert not tracker.recover("x")  # one fault still holds
        assert tracker.recover("x")  # last fault clears
        assert not tracker.is_held("x")
        # Unpaired recovery is a defensive no-op reporting clear.
        assert tracker.recover("y")
