"""Tests for the multi-tenant path: preemption, GlobalScheduler, simulator.

The simulator-level tests drive stub tenant "systems" built from small
synthetic bubble cycles (same shapes as the scheduler tests) so they stay
fast and deterministic; the scenario/CLI integration tests live in
``test_scenario_cli.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.core.global_scheduler import GlobalScheduler
from repro.core.policies import (
    compose_policies,
    deadline_preemption_rule,
    edf_policy,
    get_policy,
    sjf_policy,
    slack_policy,
)
from repro.core.scheduler import FillJob, FillJobScheduler, FillJobState
from repro.models.configs import JobType
from repro.pipeline.bubbles import BubbleCycle
from repro.sim.multi_tenant import MultiTenantSimulator, Tenant
from repro.utils.units import GIB


def make_executors(durations=(1.5, 1.5), period=4.0):
    return {
        0: FillJobExecutor(BubbleCycle.from_durations(list(durations), 4.5 * GIB, period=period))
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


def make_stub_system(durations=(1.5, 1.5), period=4.0):
    """A minimal stand-in for PipeFillSystem: executors + main-job numbers."""
    return SimpleNamespace(
        executors=make_executors(durations, period),
        config=PipeFillConfig(),
        main_job=SimpleNamespace(tflops_per_device=10.0, bubble_ratio=0.5),
    )


# -- scheduler preemption -----------------------------------------------------------


def one_tenant():
    """A one-tenant global scheduler over ``make_executors()``, and its tenant."""
    scheduler = FillJobScheduler(make_executors())
    return GlobalScheduler({"t": scheduler}), scheduler


class TestSchedulerPreemption:
    def test_preempt_banks_partial_progress(self):
        gs, scheduler = one_tenant()
        gs.submit(make_job("a"))
        completion = gs.dispatch("t", 0, now=0.0).completion_time
        full_flops = scheduler.records["a"].flops_executed
        halfway = completion / 2.0

        preempted = scheduler.preempt(0, now=halfway)
        record = scheduler.records["a"]
        assert preempted == "a"
        assert record.state is FillJobState.QUEUED
        assert record.num_preemptions == 1
        assert record.flops_banked == pytest.approx(full_flops / 2.0, rel=1e-6)
        assert record.samples_remaining == pytest.approx(
            record.job.num_samples / 2.0, rel=1e-6
        )
        assert not scheduler.executors[0].is_busy

    def test_preempted_job_resumes_and_conserves_flops(self):
        gs, scheduler = one_tenant()
        gs.submit(make_job("a"))
        completion = gs.dispatch("t", 0, now=0.0).completion_time
        full_flops = scheduler.records["a"].flops_executed
        scheduler.preempt(0, now=completion / 2.0)

        resumed_completion = gs.dispatch("t", 0, now=completion / 2.0).completion_time
        # Only half the work is left, so the second segment is half as long.
        assert resumed_completion - completion / 2.0 == pytest.approx(
            completion / 2.0, rel=1e-6
        )
        gs.complete("t", 0, now=resumed_completion)
        record = scheduler.records["a"]
        assert record.state is FillJobState.COMPLETED
        assert record.flops_executed == pytest.approx(full_flops, rel=1e-6)
        assert record.busy_banked_seconds == pytest.approx(completion, rel=1e-6)

    def test_preempt_idle_executor_is_noop(self):
        scheduler = FillJobScheduler(make_executors())
        assert scheduler.preempt(0, now=1.0) is None

    def test_preempt_at_completion_time_completes(self):
        gs, scheduler = one_tenant()
        gs.submit(make_job("a"))
        completion = gs.dispatch("t", 0, now=0.0).completion_time
        assert scheduler.preempt(0, now=completion) == "a"
        assert scheduler.records["a"].state is FillJobState.COMPLETED


# -- policies -----------------------------------------------------------------------


class TestDeadlinePolicies:
    def test_slack_policy_accounts_for_processing_time(self):
        from repro.core.policies import JobView, SchedulerView

        state = SchedulerView(now=0.0, rem_times={0: 0.0})
        near_deadline_short = JobView("short", 0.0, {0: 10.0}, deadline=100.0)
        far_deadline_long = JobView("long", 0.0, {0: 95.0}, deadline=110.0)
        # EDF prefers the nearer deadline; slack sees the long job is tighter.
        assert edf_policy(near_deadline_short, state, 0) > edf_policy(
            far_deadline_long, state, 0
        )
        assert slack_policy(far_deadline_long, state, 0) > slack_policy(
            near_deadline_short, state, 0
        )

    def test_registry_exposes_new_policies(self):
        assert get_policy("slack") is slack_policy
        assert callable(get_policy("slack+sjf"))

    def test_preemption_rule_spares_victim_it_would_doom(self):
        from repro.core.policies import JobView, RunningJobView, SchedulerView

        state = SchedulerView(now=0.0, rem_times={0: 50.0})
        # Arrival needs 10s by t=11; the victim has 50s left by t=52.
        # Preempting would delay the victim past its own deadline
        # (resume at >=10, finish at >=60 > 52): one miss traded for
        # another, so the rule must decline.
        arriving = JobView("urgent", 0.0, {0: 10.0}, deadline=11.0)
        doomed_victim = RunningJobView(
            "victim", start_time=0.0, scheduled_end=50.0, executor_index=0,
            deadline=52.0,
        )
        assert deadline_preemption_rule(arriving, doomed_victim, state) == 0.0
        # A victim with slack to absorb the re-queue delay is fair game.
        slack_victim = RunningJobView(
            "victim", start_time=0.0, scheduled_end=50.0, executor_index=0,
            deadline=200.0,
        )
        assert deadline_preemption_rule(arriving, slack_victim, state) > 0.0

    def test_preemption_rule_prices_victims_executor(self):
        from repro.core.policies import JobView, RunningJobView, SchedulerView

        state = SchedulerView(now=0.0, rem_times={0: 5.0, 1: 500.0})
        # The arrival runs in 5s on executor 0 but 500s on executor 1;
        # its deadline (100) is only feasible on executor 0.
        arriving = JobView("urgent", 0.0, {0: 5.0, 1: 500.0}, deadline=100.0)
        slow_victim = RunningJobView(
            "v1", start_time=0.0, scheduled_end=500.0, executor_index=1
        )
        fast_victim = RunningJobView(
            "v0", start_time=0.0, scheduled_end=5.0, executor_index=0
        )
        # Preempting on the slow executor cannot save the arrival.
        assert deadline_preemption_rule(arriving, slow_victim, state) == 0.0
        # On the fast executor the wait (5s) is fine anyway -- no need.
        assert deadline_preemption_rule(arriving, fast_victim, state) == 0.0
        # Tighten the deadline so waiting out executor 0 misses it.
        tight = JobView("urgent", 0.0, {0: 60.0, 1: 500.0}, deadline=70.0)
        busy_fast = RunningJobView(
            "v0", start_time=0.0, scheduled_end=50.0, executor_index=0
        )
        assert deadline_preemption_rule(tight, busy_fast, state) > 0.0


# -- global scheduler ---------------------------------------------------------------


class TestGlobalScheduler:
    def make_global(self, policy=sjf_policy, preemption_rule=None):
        tenants = {
            "a": FillJobScheduler(make_executors()),
            "b": FillJobScheduler(make_executors()),
        }
        return GlobalScheduler(tenants, policy=policy, preemption_rule=preemption_rule)

    def test_requires_tenants(self):
        with pytest.raises(ValueError):
            GlobalScheduler({})

    def test_rejects_job_fitting_no_tenant(self):
        gs = self.make_global()
        huge = FillJob(
            job_id="huge",
            model_name="xlm-roberta-xl",
            job_type=JobType.TRAINING,
            num_samples=100.0,
        )
        assert not gs.submit(huge)
        assert gs.job_states()["huge"] is FillJobState.REJECTED

    def test_backlog_feeds_both_tenants(self):
        gs = self.make_global()
        for i in range(4):
            gs.submit(make_job(f"j{i}"))
        assignments = gs.dispatch_idle(now=0.0)
        placed_tenants = {a.tenant for a in assignments}
        assert placed_tenants == {"a", "b"}
        states = gs.job_states()
        assert sum(1 for s in states.values() if s is FillJobState.RUNNING) == 2
        assert sum(1 for s in states.values() if s is FillJobState.QUEUED) == 2

    def test_duplicate_submit_rejected(self):
        gs = self.make_global()
        gs.submit(make_job("dup"))
        with pytest.raises(ValueError):
            gs.submit(make_job("dup"))

    def test_deadline_preemption_runs_urgent_job(self):
        gs = self.make_global(
            policy=compose_policies((1_000.0, edf_policy), (1.0, sjf_policy)),
            preemption_rule=deadline_preemption_rule,
        )
        gs.submit(make_job("long-a", samples=50_000.0))
        gs.submit(make_job("long-b", samples=50_000.0))
        gs.dispatch_idle(now=0.0)

        # An urgent job whose deadline cannot wait for either long job.
        urgent_proc = gs.tenants["a"].processing_times(make_job("probe"))[0]
        urgent = make_job("urgent", arrival=1.0, deadline=1.0 + 2.0 * urgent_proc)
        assert gs.submit(urgent)
        assignment = gs.try_preempt("urgent", now=1.0)
        assert assignment is not None
        assert assignment.job_id == "urgent"
        assert assignment.preempted_job_id in {"long-a", "long-b"}
        victim = gs.tenants[assignment.tenant].records[assignment.preempted_job_id]
        assert victim.state is FillJobState.QUEUED
        assert victim.num_preemptions == 1
        assert victim.flops_banked > 0

    def test_no_preemption_without_rule(self):
        gs = self.make_global()
        gs.submit(make_job("long", samples=50_000.0))
        gs.dispatch_idle(now=0.0)
        urgent = make_job("urgent", arrival=1.0, deadline=2.0)
        gs.submit(urgent)
        assert gs.try_preempt("urgent", now=1.0) is None

    def test_preempted_victim_resumes_on_idle_executor(self):
        # Victim runs on executor 0 of a two-executor tenant; executor 1 is
        # idle.  After try_preempt hands executor 0 to the urgent job, a
        # dispatch_idle pass must immediately resume the victim on executor
        # 1 (the simulator performs this pass right after every successful
        # preemption) instead of leaving it queued until the next event.
        two_exec = {
            0: FillJobExecutor(
                BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0)
            ),
            1: FillJobExecutor(
                BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0)
            ),
        }
        gs = GlobalScheduler(
            {"a": FillJobScheduler(two_exec)},
            policy=compose_policies((1_000.0, edf_policy), (1.0, sjf_policy)),
            preemption_rule=deadline_preemption_rule,
        )
        gs.submit(make_job("victim", samples=50_000.0))
        assert gs.dispatch("a", 0, now=0.0) is not None
        urgent_proc = gs.tenants["a"].processing_times(make_job("probe"))[0]
        gs.submit(make_job("urgent", arrival=1.0, deadline=1.0 + 2.0 * urgent_proc))
        assignment = gs.try_preempt("urgent", now=1.0)
        assert assignment is not None and assignment.executor_index == 0
        followups = gs.dispatch_idle(now=1.0)
        assert any(
            a.job_id == "victim" and a.executor_index == 1 for a in followups
        ), followups

    def test_job_states_cover_every_submission(self):
        gs = self.make_global()
        for i in range(5):
            gs.submit(make_job(f"j{i}"))
        gs.dispatch_idle(now=0.0)
        states = gs.job_states()
        assert len(states) == 5


# -- multi-tenant simulator ---------------------------------------------------------


class TestMultiTenantSimulator:
    def make_tenants(self, jobs_a=(), jobs_b=()):
        return [
            Tenant("a", make_stub_system(), jobs=list(jobs_a)),
            Tenant("b", make_stub_system(), jobs=list(jobs_b)),
        ]

    def test_requires_tenants_and_unique_names(self):
        with pytest.raises(ValueError):
            MultiTenantSimulator([])
        with pytest.raises(ValueError, match="unique"):
            MultiTenantSimulator(
                [Tenant("a", make_stub_system()), Tenant("a", make_stub_system())]
            )

    def test_two_tenants_conserve_jobs(self):
        jobs_a = [make_job(f"a{i}", arrival=float(i)) for i in range(6)]
        jobs_b = [make_job(f"b{i}", arrival=float(i) + 0.5) for i in range(6)]
        result = MultiTenantSimulator(self.make_tenants(jobs_a, jobs_b)).run()

        agg = result.aggregate
        assert agg.jobs_submitted == 12
        # Without a horizon every feasible job runs to completion: nothing
        # is lost in the backlog and nothing is duplicated across tenants.
        assert agg.jobs_completed == 12
        assert result.backlog_remaining == 0
        assert agg.jobs_rejected == 0
        per_tenant_total = sum(
            t.fill_metrics.jobs_submitted for t in result.tenants.values()
        )
        assert per_tenant_total == 12
        ids_seen = set()
        for tenant in result.tenants.values():
            overlap = ids_seen & set(tenant.scheduler.records)
            assert not overlap
            ids_seen |= set(tenant.scheduler.records)
        assert len(ids_seen) == 12

    def test_conservation_under_horizon_cut(self):
        jobs_a = [make_job(f"a{i}", samples=20_000.0, arrival=0.0) for i in range(4)]
        jobs_b = [make_job(f"b{i}", samples=20_000.0, arrival=0.0) for i in range(4)]
        result = MultiTenantSimulator(self.make_tenants(jobs_a, jobs_b)).run(
            horizon_seconds=50.0
        )
        agg = result.aggregate
        placed = agg.jobs_submitted - result.backlog_remaining - agg.jobs_rejected
        per_tenant_total = sum(
            t.fill_metrics.jobs_submitted for t in result.tenants.values()
        )
        assert per_tenant_total == placed
        assert agg.jobs_submitted == 8

    def test_shared_backlog_spills_to_other_tenant(self):
        # Only tenant "a" submits, but both tenants' devices pick up work.
        jobs_a = [make_job(f"a{i}", arrival=0.0) for i in range(4)]
        result = MultiTenantSimulator(self.make_tenants(jobs_a, ())).run()
        assert result.tenants["b"].fill_metrics.jobs_submitted > 0
        assert result.tenants["a"].jobs_submitted_by == 4
        assert result.tenants["b"].jobs_submitted_by == 0

    def test_deadline_policy_beats_sjf_on_hit_rate(self):
        def build_jobs():
            jobs = []
            # Small no-deadline jobs SJF will grab first...
            for i in range(6):
                jobs.append(make_job(f"small{i}", samples=600.0, arrival=0.0))
            # ...and two bigger jobs whose deadlines cannot absorb waiting
            # behind three smalls.
            for i in range(2):
                jobs.append(
                    make_job(f"urgent{i}", samples=4_000.0, arrival=0.0, deadline=40.0)
                )
            return jobs

        def hit_rate(policy_name):
            result = MultiTenantSimulator(
                self.make_tenants(build_jobs()[:4], build_jobs()[4:]),
                policy=get_policy(policy_name),
            ).run()
            return result.aggregate.deadline_hit_rate

        assert hit_rate("edf+sjf") > hit_rate("sjf")
        assert hit_rate("slack+sjf") > hit_rate("sjf")

    def test_preemption_improves_urgent_latency(self):
        long_jobs = [make_job(f"long{i}", samples=60_000.0, arrival=0.0) for i in range(2)]
        urgent = make_job("urgent", samples=600.0, arrival=5.0, deadline=30.0)

        def urgent_jct(preemption_rule):
            result = MultiTenantSimulator(
                self.make_tenants(long_jobs, [urgent]),
                policy=get_policy("edf+sjf"),
                preemption_rule=preemption_rule,
            ).run()
            for tenant in result.tenants.values():
                record = tenant.scheduler.records.get("urgent")
                if record is not None and record.jct is not None:
                    return record.jct, result.aggregate.num_preemptions
            raise AssertionError("urgent job never completed")

        jct_without, preempts_without = urgent_jct(None)
        jct_with, preempts_with = urgent_jct(deadline_preemption_rule)
        assert preempts_without == 0
        assert preempts_with >= 1
        assert jct_with < jct_without

    def test_flops_conserved_across_preemption(self):
        # The same workload with and without preemption completes the same
        # total FLOPs once everything drains (banked progress plus resumed
        # remainders must add up).
        long_jobs = [make_job(f"long{i}", samples=20_000.0, arrival=0.0) for i in range(2)]
        urgent = make_job("urgent", samples=600.0, arrival=5.0, deadline=30.0)

        def total_flops(rule):
            result = MultiTenantSimulator(
                self.make_tenants(long_jobs, [urgent]),
                policy=get_policy("edf+sjf"),
                preemption_rule=rule,
            ).run()
            assert result.aggregate.jobs_completed == 3
            return result.aggregate.total_flops

        assert total_flops(deadline_preemption_rule) == pytest.approx(
            total_flops(None), rel=1e-6
        )

    def test_urgent_arrival_prefers_preempting_fast_over_idle_slow(self):
        # Tenant "fast" is busy with a deadline-free long job; tenant
        # "slow" sits idle but cannot meet the urgent job's deadline.
        # The simulator must attempt preemption before plain dispatch
        # strands the urgent job on the idle-but-slow device.
        fast = make_stub_system(durations=(1.5, 1.5))
        slow = make_stub_system(durations=(0.4, 0.4))
        long_job = make_job("long", samples=60_000.0, arrival=0.0)

        from repro.core.scheduler import FillJobScheduler as _S

        proc_fast = _S(fast.executors).processing_times(make_job("probe"))[0]
        proc_slow = _S(slow.executors).processing_times(make_job("probe"))[0]
        assert proc_slow > 2.0 * proc_fast  # precondition for the scenario
        urgent = make_job(
            "urgent", arrival=5.0, deadline=5.0 + 1.5 * proc_fast
        )
        result = MultiTenantSimulator(
            [Tenant("fast", fast, jobs=[long_job]), Tenant("slow", slow, jobs=[urgent])],
            policy=get_policy("edf+sjf"),
            preemption_rule=deadline_preemption_rule,
        ).run()
        assert result.aggregate.num_preemptions == 1
        urgent_record = result.tenants["fast"].scheduler.records["urgent"]
        assert urgent_record.state is FillJobState.COMPLETED
        assert urgent_record.met_deadline

    def test_rejected_deadline_job_counts_as_miss(self):
        infeasible = FillJob(
            job_id="too-big",
            model_name="xlm-roberta-xl",
            job_type=JobType.TRAINING,
            num_samples=100.0,
            deadline=50.0,
        )
        feasible = make_job("ok", samples=600.0, deadline=1_000.0)
        result = MultiTenantSimulator(
            self.make_tenants([infeasible, feasible], ())
        ).run()
        agg = result.aggregate
        assert agg.jobs_rejected == 1
        assert agg.deadlines_total == 2
        assert agg.deadlines_met == 1
        assert agg.deadline_hit_rate == pytest.approx(0.5)

    def test_summary_table_has_total_row(self):
        jobs_a = [make_job("a0")]
        result = MultiTenantSimulator(self.make_tenants(jobs_a, ())).run()
        table = result.summary_table()
        assert table.column("tenant")[-1] == "TOTAL"
        assert len(table.rows) == 3

    def test_duplicate_job_ids_rejected(self):
        jobs = [make_job("same"), ]
        with pytest.raises(ValueError, match="unique"):
            MultiTenantSimulator(self.make_tenants(jobs, jobs)).run()
