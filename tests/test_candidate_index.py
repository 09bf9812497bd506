"""Property tests: the incremental candidate indexes vs brute-force rescore.

The candidate index (:mod:`repro.core.candidates`) must be *invisible*:
after any sequence of queue churn -- submissions, dispatches, preemptions,
executor failures/recoveries, tenant leave/requeue evictions -- the best
(job, score) it reports for every executor must equal what a brute-force
rescore of the live queue computes with the actual policy, including
tie-breaking (first strictly-greater score in insertion order).  The
brute-force oracle below is the pre-index sweep,
:func:`repro.verify.reference.best_scored`.

Policies cover all index programs: ``sjf`` (static heap), ``fifo``/
``edf``/``slack``/``makespan`` (vectorized scans), ``slack+sjf`` and
``edf+sjf`` (composed scans with a precomputed static tail) and an
unregistered custom policy (generic fallback calling the policy per
candidate).  Churn starts from an empty queue, so every scan is also
checked on classes of one to a few candidates.
"""

from __future__ import annotations

import random
import zlib
from functools import partial

import pytest

from repro.core.executor import FillJobExecutor
from repro.core.global_scheduler import GlobalScheduler
from repro.core.policies import (
    POLICIES,
    SchedulerView,
    fifo_policy,
    makespan_policy,
    sjf_policy,
    slack_policy,
)
from repro.core.scheduler import FillJob, FillJobScheduler
from repro.models.configs import JobType
from repro.pipeline.bubbles import BubbleCycle
from repro.utils.units import GIB
from repro.verify.reference import best_scored

#: Heterogeneous cycles: the tight-memory one rejects the larger models,
#: so per-executor feasibility genuinely differs between job classes.
def make_executors():
    roomy = BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0)
    tight = BubbleCycle.from_durations([0.6, 0.9], 1.2 * GIB, period=5.0)
    slow = BubbleCycle.from_durations([0.8], 4.5 * GIB, period=9.0)
    return {
        0: FillJobExecutor(roomy),
        1: FillJobExecutor(tight),
        2: FillJobExecutor(slow),
        3: FillJobExecutor(roomy),
    }


def custom_policy(job, state, executor_index):
    """An unregistered policy shape: forces the generic index fallback."""
    proc = job.proc_times.get(executor_index, float("inf"))
    if proc == float("inf"):
        return -float("inf")
    return 1.0 / (proc + 1.0) + 0.01 * (state.now - job.arrival_time)


POLICY_CASES = {
    "sjf": sjf_policy,
    "fifo": fifo_policy,
    "edf": POLICIES["edf"],
    "slack": slack_policy,
    "makespan": makespan_policy,
    "slack+sjf": POLICIES["slack+sjf"],
    "edf+sjf": POLICIES["edf+sjf"],
    "custom": custom_policy,
}

MODELS = ["bert-base", "bert-large", "efficientnet"]


def make_job(rng, i, now):
    deadline = None
    if rng.random() < 0.4:
        deadline = now + rng.uniform(50.0, 5_000.0)
    return FillJob(
        job_id=f"j{i}",
        model_name=rng.choice(MODELS),
        job_type=JobType.BATCH_INFERENCE,
        num_samples=rng.uniform(50.0, 5_000.0),
        arrival_time=now,
        deadline=deadline,
    )


def fresh_state(sched: FillJobScheduler, now: float) -> SchedulerView:
    """The occupancy view rebuilt from the executors, bypassing the memo."""
    return SchedulerView(
        now=now,
        rem_times={idx: st.remaining_time(now) for idx, st in sched.executors.items()},
    )


def brute_select(sched: FillJobScheduler, executor_index: int, now: float):
    """The pre-index sweep: full rescore of the live queue."""
    return best_scored(
        sched.policy, sched.queued_jobs(now), sched.job_view,
        fresh_state(sched, now), executor_index,
    )


def brute_backlog(gs: GlobalScheduler, tenant: str, executor_index: int, now: float):
    return best_scored(
        gs.policy, gs.backlog_jobs(now), partial(gs._backlog_view, tenant),
        fresh_state(gs.tenants[tenant], now), executor_index,
    )


def assert_agrees(indexed, brute, context: str):
    ijob, iscore = indexed
    bjob, bscore = brute
    assert (ijob is None) == (bjob is None), context
    if ijob is not None:
        assert ijob.job_id == bjob.job_id, context
        assert iscore == bscore, context  # bit-identical, not approx


@pytest.mark.parametrize("policy_name", sorted(POLICY_CASES))
class TestLocalIndexUnderChurn:
    def test_matches_brute_force_rescore(self, policy_name):
        policy = POLICY_CASES[policy_name]
        sched = FillJobScheduler(make_executors(), policy=policy)
        rng = random.Random(zlib.crc32(policy_name.encode()))
        now = 0.0
        for step in range(160):
            now += rng.uniform(0.0, 30.0)
            op = rng.random()
            if op < 0.45:
                sched.submit(make_job(rng, step, now))
            elif op < 0.65:
                idle = sched.idle_executor_indices()
                if idle:
                    sched.dispatch(rng.choice(idle), now)
            elif op < 0.78:
                busy = [i for i, s in sched.executors.items() if s.is_busy]
                if busy:
                    # Mid-segment preemption: banks progress, re-queues
                    # the remainder, must invalidate the index entry.
                    sched.preempt(rng.choice(busy), now)
            elif op < 0.88:
                busy = [i for i, s in sched.executors.items() if s.is_busy]
                if busy:
                    idx = rng.choice(busy)
                    sched.complete(idx, sched.executors[idx].busy_until)
            elif op < 0.95:
                up = [i for i, s in sched.executors.items() if not s.is_down]
                if up:
                    sched.on_executor_lost(rng.choice(up), now)
            else:
                down = [i for i, s in sched.executors.items() if s.is_down]
                if down:
                    sched.on_executor_recovered(rng.choice(down))
            for idx in sched.executors:
                assert_agrees(
                    sched.select_job_scored(idx, now),
                    brute_select(sched, idx, now),
                    f"{policy_name}: step {step}, executor {idx}",
                )


@pytest.mark.parametrize("policy_name", ["sjf", "slack+sjf", "fifo", "custom"])
class TestGlobalIndexUnderChurn:
    def test_matches_brute_force_rescore(self, policy_name):
        policy = POLICY_CASES[policy_name]
        tenants = {
            "a": FillJobScheduler(make_executors(), policy=policy),
            "b": FillJobScheduler(
                {
                    0: FillJobExecutor(
                        BubbleCycle.from_durations([1.1, 0.7], 3.0 * GIB, period=6.0)
                    ),
                    1: FillJobExecutor(
                        BubbleCycle.from_durations([0.5], 1.2 * GIB, period=3.0)
                    ),
                },
                policy=policy,
            ),
            "c": FillJobScheduler(make_executors(), policy=policy),
        }
        gs = GlobalScheduler(tenants, policy=policy)
        rng = random.Random(0xC0FFEE ^ zlib.crc32(policy_name.encode()))
        now = 0.0
        left = False
        for step in range(140):
            now += rng.uniform(0.0, 40.0)
            op = rng.random()
            if op < 0.5:
                gs.submit(make_job(rng, step, now))
            elif op < 0.65:
                gs.dispatch_idle(now)
            elif op < 0.75:
                busy = [
                    (t, i)
                    for t, s in gs.tenants.items()
                    for i, st in s.executors.items()
                    if st.is_busy
                ]
                if busy:
                    t, i = rng.choice(busy)
                    gs.fail_executor(t, i, now)
            elif op < 0.85:
                gs.recover_executor(rng.choice(["a", "b", "c"]), rng.randrange(2))
            elif op < 0.93:
                busy = [
                    (t, i)
                    for t, s in gs.tenants.items()
                    for i, st in s.executors.items()
                    if st.is_busy
                ]
                if busy:
                    t, i = rng.choice(busy)
                    gs.complete(t, i, gs.tenants[t].executors[i].busy_until)
            elif not left and step > 60:
                # The churn the index must survive: a tenant leaves and
                # its queued jobs (with banked progress) are evicted back
                # to the backlog, where every other tenant re-scores them.
                gs.deactivate_tenant("c", now, requeue=True)
                left = True
            for tenant in gs.tenants:
                if tenant in gs.departed:
                    continue
                for idx in gs.tenants[tenant].executors:
                    assert_agrees(
                        gs._best_backlog_job(tenant, idx, now),
                        brute_backlog(gs, tenant, idx, now),
                        f"{policy_name}: step {step}, {tenant}/{idx}",
                    )


class TestInvalidationExplicitly:
    def test_preemption_reprices_index_entry(self):
        sched = FillJobScheduler(make_executors(), policy=sjf_policy)
        job = FillJob(
            job_id="victim",
            model_name="bert-base",
            job_type=JobType.BATCH_INFERENCE,
            num_samples=2_000.0,
        )
        sched.submit(job)
        _, score_full = sched.select_job_scored(0, 0.0)
        completion = sched.dispatch(0, 0.0)
        sched.preempt(0, completion / 2.0)
        picked, score_half = sched.select_job_scored(0, completion / 2.0)
        assert picked.job_id == "victim"
        # Half the samples remain, so the SJF score must roughly double;
        # exact value is asserted against the brute oracle.
        assert score_half > score_full
        assert_agrees(
            (picked, score_half),
            brute_select(sched, 0, completion / 2.0),
            "post-preemption",
        )

    def test_tenant_requeue_carries_banked_progress_into_backlog_score(self):
        policy = sjf_policy
        tenants = {
            "x": FillJobScheduler(make_executors(), policy=policy),
            "y": FillJobScheduler(make_executors(), policy=policy),
        }
        gs = GlobalScheduler(tenants, policy=policy)
        job = FillJob(
            job_id="mover",
            model_name="bert-base",
            job_type=JobType.BATCH_INFERENCE,
            num_samples=4_000.0,
        )
        gs.submit(job)
        assignment = gs.dispatch("x", 0, 0.0)
        assert assignment is not None and assignment.job_id == "mover"
        halfway = assignment.completion_time / 2.0
        gs.deactivate_tenant("x", halfway, requeue=True)
        # The evicted job is back in the backlog with ~half its samples
        # banked; tenant y's index must price only the remainder.
        best, score = gs._best_backlog_job("y", 0, halfway)
        assert best is not None and best.job_id == "mover"
        assert_agrees((best, score), brute_backlog(gs, "y", 0, halfway), "post-leave")
        carried = gs._evicted["mover"].samples_remaining
        assert carried == pytest.approx(2_000.0, rel=1e-6)
        view = gs._backlog_view("y", job)
        finite = [t for t in view.proc_times.values() if t != float("inf")]
        assert finite  # and those times price the remaining samples only
        full_view_time = gs.tenants["y"].processing_times(job)[0]
        assert view.proc_times[0] == pytest.approx(full_view_time / 2.0, rel=1e-6)
