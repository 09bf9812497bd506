"""The Global (cross-tenant) Fill Job Scheduler.

A production cluster rarely runs a single pipeline-parallel main job:
several training jobs ("tenants") run side by side, each wasting its own
pipeline bubbles, while the organisation maintains one shared backlog of
fill jobs.  :class:`GlobalScheduler` is the routing layer that sits above
one :class:`~repro.core.scheduler.FillJobScheduler` per tenant:

* arriving fill jobs enter a single **global backlog**;
* whenever any tenant's device frees up, the global scheduler scores both
  that tenant's locally re-queued jobs (preemption leftovers) and the
  global backlog with the configured
  :data:`~repro.core.policies.SchedulingPolicy`, and assigns the winner;
* once a job has begun running on a tenant it acquires **affinity** to that
  tenant (its partial progress lives in that tenant's records), so a
  preempted job resumes on the same tenant rather than migrating state;
* with a :data:`~repro.core.policies.PreemptionRule` configured, an urgent
  deadline-constrained arrival may interrupt a running job anywhere in the
  cluster; the victim's progress is banked and its remainder re-queued.

The :class:`~repro.sim.multi_tenant.MultiTenantSimulator` drives this class
event-by-event; it can also be used directly for step-by-step tests.

Job conservation invariant: every submitted job is, at all times, in
exactly one of (a) the global backlog, (b) exactly one tenant's records
(queued / running / completed), or (c) the globally-rejected set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from functools import partial

from repro.core.candidates import CandidateIndex
from repro.core.policies import (
    _EPS as _POLICY_EPS,
    JobView,
    PreemptionRule,
    RunningJobView,
    SchedulingPolicy,
    deadline_preemption_rule,
    sjf_policy,
)
from repro.core.scheduler import FillJob, FillJobScheduler, FillJobState, JobRecord
from repro.utils.faults import FaultTracker
from repro.utils.ordered import OrderedIdSet


@dataclass(frozen=True)
class Assignment:
    """One job placement decided by the global scheduler."""

    tenant: str
    executor_index: int
    job_id: str
    completion_time: float
    preempted_job_id: Optional[str] = None


class GlobalScheduler:
    """Routes a shared fill-job backlog across per-tenant schedulers.

    Parameters
    ----------
    tenants:
        One :class:`~repro.core.scheduler.FillJobScheduler` per tenant,
        keyed by tenant name.  Each tenant scheduler owns the executors of
        that tenant's representative devices.
    policy:
        Scoring policy used both for the global backlog and for jobs
        re-queued locally after preemption.
    preemption_rule:
        Optional rule enabling deadline-driven preemption; ``None``
        disables preemption entirely.

    One candidate index per tenant answers dispatch queries, deadline
    checks read the tenants' class timing tables, the preemption search
    skips a tenant whose fastest executor misses the deadline, and a
    dispatch sweep visits each idle executor once.
    :class:`repro.verify.reference.ReferenceGlobalScheduler` re-scores
    everything from scratch instead; the equivalence tests compare the two.
    """

    def __init__(
        self,
        tenants: Mapping[str, FillJobScheduler],
        *,
        policy: SchedulingPolicy = sjf_policy,
        preemption_rule: Optional[PreemptionRule] = None,
    ) -> None:
        if not tenants:
            raise ValueError("the global scheduler needs at least one tenant")
        self.tenants: Dict[str, FillJobScheduler] = dict(tenants)
        self.policy = policy
        self.preemption_rule = preemption_rule
        self.jobs: Dict[str, FillJob] = {}
        self.rejected: Dict[str, FillJob] = {}
        #: Tenant a job is (or was) resident on, once dispatched there.
        self.placements: Dict[str, str] = {}
        #: Tenants that left the cluster (drain or requeue); no new work is
        #: routed to them and their executors go down as they free up.
        self.departed: set = set()
        #: Tenants whose devices have not joined the cluster yet
        #: (:meth:`suspend_tenant`); activation brings them up.
        self.inactive: set = set()
        #: Fault holds per (tenant, executor) -- devices down due to a
        #: *fault*, as opposed to down because their tenant is
        #: inactive/departed.  Overlapping fault windows ref-count (a
        #: permanent fault never releases), and a tenant activation must
        #: not resurrect a held device.
        self._failed = FaultTracker()
        #: Records of jobs evicted from a departed tenant, keyed by job id;
        #: their banked partial progress is restored when the job is placed
        #: on another tenant.
        self._evicted: Dict[str, JobRecord] = {}
        self._backlog = OrderedIdSet()
        # One incremental candidate index per tenant over the shared
        # backlog (scores differ per tenant: processing times depend on
        # the tenant's bubble cycles).  Maintained on submit / placement /
        # eviction; a departed tenant's index is dropped for good.
        self._backlog_indexes: Dict[str, CandidateIndex] = {
            name: CandidateIndex(
                sched,
                policy,
                view_provider=partial(self._backlog_view, name),
                samples_provider=self._backlog_samples,
                state_provider=sched.scheduler_view,
            )
            for name, sched in self.tenants.items()
        }

    # -- submission -------------------------------------------------------------

    def submit(self, job: FillJob) -> bool:
        """Add a job to the global backlog.

        Returns ``False`` (and records the job as rejected) when no
        executor of any tenant can ever run it.  Feasibility short-circuits
        at the first executor anywhere that can run the job.
        """
        if job.job_id in self.jobs:
            raise ValueError(f"job id {job.job_id!r} already submitted")
        self.jobs[job.job_id] = job
        # Departed tenants never take work again, so they cannot make a
        # job feasible; inactive (not-yet-joined) tenants can -- the job
        # waits in the backlog for them.
        for name, sched in self.tenants.items():
            if name in self.departed:
                continue
            if sched.fits_any(job):
                self._backlog.append(job.job_id)
                self._index_add(job)
                return True
        self.rejected[job.job_id] = job
        return False

    def _backlog_samples(self, job: FillJob) -> float:
        """Samples a placement of the backlog job would actually run."""
        carried = self._evicted.get(job.job_id)
        return job.num_samples if carried is None else carried.samples_remaining

    def _index_add(self, job: FillJob) -> None:
        """Index a job that just (re-)entered the backlog on every live
        tenant (a departed tenant's index was dropped at deactivation;
        each index skips classes infeasible on its tenant)."""
        for index in self._backlog_indexes.values():
            index.add(job)

    def _index_remove(self, job_id: str) -> None:
        for index in self._backlog_indexes.values():
            index.remove(job_id)

    def backlog_jobs(self, now: Optional[float] = None) -> List[FillJob]:
        """Jobs waiting in the global backlog (arrived by ``now`` if given)."""
        jobs = [self.jobs[jid] for jid in self._backlog]
        if now is not None:
            jobs = [j for j in jobs if j.arrival_time <= now]
        return jobs

    # -- dispatch ---------------------------------------------------------------

    def _backlog_view(self, tenant: str, job: FillJob) -> JobView:
        """A backlog job's view on one tenant, priced for the samples a
        placement would run (an evicted job's remaining work)."""
        return JobView(
            job_id=job.job_id,
            arrival_time=job.arrival_time,
            proc_times=self.tenants[tenant].processing_times(
                job, num_samples=self._backlog_samples(job)
            ),
            deadline=job.deadline,
        )

    def _best_backlog_job(
        self, tenant: str, executor_index: int, now: float
    ) -> Tuple[Optional[FillJob], float]:
        """Highest-scoring backlog job runnable on this tenant executor.

        The tenant's candidate index answers without re-scoring the backlog
        (see :mod:`repro.core.candidates`).  Only live tenants get here: a
        departed tenant's index is gone, but so is every executor it could
        dispatch to.
        """
        return self._backlog_indexes[tenant].best_for_executor(executor_index, now)

    def dispatch(
        self, tenant: str, executor_index: int, now: float
    ) -> Optional[Assignment]:
        """Fill one idle tenant executor with the best available job.

        Considers both the tenant's local queue (preemption leftovers,
        which have affinity here) and the global backlog; the policy score
        decides between them.  Returns the resulting
        :class:`Assignment`, or ``None`` when the executor stays idle.
        """
        sched = self.tenants[tenant]
        if not sched.executors[executor_index].is_available:
            return None
        # The tenant scheduler scores with *its own* policy, which is built
        # with the same policy as the backlog scoring, so the scores compare.
        # Its queue only ever holds preemption and failure leftovers, so it
        # is usually empty and then has nothing to score.
        local_job, local_score = (
            sched.select_job_scored(executor_index, now)
            if sched.has_queued_jobs()
            else (None, 0.0)
        )
        backlog_job, backlog_score = self._best_backlog_job(tenant, executor_index, now)
        if local_job is None and backlog_job is None:
            return None
        if backlog_job is not None and (local_job is None or backlog_score > local_score):
            self._place(tenant, backlog_job)
            completion = sched.assign(executor_index, backlog_job, now)
            return Assignment(tenant, executor_index, backlog_job.job_id, completion)
        assert local_job is not None
        completion = sched.assign(executor_index, local_job, now)
        return Assignment(tenant, executor_index, local_job.job_id, completion)

    def _place(self, tenant: str, job: FillJob) -> None:
        """Move a backlog job into a tenant's scheduler, just before assignment.

        The tenant adopts the job with any partial progress it banked on a
        tenant that has since departed, so a migrated job resumes with only
        its remaining samples rather than restarting.
        """
        self._backlog.remove(job.job_id)
        self._index_remove(job.job_id)
        self.placements[job.job_id] = tenant
        self.tenants[tenant].adopt(job, self._evicted.pop(job.job_id, None))

    def dispatch_idle(self, now: float) -> List[Assignment]:
        """Dispatch onto every idle executor of every tenant, once each.

        Within one sweep jobs only ever leave the backlog and the tenant
        queues, and no executor frees up, so an executor that found no
        runnable job cannot gain work until the next event: one pass over
        the executors idle at the start of the sweep assigns everything a
        repeated pass would.  A tenant whose assignment drained the last
        waiting job skips its remaining idle executors.
        """
        assignments: List[Assignment] = []
        for tenant, sched in self.tenants.items():
            if not self._backlog and not sched.has_queued_jobs():
                continue
            for idx in sched.idle_executor_indices():
                assignment = self.dispatch(tenant, idx, now)
                if assignment is None:
                    continue
                assignments.append(assignment)
                if not self._backlog and not sched.has_queued_jobs():
                    # The assignment drained the last waiting job: every
                    # remaining idle executor would scan to no candidate.
                    break
        return assignments

    # -- preemption -------------------------------------------------------------

    def idle_can_meet_deadline(self, job_id: str, now: float) -> bool:
        """Whether some currently-idle executor meets the job's deadline.

        Used by the simulator to decide, on arrival of a deadline job,
        whether plain dispatch suffices or preemption should be attempted
        first (an idle-but-slow executor can be worse than preempting a
        fast one).  Jobs without a deadline trivially return ``True``.
        """
        job = self.jobs[job_id]
        if job.deadline is None:
            return True
        samples = self._backlog_samples(job)
        inf = float("inf")
        for sched in self.tenants.values():
            # Only available devices can rescue the arrival, so consult
            # the idle set first and skip (cheaply) tenants running full.
            idle = sched.idle_executor_indices()
            if not idle:
                continue
            # ``processing_times``' expression, read off the class table.
            row = sched.class_row(sched.ensure_class(job.model_name, job.job_type))
            for idx in idle:
                spc, period = row[idx]
                proc = inf if spc <= 0 else (samples / spc) * period
                if proc != inf and now + proc <= job.deadline:
                    return True
        return False

    def try_preempt(self, job_id: str, now: float) -> Optional[Assignment]:
        """Try to start an urgent backlog job by preempting a running one.

        Evaluates the configured preemption rule for every (tenant,
        executor) pair currently running a job the arrival could replace
        (see :meth:`_best_victim` for the pairs the shipped rule skips),
        preempts the highest-scoring victim, and assigns the arrival there.
        Returns the assignment (with ``preempted_job_id`` set), or ``None``
        when preemption is disabled or no victim qualifies.
        """
        if self.preemption_rule is None:
            return None
        if job_id not in self._backlog:
            return None
        job = self.jobs[job_id]
        if job.deadline is None:
            return None
        victim = self._best_victim(job, now)
        if victim is None:
            return None
        tenant, idx = victim
        sched = self.tenants[tenant]
        preempted = sched.preempt(idx, now)
        self._place(tenant, job)
        completion = sched.assign(idx, job, now)
        return Assignment(tenant, idx, job_id, completion, preempted_job_id=preempted)

    def _best_victim(self, job: FillJob, now: float) -> Optional[Tuple[str, int]]:
        """The live ``(tenant, executor)`` whose running job the preemption
        rule scores highest, above 0, for the deadline arrival ``job``; the
        first such pair wins a tie.

        Under the shipped rule a tenant whose fastest executor for the
        arrival's class misses the deadline is skipped whole: every busy
        executor there would leave through one of the rule's zero-score
        exits.  A custom rule sees every busy executor.
        """
        best: Optional[Tuple[float, str, int]] = None
        # The shipped deadline rule rejects almost every (arrival, victim)
        # pair on arithmetic over numbers already at hand; inlining those
        # zero-score exits (identical expressions, identical order) skips
        # the RunningJobView construction and the rule call for them.  The
        # arrival's times come off the class table with
        # ``processing_times``' expression; only a custom rule gets a view.
        fast_rule = self.preemption_rule is deadline_preemption_rule
        samples = self._backlog_samples(job)
        inf = float("inf")
        for tenant, sched in self.tenants.items():
            if tenant in self.departed:
                continue  # a leaving tenant takes no new work
            cid = sched.ensure_class(job.model_name, job.job_type)
            if fast_rule and now + sched.fastest_time(cid, samples) > job.deadline:
                # now + wait + proc >= now + proc >= now + fastest: no
                # busy executor here passes the second exit below.
                continue
            state_view = None if fast_rule else sched.scheduler_view(now)
            view = None if fast_rule else self._backlog_view(tenant, job)
            row = sched.class_row(cid)
            for idx, ex_state in sched.executors.items():
                if not ex_state.is_busy:
                    continue
                spc, period = row[idx]
                proc_here = inf if spc <= 0 else (samples / spc) * period
                if proc_here == inf:
                    continue
                if fast_rule:
                    wait = max(0.0, ex_state.busy_until - now)
                    if now + wait + proc_here <= job.deadline:
                        continue  # waiting out the segment still meets it
                    if now + proc_here > job.deadline:
                        continue  # preempting would not save it either
                    victim = sched.records[ex_state.current_job_id]
                    victim_deadline = victim.job.deadline
                    if victim_deadline is not None:
                        victim_slack = victim_deadline - now - wait
                        arrival_slack = job.deadline - now - proc_here
                        if victim_slack - proc_here <= max(arrival_slack, 0.0):
                            continue
                    assert victim.start_time is not None
                    total = ex_state.busy_until - victim.start_time
                    progress = (
                        1.0
                        if total <= 0
                        else min(1.0, max(0.0, (now - victim.start_time) / total))
                    )
                    score = wait * (1.0 - progress) + _POLICY_EPS
                else:
                    victim = sched.records[ex_state.current_job_id]
                    assert victim.start_time is not None
                    running_view = RunningJobView(
                        job_id=victim.job.job_id,
                        start_time=victim.start_time,
                        scheduled_end=ex_state.busy_until,
                        executor_index=idx,
                        deadline=victim.job.deadline,
                    )
                    score = self.preemption_rule(view, running_view, state_view)
                if score > 0 and (best is None or score > best[0]):
                    best = (score, tenant, idx)
        return None if best is None else best[1:]

    # -- cluster dynamics (failures, elastic tenants) ------------------------------

    def fail_executor(self, tenant: str, executor_index: int, now: float) -> Optional[str]:
        """One tenant device fails: requeue its running job, stop routing there.

        The interrupted job keeps its affinity (its banked progress lives
        in the tenant's records) and resumes on another of the tenant's
        devices -- or on this one after :meth:`recover_executor`.  On a
        tenant that already left (a fault racing a drain), the job is
        instead evicted to the global backlog: nothing dispatches to a
        departed tenant's local queue anymore.  Returns the interrupted
        job's id, if any.
        """
        self._failed.fail((tenant, executor_index))
        job_id = self.tenants[tenant].on_executor_lost(executor_index, now)
        if tenant in self.departed:
            self._evict_queued_jobs(tenant)
        return job_id

    def recover_executor(self, tenant: str, executor_index: int) -> None:
        """One fault on a tenant device clears; the device may come back.

        With overlapping fault windows the device re-enters dispatch
        rotation only when its *last* outstanding fault recovers, and even
        then only if its tenant is present: a tenant that left stays down
        for good, and one that has not joined yet comes up as a whole at
        :meth:`activate_tenant`.
        """
        if not self._failed.recover((tenant, executor_index)):
            return  # an earlier, longer fault still holds the device down
        if tenant in self.departed or tenant in self.inactive:
            return
        self.tenants[tenant].on_executor_recovered(executor_index)

    def suspend_tenant(self, tenant: str) -> None:
        """Mark a tenant's devices as absent until :meth:`activate_tenant`.

        Used for tenants whose ``join_at`` lies in the future; no fill
        work is routed to them and fault recoveries on them stay down.
        """
        sched = self.tenants[tenant]
        self.inactive.add(tenant)
        for idx, state in sched.executors.items():
            if not state.is_down:
                sched.set_down(idx)

    def activate_tenant(self, tenant: str) -> None:
        """Bring a (late-joining) tenant's devices into rotation.

        Devices that failed *before* the join (and have not recovered)
        stay down until their :meth:`recover_executor` fires.
        """
        sched = self.tenants[tenant]
        self.inactive.discard(tenant)
        for idx in sched.executors:
            if not self._failed.is_held((tenant, idx)):
                sched.on_executor_recovered(idx)

    def deactivate_tenant(self, tenant: str, now: float, *, requeue: bool = False) -> List[str]:
        """The tenant leaves the cluster at ``now``; returns evicted job ids.

        Two leave modes:

        * **drain** (``requeue=False``): running jobs finish normally and
          each device goes down as it frees up; nothing new is routed to
          the tenant.
        * **requeue** (``requeue=True``): running jobs are interrupted with
          their partial progress banked
          (:meth:`~repro.core.scheduler.FillJobScheduler.on_executor_lost`)
          and every device goes down immediately.

        In both modes the tenant's *queued* jobs (preemption/failure
        leftovers plus the just-interrupted ones) are evicted back to the
        global backlog, carrying their banked progress, so they can resume
        on the remaining tenants instead of stranding.  Completed and
        rejected records stay with the tenant for accounting.
        """
        sched = self.tenants[tenant]
        self.departed.add(tenant)
        # No work is ever routed to a departed tenant again; its backlog
        # candidate index is dead weight from here on.
        self._backlog_indexes.pop(tenant, None)
        for idx, state in sched.executors.items():
            if state.is_busy:
                if requeue:
                    sched.on_executor_lost(idx, now)
                # drain: the job finishes; complete() takes the device down.
            elif not state.is_down:
                sched.set_down(idx)
        return self._evict_queued_jobs(tenant)

    def _evict_queued_jobs(self, tenant: str) -> List[str]:
        """Move every locally-queued job of a tenant back to the backlog.

        Records (with banked progress) park in ``_evicted`` until the job
        is placed again; :meth:`_place` restores them.
        """
        sched = self.tenants[tenant]
        evicted: List[str] = []
        for job in list(sched.queued_jobs()):
            record = sched.evict_queued(job.job_id)
            self._evicted[job.job_id] = record
            self.placements.pop(job.job_id, None)
            self._backlog.append(job.job_id)
            self._index_add(job)
            evicted.append(job.job_id)
        return evicted

    # -- completion -------------------------------------------------------------

    def complete(self, tenant: str, executor_index: int, now: float) -> Optional[str]:
        """Mark the tenant executor's running job as finished.

        On a departed (draining) tenant the freed device immediately goes
        down instead of re-entering dispatch rotation.
        """
        job_id = self.tenants[tenant].complete(executor_index, now)
        if tenant in self.departed:
            self.tenants[tenant].set_down(executor_index)
        return job_id

    # -- accounting -------------------------------------------------------------

    def job_states(self) -> Dict[str, FillJobState]:
        """The current lifecycle state of every submitted job.

        Backlog jobs report ``QUEUED``; globally-rejected jobs report
        ``REJECTED``; everything else reports its tenant record's state.
        Useful for conservation checks: the returned mapping always has
        exactly one entry per submitted job.
        """
        states: Dict[str, FillJobState] = {}
        for jid in self._backlog:
            states[jid] = FillJobState.QUEUED
        for jid in self.rejected:
            states[jid] = FillJobState.REJECTED
        for tenant, sched in self.tenants.items():
            for jid, record in sched.records.items():
                if jid in states:
                    raise RuntimeError(
                        f"job {jid!r} double-booked (tenant {tenant!r} and elsewhere)"
                    )
                states[jid] = record.state
        return states

    def evicted_records(self) -> List[JobRecord]:
        """Parked records of evicted jobs not re-placed yet.

        These carry banked progress that belongs to no tenant's records
        anymore (their tenant departed); result collection must account
        for it so work physically executed before the eviction is not
        lost from aggregate metrics.
        """
        return list(self._evicted.values())

    def migrated_progress(self) -> Tuple[float, float, float]:
        """``(flops, samples, busy_seconds)`` imported by migrated jobs.

        Sums the ``*_imported`` markers over every live tenant record:
        progress that was banked on a since-departed tenant's devices by
        jobs later re-placed elsewhere.  Per-tenant metrics exclude those
        shares (the new host's devices never supplied them), so result
        collection adds this exactly once to the aggregate.  Progress
        still parked in ``_evicted`` is *not* included -- those records
        are accounted through :meth:`evicted_records`.
        """
        flops = samples = busy = 0.0
        for sched in self.tenants.values():
            for record in sched.records.values():
                flops += record.flops_imported
                samples += record.samples_imported
                busy += record.busy_imported_seconds
        return flops, samples, busy
