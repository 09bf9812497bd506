"""The brute-force reference the differential oracles compare the fast path with.

:func:`reference_estimate` is the exhaustive configuration search and
:func:`best_scored` the pre-index dispatch sweep.  The classes subclass
their fast-path counterparts and override only the methods that memoise,
index or prune, with the slow, obvious computation built on those two
functions.  The deadline checks are the reference's own too: the
arrival-time check prices the arrival through its job view, and the
preemption search asks the configured rule about every candidate victim,
where the fast path reads the class timing table and its preemption
search skips a tenant whose fastest executor misses the deadline and
inlines the shipped rule's arithmetic.  Job lifecycle, faults and
tenant churn are inherited unchanged.  The base classes still maintain
their candidate indexes, but nothing here reads an index or a memo.  A
reference run costs what the simulator cost before those optimisations,
and its result digest must equal the fast path's
(:func:`repro.verify.oracles.check_cache_oracle`)::

    ReferenceExperiment.from_yaml("scenarios/smoke.yaml").run()
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api.experiment import Experiment
from repro.core.executor import FillExecutionEstimate, FillJobExecutor
from repro.core.global_scheduler import Assignment, GlobalScheduler
from repro.core.plan import PlanError, plan_fill_job
from repro.core.policies import (
    JobView,
    RunningJobView,
    SchedulerView,
    SchedulingPolicy,
    nan_score_error,
)
from repro.core.scheduler import FillJob, FillJobScheduler
from repro.models.base import ModelSpec
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.profiles import ModelProfile, profile_model
from repro.sim.multi_tenant import MultiTenantSimulator
from repro.sim.scenario import ScenarioSpec, build_tenants


def reference_estimate(
    executor: FillJobExecutor,
    model: ModelSpec,
    job_type: JobType,
    configs: Optional[Sequence[ExecutionConfig]] = None,
) -> Optional[FillExecutionEstimate]:
    """The exhaustive search that ``executor.build_estimate`` must agree with.

    Profiles every configuration in ``configs`` (default: the job type's
    candidates) from scratch, plans each one that fits in the bubbles'
    usable memory with the scalar planner, in order, and keeps the first
    with the strictly highest effective samples/s.  The isolated
    throughput is the maximum over the candidates that fit the whole
    device, profiled from scratch too.  Nothing is cached.
    """

    def fresh(exec_config: ExecutionConfig) -> ModelProfile:
        return profile_model(model, job_type, exec_config, executor.device, executor.efficiency)

    candidates = [fresh(c) for c in candidate_configs(job_type)]
    fitting = [p for p in candidates if p.fits_memory(executor.device.usable_memory_bytes)]
    isolated = max((p.throughput_samples_per_s for p in fitting), default=0.0)
    profiles = candidates if configs is None else [fresh(c) for c in configs]
    usable_memory = executor.usable_memory_bytes
    best: Optional[FillExecutionEstimate] = None
    for profile in profiles:
        if profile.device_footprint_bytes > usable_memory:
            continue
        try:
            plan = plan_fill_job(profile.graph, executor.cycle, executor.config)
        except PlanError:
            continue
        estimate = executor._estimate_from_plan(model, job_type, profile, isolated, plan)
        if (
            best is None
            or estimate.effective_samples_per_second > best.effective_samples_per_second
        ):
            best = estimate
    return best


def best_scored(
    policy: SchedulingPolicy,
    jobs: Iterable[FillJob],
    view_of: Callable[[FillJob], JobView],
    state: SchedulerView,
    executor_index: int,
) -> Tuple[Optional[FillJob], float]:
    """The pre-index dispatch sweep over ``jobs`` for one executor.

    Skips jobs the executor cannot run, scores the rest with ``policy``
    and keeps the first strictly-greater score, so ties go to the job
    earliest in ``jobs``.  Returns ``(None, -inf)`` when nothing scores
    above ``-inf``; raises ``ValueError`` on a NaN score.
    """
    best_job: Optional[FillJob] = None
    best_score = -float("inf")
    for job in jobs:
        view = view_of(job)
        if view.proc_times.get(executor_index, float("inf")) == float("inf"):
            continue
        score = policy(view, state, executor_index)
        if score != score:
            raise nan_score_error(policy, job.job_id)
        if score > best_score:
            best_score = score
            best_job = job
    return best_job, best_score


class ReferenceScheduler(FillJobScheduler):
    """A :class:`~repro.core.scheduler.FillJobScheduler` that caches nothing.

    Estimates come from :func:`reference_estimate`, memoised per
    (executor, model name, job type) in this scheduler only, so a keying
    bug in the shared estimate caches cannot leak into the reference.
    Processing times are priced per executor from those estimates, not
    from the class table, and selection re-scores the whole queue with
    :func:`best_scored`.
    """

    def __init__(self, executors: Mapping[int, FillJobExecutor], **kwargs: Any) -> None:
        super().__init__(executors, **kwargs)
        self._private_estimates: Dict[tuple, Optional[FillExecutionEstimate]] = {}

    def _estimate(
        self, executor_index: int, model: ModelSpec, job_type: JobType
    ) -> Optional[FillExecutionEstimate]:
        key = (executor_index, model.name, job_type)
        if key not in self._private_estimates:
            executor = self.executors[executor_index].executor
            self._private_estimates[key] = reference_estimate(executor, model, job_type)
        return self._private_estimates[key]

    def fits_any(self, job: FillJob) -> bool:
        model = self.model_resolver(job.model_name)
        for idx in self._executor_order:
            estimate = self._estimate(idx, model, job.job_type)
            if estimate is not None and estimate.samples_per_cycle > 0:
                return True
        return False

    def processing_times(
        self, job: FillJob, *, num_samples: Optional[float] = None
    ) -> Dict[int, float]:
        samples = job.num_samples if num_samples is None else num_samples
        times: Dict[int, float] = {}
        for idx in self.executors:
            estimate = self.estimate_for(job, idx)
            times[idx] = (
                float("inf") if estimate is None else estimate.processing_time(samples)
            )
        return times

    def scheduler_view(self, now: float) -> SchedulerView:
        return SchedulerView(
            now=now,
            rem_times={idx: st.remaining_time(now) for idx, st in self.executors.items()},
        )

    def select_job_scored(
        self, executor_index: int, now: float
    ) -> Tuple[Optional[FillJob], float]:
        return best_scored(
            self.policy,
            self.queued_jobs(now),
            self.job_view,
            self.scheduler_view(now),
            executor_index,
        )


class ReferenceGlobalScheduler(GlobalScheduler):
    """A :class:`~repro.core.global_scheduler.GlobalScheduler` that caches nothing.

    Selection re-scores the whole backlog with :func:`best_scored`,
    :meth:`dispatch_idle` visits every available executor on every pass
    until a pass assigns nothing, the arrival-time deadline check prices
    the arrival through its backlog view on every idle executor, and the
    preemption search calls the rule for every candidate victim.
    """

    def _best_backlog_job(
        self, tenant: str, executor_index: int, now: float
    ) -> Tuple[Optional[FillJob], float]:
        return best_scored(
            self.policy,
            self.backlog_jobs(now),
            partial(self._backlog_view, tenant),
            self.tenants[tenant].scheduler_view(now),
            executor_index,
        )

    def dispatch_idle(self, now: float) -> List[Assignment]:
        assignments: List[Assignment] = []
        progress = True
        while progress:
            progress = False
            for tenant, sched in self.tenants.items():
                for idx in [i for i, s in sched.executors.items() if s.is_available]:
                    assignment = self.dispatch(tenant, idx, now)
                    if assignment is not None:
                        assignments.append(assignment)
                        progress = True
        return assignments

    def idle_can_meet_deadline(self, job_id: str, now: float) -> bool:
        """The arrival-time check priced through the backlog view: some
        available executor finishes the job by its deadline."""
        job = self.jobs[job_id]
        if job.deadline is None:
            return True
        for tenant, sched in self.tenants.items():
            idle = [idx for idx, state in sched.executors.items() if state.is_available]
            if not idle:
                continue
            times = self._backlog_view(tenant, job).proc_times
            for idx in idle:
                proc = times.get(idx, float("inf"))
                if proc != float("inf") and now + proc <= job.deadline:
                    return True
        return False

    def _best_victim(self, job: FillJob, now: float) -> Optional[Tuple[str, int]]:
        """The victim search with no inlined rule.

        Builds the :class:`~repro.core.policies.RunningJobView` of every
        busy executor of every live tenant that can run the arrival, scores
        it with ``preemption_rule``, and keeps the first strictly highest
        positive score.
        """
        best: Optional[Tuple[float, str, int]] = None
        for tenant, sched in self.tenants.items():
            if tenant in self.departed:
                continue
            view = self._backlog_view(tenant, job)
            state = sched.scheduler_view(now)
            for idx, ex_state in sched.executors.items():
                if not ex_state.is_busy:
                    continue
                if view.proc_times.get(idx, float("inf")) == float("inf"):
                    continue
                victim = sched.records[ex_state.current_job_id]
                assert victim.start_time is not None
                running = RunningJobView(
                    job_id=victim.job.job_id,
                    start_time=victim.start_time,
                    scheduled_end=ex_state.busy_until,
                    executor_index=idx,
                    deadline=victim.job.deadline,
                )
                score = self.preemption_rule(view, running, state)
                if score > 0 and (best is None or score > best[0]):
                    best = (score, tenant, idx)
        return None if best is None else best[1:]


class ReferenceSimulator(MultiTenantSimulator):
    """A :class:`~repro.sim.multi_tenant.MultiTenantSimulator` on the reference schedulers."""

    def _build_global_scheduler(self) -> GlobalScheduler:
        schedulers = {
            name: ReferenceScheduler(tenant.system.executors, policy=self.policy)
            for name, tenant in self.tenants.items()
        }
        return ReferenceGlobalScheduler(
            schedulers, policy=self.policy, preemption_rule=self.preemption_rule
        )


class ReferenceExperiment(Experiment):
    """An :class:`~repro.api.Experiment` whose runs use :class:`ReferenceSimulator`.

    ``run``, ``iter_events`` and ``profile`` take the reference path, and
    the ``with_*`` builders fork reference experiments.  ``sweep`` points
    run as plain experiments, on the fast path.
    """

    @staticmethod
    def _build_simulator(spec: ScenarioSpec) -> MultiTenantSimulator:
        return ReferenceSimulator(
            build_tenants(spec), policy=spec.policy, preemption_rule=spec.preemption
        )
