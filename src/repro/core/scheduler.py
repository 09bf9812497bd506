"""The Fill Job Scheduler.

The scheduler is one main job's side of the interface between its pipeline
bubbles and the cluster's fill jobs.  It knows every device's bubble cycle
(through that device's executor), can therefore predict any fill job's
processing time on any device, and keeps the records of the jobs running
there.  Jobs reach it only through
:class:`~repro.core.global_scheduler.GlobalScheduler`, which scores the
shared backlog against this scheduler's local queue with a user-defined
policy whenever a device becomes free (Section 4.4), then hands the winner
over with :meth:`FillJobScheduler.adopt` and :meth:`FillJobScheduler.assign`.
Running jobs can be preempted (:meth:`FillJobScheduler.preempt`) or lose
their device (:meth:`FillJobScheduler.on_executor_lost`): their partial
progress is banked and the remainder re-queued locally, which is the only
way the local queue fills.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.candidates import CandidateIndex
from repro.core.executor import FillExecutionEstimate, FillJobExecutor
from repro.core.policies import JobView, SchedulerView, SchedulingPolicy, sjf_policy
from repro.models.base import ModelSpec
from repro.models.configs import JobType
from repro.models.registry import build_model
from repro.utils.ordered import OrderedIdSet
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class FillJob:
    """A fill job submitted to the scheduler.

    Parameters
    ----------
    job_id:
        Unique identifier.
    model_name:
        Registry name of the model (``"bert-base"``).
    job_type:
        Training or batch inference.
    num_samples:
        Samples the job must process to complete.
    arrival_time:
        Submission time in seconds (simulation clock).
    deadline:
        Optional absolute deadline.
    tenant:
        Name of the submitting tenant in multi-tenant simulations (``None``
        for tenant-less backlogs, including every job of a
        :meth:`~repro.core.system.PipeFillSystem.run`).
    """

    job_id: str
    model_name: str
    job_type: JobType
    num_samples: float
    arrival_time: float = 0.0
    deadline: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self.num_samples, "num_samples")
        check_non_negative(self.arrival_time, "arrival_time")


class FillJobState(str, enum.Enum):
    """Lifecycle of a fill job inside the scheduler."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"


@dataclass
class ExecutorState:
    """The scheduler's view of one device's executor.

    ``is_down`` marks an executor whose device is currently unavailable
    (failed, or belonging to a tenant that left); down executors are never
    dispatched to, and :meth:`FillJobScheduler.on_executor_lost` requeues
    whatever was running when the device went down.
    """

    executor_index: int
    executor: FillJobExecutor
    busy_until: float = 0.0
    current_job_id: Optional[str] = None
    is_down: bool = False

    def remaining_time(self, now: float) -> float:
        """Seconds until this executor is free again."""
        return max(0.0, self.busy_until - now)

    @property
    def is_busy(self) -> bool:
        """True while a fill job is assigned."""
        return self.current_job_id is not None

    @property
    def is_available(self) -> bool:
        """True when the executor can take a new job right now."""
        return not self.is_busy and not self.is_down


@dataclass
class JobRecord:
    """Bookkeeping for a submitted job.

    ``flops_executed`` holds, while the job runs, the FLOPs scheduled for
    the *current* run segment (plus any progress banked by earlier,
    preempted segments); after completion it is the job's total executed
    FLOPs.  Preemption banks the partial progress of the interrupted
    segment into ``flops_banked`` / ``busy_banked_seconds`` and shrinks
    ``samples_remaining`` so re-dispatch only schedules the leftover work.

    The ``*_imported`` fields mark the share of the banked totals that was
    accrued on a *previous* host tenant's devices before the job migrated
    here (evicted from a departed tenant, re-placed by the global
    scheduler): the banked totals must keep it so remaining work is priced
    correctly, but per-tenant device accounting must exclude it -- this
    tenant's devices never supplied that time.
    """

    job: FillJob
    state: FillJobState = FillJobState.QUEUED
    assigned_executor: Optional[int] = None
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    flops_executed: float = 0.0
    flops_banked: float = 0.0
    busy_banked_seconds: float = 0.0
    samples_remaining: float = field(init=False, default=0.0)
    num_preemptions: int = 0
    flops_imported: float = 0.0
    busy_imported_seconds: float = 0.0
    samples_imported: float = 0.0

    def __post_init__(self) -> None:
        self.samples_remaining = self.job.num_samples

    @property
    def jct(self) -> Optional[float]:
        """Job completion time (completion minus arrival), if finished."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.job.arrival_time

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the job finished by its deadline (``None`` if undecided)."""
        if self.job.deadline is None:
            return None
        if self.completion_time is None:
            return None
        return self.completion_time <= self.job.deadline


class FillJobScheduler:
    """Policy-driven assignment of fill jobs to devices' bubble cycles.

    Parameters
    ----------
    executors:
        One :class:`~repro.core.executor.FillJobExecutor` per device (or per
        representative device group), keyed by executor index.
    policy:
        Scoring function; the queued job with the highest score is submitted
        to a freed device.  Defaults to Shortest-Job-First.
    model_resolver:
        Maps a job's ``model_name`` to a :class:`ModelSpec`; defaults to the
        package model registry.

    The scheduler prices jobs off per-class timing tables, and its
    executors share their estimate caches process-wide.
    :class:`repro.verify.reference.ReferenceScheduler` re-prices
    everything from scratch instead; the equivalence tests compare the two.
    """

    def __init__(
        self,
        executors: Mapping[int, FillJobExecutor],
        *,
        policy: SchedulingPolicy = sjf_policy,
        model_resolver: Callable[[str], ModelSpec] = build_model,
    ) -> None:
        if not executors:
            raise ValueError("the scheduler needs at least one executor")
        self.executors: Dict[int, ExecutorState] = {
            idx: ExecutorState(executor_index=idx, executor=ex)
            for idx, ex in executors.items()
        }
        self.policy = policy
        self.model_resolver = model_resolver
        self.records: Dict[str, JobRecord] = {}
        self._queue = OrderedIdSet()
        # Executor indices in declaration order (dispatch iterates them in
        # this order), and the subset currently without a running job.
        self._executor_order: List[int] = list(self.executors)
        self._order_pos: Dict[int, int] = {
            idx: pos for pos, idx in enumerate(self._executor_order)
        }
        self._idle = set(self._executor_order)
        # Class tables: jobs sharing (model_name, job_type) share estimates
        # on every executor, so feasibility and seconds-per-sample are
        # per-*class* state, computed once and kept in lists indexed by
        # class id (assigned in first-seen order).  ``_class_pairs`` keeps
        # each class's distinct feasible timing pairs (empty where the
        # class fits no executor).  ``exec_classes`` inverts the table into
        # per-executor feasible class ids, and ``_exec_arrays`` into
        # per-executor arrays over all class ids, both for the candidate
        # indexes.
        self._class_ids: Dict[tuple, int] = {}
        self._class_times: List[Dict[int, Tuple[float, float]]] = []
        self._class_pairs: List[Tuple[Tuple[float, float], ...]] = []
        self.exec_classes: Dict[int, List[int]] = {idx: [] for idx in self._executor_order}
        self._exec_arrays: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Memoised policy-facing occupancy view: rebuilt only when the
        # clock moved or any executor's busy_until changed since.
        self._state_version = 0
        self._state_view_memo: Optional[tuple] = None
        # The incremental candidate index over this scheduler's own queue
        # (preemption and failure re-queues).
        self._index = CandidateIndex(
            self,
            policy,
            view_provider=self.job_view,
            samples_provider=self._queued_samples,
            state_provider=self.scheduler_view,
        )

    # -- predictions -------------------------------------------------------------

    def _estimate(
        self, executor_index: int, model: ModelSpec, job_type: JobType
    ) -> Optional[FillExecutionEstimate]:
        """One executor's estimate of a job class."""
        return self.executors[executor_index].executor.build_estimate(model, job_type)

    def estimate_for(self, job: FillJob, executor_index: int) -> Optional[FillExecutionEstimate]:
        """The executor's estimate of running ``job`` (``None`` if it cannot)."""
        model = self.model_resolver(job.model_name)
        return self._estimate(executor_index, model, job.job_type)

    # -- job classes --------------------------------------------------------------

    def ensure_class(self, model_name: str, job_type: JobType) -> int:
        """Memoise the per-executor timing table of one job class; return its id.

        A *class* is a ``(model_name, job_type)`` pair: all its jobs share
        one estimate per executor, so feasibility and the
        ``(samples_per_cycle, cycle_period)`` timing pair are class-wide.
        Infeasible executors are marked with ``samples_per_cycle = -1``.
        Class ids count up from 0 in first-seen order.  :meth:`class_row`
        hands out one class's table.
        """
        key = (model_name, job_type)
        cid = self._class_ids.get(key)
        if cid is not None:
            return cid
        cid = len(self._class_times)
        model = self.model_resolver(model_name)
        times: Dict[int, Tuple[float, float]] = {}
        for idx in self._executor_order:
            estimate = self._estimate(idx, model, job_type)
            if estimate is None or estimate.samples_per_cycle <= 0:
                times[idx] = (-1.0, 0.0)
            else:
                times[idx] = (estimate.samples_per_cycle, estimate.cycle_period)
                self.exec_classes[idx].append(cid)
        feasible = [(spc, period) for spc, period in times.values() if spc > 0]
        self._class_ids[key] = cid
        self._class_times.append(times)
        self._class_pairs.append(tuple(sorted(set(feasible))))
        return cid

    def class_row(self, cid: int) -> Dict[int, Tuple[float, float]]:
        """The (ensured) class's ``(samples_per_cycle, cycle_period)`` per
        executor index, in declaration order (``samples_per_cycle = -1``
        where the class cannot run)."""
        return self._class_times[cid]

    def class_feasible(self, cid: int) -> bool:
        """Whether the (ensured) class fits at least one executor."""
        return bool(self._class_pairs[cid])

    def fastest_time(self, cid: int, samples: float) -> float:
        """The (ensured) class's shortest processing time for ``samples``
        on any of this scheduler's executors (``inf`` where it fits none).

        Bit-identical to ``min(processing_times(job,
        num_samples=samples).values())``: the minimum runs
        ``processing_times``' expression over the class's distinct
        feasible timing pairs, and duplicate pairs price alike.
        """
        return min(
            [(samples / spc) * period for spc, period in self._class_pairs[cid]],
            default=float("inf"),
        )

    def exec_class_arrays(self, executor_index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(feasible, samples_per_cycle, cycle_period)`` of one executor, indexed by class id.

        Class tables never change for the scheduler's lifetime (executor
        cycles are fixed; down states do not alter predicted times), so the
        arrays are rebuilt only when a new class appears.
        """
        arrays = self._exec_arrays.get(executor_index)
        if arrays is None or arrays[0].size != len(self._class_times):
            spc = np.array(
                [times[executor_index][0] for times in self._class_times], dtype=np.float64
            )
            period = np.array(
                [times[executor_index][1] for times in self._class_times], dtype=np.float64
            )
            arrays = (spc > 0, spc, period)
            self._exec_arrays[executor_index] = arrays
        return arrays

    def fits_any(self, job: FillJob) -> bool:
        """Whether at least one executor can ever run the job (one class-table lookup)."""
        return bool(self._class_pairs[self.ensure_class(job.model_name, job.job_type)])

    def processing_times(
        self, job: FillJob, *, num_samples: Optional[float] = None
    ) -> Dict[int, float]:
        """Predicted processing time of ``job`` on every executor.

        ``num_samples`` overrides the sample count (used to price the
        *remaining* work of a previously-preempted job).
        """
        samples = job.num_samples if num_samples is None else num_samples
        # Same arithmetic as FillExecutionEstimate.processing_time, sourced
        # from the class table instead of per-job estimate lookups
        # (bit-identical; the equivalence tests prove it).
        cid = self.ensure_class(job.model_name, job.job_type)
        if not samples > 0 and self._class_pairs[cid]:
            check_positive(samples, "num_samples")
        return {
            idx: float("inf") if spc <= 0 else (samples / spc) * period
            for idx, (spc, period) in self._class_times[cid].items()
        }

    # -- assignment ---------------------------------------------------------------

    def job_view(self, job: FillJob) -> JobView:
        """The policy-facing view of a queued job, priced for the samples
        it has left (banked progress is never re-run)."""
        return JobView(
            job_id=job.job_id,
            arrival_time=job.arrival_time,
            proc_times=self.processing_times(job, num_samples=self._queued_samples(job)),
            deadline=job.deadline,
        )

    def _queued_samples(self, job: FillJob) -> float:
        """Samples a dispatch of the queued job would actually run."""
        record = self.records.get(job.job_id)
        return job.num_samples if record is None else record.samples_remaining

    def scheduler_view(self, now: float) -> SchedulerView:
        """The policy-facing view of current executor occupancy.

        The view is memoised until the clock moves or any executor's
        ``busy_until`` changes (assignment, completion, preemption): within
        one dispatch sweep the same view serves every executor between
        assignments.
        """
        memo = self._state_view_memo
        if memo is not None and memo[0] == now and memo[1] == self._state_version:
            return memo[2]
        view = SchedulerView(
            now=now,
            rem_times={idx: st.remaining_time(now) for idx, st in self.executors.items()},
        )
        self._state_view_memo = (now, self._state_version, view)
        return view

    def queued_jobs(self, now: Optional[float] = None) -> List[FillJob]:
        """Jobs currently waiting for a device (arrived by ``now`` if given)."""
        jobs = [self.records[jid].job for jid in self._queue]
        if now is not None:
            jobs = [j for j in jobs if j.arrival_time <= now]
        return jobs

    def has_queued_jobs(self) -> bool:
        """Whether any job is waiting (regardless of arrival time)."""
        return bool(self._queue)

    def idle_executor_indices(self) -> List[int]:
        """Indices of available (not busy, not down) executors, in declaration order."""
        order = self._executor_order
        idle = self._idle
        if len(idle) == len(order):
            return order
        if len(idle) * 8 <= len(order):
            # A mostly-busy cluster (the steady state of every saturated
            # scenario): sorting the few idle indices by declaration
            # position beats walking the full executor order.
            pos = self._order_pos
            return sorted(idle, key=pos.__getitem__)
        return [idx for idx in order if idx in idle]

    # -- availability (failures, elastic tenants) ---------------------------------

    def set_down(self, executor_index: int) -> None:
        """Mark an idle executor's device as unavailable.

        Callers that may interrupt a *running* job use
        :meth:`on_executor_lost` instead, which banks the job's progress
        first.
        """
        state = self.executors[executor_index]
        state.is_down = True
        self._idle.discard(executor_index)

    def on_executor_recovered(self, executor_index: int) -> None:
        """Bring a down executor's device back into dispatch rotation."""
        state = self.executors[executor_index]
        if not state.is_down:
            return
        state.is_down = False
        if not state.is_busy:
            self._idle.add(executor_index)

    def on_executor_lost(self, executor_index: int, now: float) -> Optional[str]:
        """Handle the executor's device failing (or being withdrawn) at ``now``.

        The running fill job, if any, is interrupted exactly like a
        preemption: its partial progress (FLOPs, samples, busy time,
        pro-rated by elapsed wall-clock) is banked on its record and its
        remainder re-queued, so a later dispatch resumes it on a healthy
        device instead of restarting from scratch.  The executor is then
        marked down until :meth:`on_executor_recovered`.  Returns the
        interrupted job's id (``None`` if the device was idle).  Any
        completion event still scheduled for the lost job becomes stale
        (the executor no longer carries it) and is skipped by the kernel's
        stale-completion guard.
        """
        state = self.executors[executor_index]
        if state.is_down:
            return None
        job_id = self.preempt(executor_index, now) if state.is_busy else None
        self.set_down(executor_index)
        return job_id

    def evict_queued(self, job_id: str) -> JobRecord:
        """Remove a queued job from this scheduler and return its record.

        Used when this scheduler's tenant leaves the cluster: the record
        (with any banked partial progress) travels back to the global
        backlog so the job can resume on another tenant.  After eviction
        this scheduler holds no trace of the job.
        """
        record = self.records[job_id]
        if record.state is not FillJobState.QUEUED:
            raise RuntimeError(
                f"only queued jobs can be evicted; {job_id!r} is {record.state}"
            )
        self._queue.remove(job_id)
        self._index.remove(job_id)
        del self.records[job_id]
        return record

    def adopt(self, job: FillJob, carried: Optional[JobRecord] = None) -> JobRecord:
        """Take over a job that a higher-level scheduler placed here to run now.

        The global scheduler calls this with a backlog job it has just
        matched to one of this scheduler's executors, and assigns it in the
        same call.  The job skips the feasibility check (the placement
        picked a feasible executor) and the candidate index (it leaves the
        queue at :meth:`assign`, before any dispatch could select it).
        ``carried`` is the parked record of a job evicted
        from a departed tenant: its remaining work and banked totals replace
        the fresh record's, so the job resumes with only its leftover samples.
        """
        if job.job_id in self.records:
            raise ValueError(f"job id {job.job_id!r} already submitted")
        record = JobRecord(job=job)
        self.records[job.job_id] = record
        if carried is not None:
            record.samples_remaining = carried.samples_remaining
            record.flops_banked = carried.flops_banked
            record.flops_executed = carried.flops_banked
            record.busy_banked_seconds = carried.busy_banked_seconds
            record.num_preemptions = carried.num_preemptions
            # Everything banked so far happened on other tenants' devices
            # (including anything the carried record itself imported); mark
            # it so this tenant's metrics attribute only locally-supplied time.
            record.flops_imported = carried.flops_banked
            record.busy_imported_seconds = carried.busy_banked_seconds
            record.samples_imported = carried.job.num_samples - carried.samples_remaining
        self._queue.append(job.job_id)
        return record

    def select_job_scored(
        self, executor_index: int, now: float
    ) -> "tuple[Optional[FillJob], float]":
        """The best queued job for this device and its policy score.

        Returns ``(None, -inf)`` when no queued job fits the device or the
        best score is ``-inf``.  Used directly by the global scheduler,
        which compares this score against the global backlog's best.  The
        answer comes from the incremental candidate index -- a heap peek
        per feasible job class for static-score policies, otherwise one
        masked array pass over every queued job -- instead of calling the
        policy on the whole queue.
        """
        return self._index.best_for_executor(executor_index, now)

    def assign(self, executor_index: int, job: FillJob, now: float) -> float:
        """Assign ``job`` to the executor; returns the scheduled completion time."""
        ex_state = self.executors[executor_index]
        if ex_state.is_busy:
            raise RuntimeError(f"executor {executor_index} is busy")
        if ex_state.is_down:
            raise RuntimeError(f"executor {executor_index} is down")
        record = self.records[job.job_id]
        if record.state is not FillJobState.QUEUED:
            raise RuntimeError(f"job {job.job_id!r} is not queued (state {record.state})")
        estimate = self.estimate_for(job, executor_index)
        if estimate is None:
            raise RuntimeError(f"job {job.job_id!r} does not fit executor {executor_index}")
        proc_time = estimate.processing_time(record.samples_remaining)
        completion = now + proc_time
        self._queue.remove(job.job_id)
        self._index.remove(job.job_id)
        record.state = FillJobState.RUNNING
        record.assigned_executor = executor_index
        record.start_time = now
        record.flops_executed = record.flops_banked + estimate.flops_for_samples(
            record.samples_remaining
        )
        ex_state.current_job_id = job.job_id
        ex_state.busy_until = completion
        self._state_version += 1
        self._idle.discard(executor_index)
        return completion

    def complete(self, executor_index: int, now: float) -> Optional[str]:
        """Mark the executor's current job as finished; returns its id."""
        ex_state = self.executors[executor_index]
        job_id = ex_state.current_job_id
        if job_id is None:
            return None
        record = self.records[job_id]
        record.state = FillJobState.COMPLETED
        record.completion_time = now
        assert record.start_time is not None
        record.flops_banked = record.flops_executed
        record.busy_banked_seconds += max(0.0, now - record.start_time)
        record.samples_remaining = 0.0
        ex_state.current_job_id = None
        ex_state.busy_until = now
        self._state_version += 1
        self._idle.add(executor_index)
        return job_id

    def preempt(self, executor_index: int, now: float) -> Optional[str]:
        """Interrupt the executor's running job and re-queue its remainder.

        The interrupted segment's partial progress (FLOPs, samples, busy
        time, pro-rated by elapsed wall-clock) is banked on the job's
        record, ``samples_remaining`` shrinks accordingly, and the job goes
        back to ``QUEUED`` in this scheduler's queue.  Returns the
        preempted job's id, or ``None`` when the executor was idle.
        """
        ex_state = self.executors[executor_index]
        job_id = ex_state.current_job_id
        if job_id is None:
            return None
        record = self.records[job_id]
        assert record.start_time is not None
        segment_duration = ex_state.busy_until - record.start_time
        elapsed = max(0.0, now - record.start_time)
        fraction = (
            1.0
            if segment_duration <= 0
            else min(1.0, elapsed / segment_duration)
        )
        if fraction >= 1.0:
            # Nothing left to preempt: the segment is due; finish it instead.
            return self.complete(executor_index, now)
        segment_flops = record.flops_executed - record.flops_banked
        record.flops_banked += fraction * segment_flops
        record.flops_executed = record.flops_banked
        record.busy_banked_seconds += elapsed
        record.samples_remaining = max(0.0, record.samples_remaining * (1.0 - fraction))
        record.state = FillJobState.QUEUED
        record.assigned_executor = None
        record.start_time = None
        record.num_preemptions += 1
        # Banked progress changed the job's remaining work; re-indexing
        # re-scores it so re-dispatch prices only the leftover samples.
        self._queue.append(job_id)
        self._index.add(record.job)
        ex_state.current_job_id = None
        ex_state.busy_until = now
        self._state_version += 1
        self._idle.add(executor_index)
        return job_id

    # -- aggregate metrics -----------------------------------------------------------

    def completed_records(self) -> List[JobRecord]:
        """Records of all completed jobs."""
        return [r for r in self.records.values() if r.state is FillJobState.COMPLETED]

    def average_jct(self) -> float:
        """Mean job completion time over completed jobs (0 when none)."""
        completed = self.completed_records()
        if not completed:
            return 0.0
        return sum(r.jct for r in completed if r.jct is not None) / len(completed)

    def makespan(self) -> float:
        """Completion time of the last finished job (0 when none)."""
        completed = self.completed_records()
        if not completed:
            return 0.0
        return max(r.completion_time for r in completed if r.completion_time is not None)
