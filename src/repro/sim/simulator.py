"""Event-driven cluster simulator.

Simulates PipeFill over a cluster running one pipeline-parallel main job:
every simulated device exposes its repeating bubble cycle through a
:class:`~repro.core.executor.FillJobExecutor`, the
:class:`~repro.core.scheduler.FillJobScheduler` assigns arriving fill jobs
to free devices, and the simulator advances time between the events where
system state changes (Section 5.1: job arrivals and completions; beyond
the paper, executor failures and recoveries).

The event loop itself lives in :class:`~repro.sim.kernel.SimKernel`;
``ClusterSimulator`` is a thin configuration of the kernel -- it registers
one handler per :class:`~repro.sim.events.EventKind` it uses and collects
metrics when the kernel returns.

Simulating every one of 8K+ GPUs individually would be wasteful because all
data-parallel replicas are statistically identical; the simulator therefore
works on a *representative* set of devices (by default one device per
pipeline stage) and reports per-GPU averages, which extrapolate directly to
the full cluster.

For clusters running several concurrent main jobs over one shared fill-job
backlog, see :class:`~repro.sim.multi_tenant.MultiTenantSimulator`, which
configures the same kernel across tenants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.executor import FillJobExecutor
from repro.core.policies import SchedulingPolicy, sjf_policy
from repro.core.scheduler import FillJob, FillJobScheduler
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.kernel import FaultSpec, OpenLoopArrivals, SimKernel, schedule_faults
from repro.sim.metrics import FillJobMetrics, collect_fill_metrics
from repro.utils.faults import FaultTracker


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulator run.

    ``events_processed`` counts the discrete events the run consumed
    (including stale completions that were skipped); benchmarks divide it
    by wall-clock time to report events/sec.  ``events_by_kind`` breaks
    the same count down per :class:`~repro.sim.events.EventKind` value, so
    arrival/completion work is distinguishable from fault/churn work.
    """

    horizon_seconds: float
    num_devices: int
    fill_metrics: FillJobMetrics
    scheduler: FillJobScheduler = field(repr=False, hash=False, compare=False)
    events_processed: int = 0
    events_by_kind: Mapping[str, int] = field(default_factory=dict)
    #: Wall-clock seconds spent in handlers, per event kind (see
    #: ``SimKernel``).  Excluded from ``to_dict()`` by default so result
    #: digests and equivalence checks stay timing-independent.
    timings_by_kind: Mapping[str, float] = field(default_factory=dict, compare=False)

    @property
    def fill_tflops_per_device(self) -> float:
        """Recovered fill-job TFLOP/s per simulated device over the horizon."""
        return (
            self.fill_metrics.total_flops
            / self.horizon_seconds
            / self.num_devices
            / 1e12
        )

    @property
    def bubble_busy_fraction(self) -> float:
        """Fraction of device-time spent with a fill job assigned."""
        return self.fill_metrics.busy_device_seconds / (
            self.horizon_seconds * self.num_devices
        )

    def to_dict(self, *, include_timings: bool = False) -> dict:
        """JSON-serialisable summary (mirrors ``MultiTenantResult.to_dict``).

        ``include_timings`` adds the wall-clock ``timings_by_kind`` block;
        it defaults off because the default payload must stay a pure
        function of the simulation outcome (digests compare it across
        cache modes and PRs).
        """
        from repro.sim.metrics import fill_metrics_dict

        metrics = fill_metrics_dict(self.fill_metrics)
        payload = {
            "horizon_seconds": self.horizon_seconds,
            "num_devices": self.num_devices,
            "fill_tflops_per_device": self.fill_tflops_per_device,
            "bubble_busy_fraction": self.bubble_busy_fraction,
            "events_processed": self.events_processed,
            "events_by_kind": dict(self.events_by_kind),
            "fill_metrics": metrics,
        }
        if include_timings:
            payload["timings_by_kind"] = {
                kind: round(seconds, 6) for kind, seconds in self.timings_by_kind.items()
            }
        return payload


class ClusterSimulator:
    """Drives fill-job arrivals/completions over a set of device executors.

    Parameters
    ----------
    executors:
        Executors of the representative devices, keyed by executor index.
    policy:
        Fill-job scheduling policy.
    """

    def __init__(
        self,
        executors: Mapping[int, FillJobExecutor],
        *,
        policy: SchedulingPolicy = sjf_policy,
        use_cache: bool = True,
    ) -> None:
        if not executors:
            raise ValueError("the simulator needs at least one executor")
        self.executors = dict(executors)
        self.policy = policy
        self.use_cache = use_cache

    # -- helpers -----------------------------------------------------------------

    def _dispatch_all_idle(
        self, scheduler: FillJobScheduler, queue: EventQueue, now: float
    ) -> None:
        """Assign queued jobs to every idle executor until none can be filled.

        Only currently-available executors are visited, and an executor
        that finds no runnable job is skipped for the rest of the sweep:
        jobs only leave the queue during a sweep, so a workless executor
        stays workless until the next event.  Neither pruning changes
        which assignments are made.
        """
        use_fast_path = self.use_cache
        exhausted: set = set()
        progress = True
        while progress:
            progress = False
            if use_fast_path and not scheduler.has_queued_jobs():
                break
            indices = (
                scheduler.idle_executor_indices()
                if use_fast_path
                else [i for i, s in scheduler.executors.items() if s.is_available]
            )
            for idx in indices:
                if idx in exhausted:
                    continue
                completion = scheduler.dispatch(idx, now)
                if completion is not None:
                    queue.push(
                        completion,
                        EventKind.JOB_COMPLETION,
                        job_id=scheduler.executors[idx].current_job_id,
                        executor_index=idx,
                    )
                    progress = True
                elif use_fast_path:
                    exhausted.add(idx)

    # -- main entry point -----------------------------------------------------------

    def run(
        self,
        jobs: Iterable[FillJob] = (),
        *,
        arrival_process: Optional[Iterable[FillJob]] = None,
        faults: Sequence[FaultSpec] = (),
        horizon_seconds: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate the given fill-job trace.

        Parameters
        ----------
        jobs:
            Fill jobs with arrival times (need not be sorted).
        arrival_process:
            Optional open-loop arrival stream (e.g. a
            :class:`~repro.workloads.generator.ArrivalProcess`): jobs are
            pulled lazily, one arrival event ahead, instead of
            materializing the whole trace up front.  An unbounded stream
            requires ``horizon_seconds``.
        faults:
            Scheduled executor failures/recoveries (``tenant`` fields are
            ignored in single-tenant runs).
        horizon_seconds:
            Stop the clock here; jobs still running contribute their
            pro-rated FLOPs.  Defaults to the time the last job completes.
        """
        job_list: List[FillJob] = sorted(jobs, key=lambda j: j.arrival_time)
        scheduler = FillJobScheduler(
            self.executors, policy=self.policy, use_cache=self.use_cache
        )
        kernel = SimKernel()
        queue = kernel.queue
        for job in job_list:
            kernel.schedule(job.arrival_time, EventKind.JOB_ARRIVAL, job_id=job.job_id)
        jobs_by_id: Dict[str, FillJob] = {job.job_id: job for job in job_list}

        # Open-loop source: the driver keeps exactly one pending arrival
        # in the queue and pulls the next job as each one is handled.
        open_loop = OpenLoopArrivals(kernel, jobs_by_id)
        if arrival_process is not None:
            if horizon_seconds is None:
                raise ValueError(
                    "an open-loop arrival process needs horizon_seconds "
                    "(the stream may be unbounded)"
                )
            open_loop.add_stream("arrivals", arrival_process)

        # Single-tenant runs ignore FaultSpec.tenant tags.
        schedule_faults(
            kernel,
            [replace(f, tenant=None) for f in faults],
            {None: frozenset(self.executors)},
        )

        def on_arrival(event: Event) -> None:
            assert event.job_id is not None
            scheduler.submit(jobs_by_id[event.job_id])
            open_loop.on_arrival(event.job_id)
            self._dispatch_all_idle(scheduler, queue, kernel.now)

        def on_completion(event: Event) -> None:
            assert event.executor_index is not None
            state = scheduler.executors[event.executor_index]
            # The executor may have been re-targeted since this event was
            # scheduled (the job was preempted/re-dispatched, or the device
            # failed), in which case the event is stale and must be ignored.
            if kernel.is_stale_completion(state.current_job_id, state.busy_until, event):
                return
            scheduler.complete(event.executor_index, kernel.now)
            kernel.note_completion()
            self._dispatch_all_idle(scheduler, queue, kernel.now)

        # Overlapping fault windows ref-count: a device comes back only
        # when its last outstanding fault recovers (a permanent fault
        # never releases, holding it down for good).
        fault_holds = FaultTracker()

        def on_failure(event: Event) -> None:
            assert event.executor_index is not None
            fault_holds.fail(event.executor_index)
            scheduler.on_executor_lost(event.executor_index, kernel.now)
            # The requeued job (if any) may immediately resume elsewhere.
            self._dispatch_all_idle(scheduler, queue, kernel.now)

        def on_recovery(event: Event) -> None:
            assert event.executor_index is not None
            if not fault_holds.recover(event.executor_index):
                return
            scheduler.on_executor_recovered(event.executor_index)
            self._dispatch_all_idle(scheduler, queue, kernel.now)

        kernel.on(EventKind.JOB_ARRIVAL, on_arrival)
        kernel.on(EventKind.JOB_COMPLETION, on_completion)
        kernel.on(EventKind.EXECUTOR_FAILURE, on_failure)
        kernel.on(EventKind.EXECUTOR_RECOVERY, on_recovery)

        horizon = kernel.run(horizon_seconds)
        stats = kernel.stats()
        metrics = collect_fill_metrics(scheduler, horizon)
        return SimulationResult(
            horizon_seconds=horizon,
            num_devices=len(self.executors),
            fill_metrics=metrics,
            scheduler=scheduler,
            events_processed=stats.events_processed,
            events_by_kind=stats.events_by_kind,
            timings_by_kind=stats.timings_by_kind,
        )
