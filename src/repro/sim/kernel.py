"""The pluggable discrete-event simulation kernel.

:class:`SimKernel` is the simulator's event loop (pop the queue, honour
the horizon, count events, dispatch on kind): it owns the clock, the
:class:`~repro.sim.events.EventQueue`, the per-kind event accounting and
the stale-completion guard; the
:class:`~repro.sim.multi_tenant.MultiTenantSimulator` is a set of
handlers registered per :class:`~repro.sim.events.EventKind`.

The kernel is deliberately policy-free: it does not know what a scheduler
or a tenant is.  Handlers close over whatever state they drive
(:class:`~repro.core.scheduler.FillJobScheduler`,
:class:`~repro.core.global_scheduler.GlobalScheduler`, ...) and may push
further events through :meth:`SimKernel.schedule` while running -- that is
how completions, executor recoveries and lazily-generated (open-loop)
arrivals enter the queue.

Dynamic cluster events (failures, elastic tenants) are configured with
:class:`FaultSpec` / the ``join_at``/``leave_at`` fields of
:class:`~repro.sim.multi_tenant.Tenant` and translated into kernel events
by the simulator; see ``docs/scenarios.md`` for the YAML surface.

The kernel also hosts the observation points the rest of the stack hangs
off: :meth:`SimKernel.set_event_observer` feeds both the streaming
:class:`~repro.sim.observers.RunObserver` API and the runtime invariant
engine (:class:`repro.verify.InvariantObserver`), which checks
simulator-wide invariants at every event boundary; see
``docs/testing.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional

from repro.sim.events import (
    STALE_COMPLETION_EPSILON,
    Event,
    EventKind,
    EventQueue,
)
from repro.utils.validation import check_non_negative

#: A kernel event handler: receives the popped event; the kernel's clock
#: (``kernel.now``) already stands at the event's time.
EventHandler = Callable[[Event], None]


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled executor failure (and optional recovery).

    Parameters
    ----------
    executor_index:
        Index of the executor that fails (within its tenant's scheduler).
    fail_at:
        Simulation time of the failure.  The job running on the executor
        at that instant is requeued with its partial progress banked
        (:meth:`~repro.core.scheduler.FillJobScheduler.on_executor_lost`).
    recover_at:
        Optional recovery time; ``None`` means the executor never comes
        back within the run.
    tenant:
        Name of the tenant whose executor fails.  The simulator rejects
        a fault naming a tenant it does not run (``None`` included).
    """

    executor_index: int
    fail_at: float
    recover_at: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        check_non_negative(self.fail_at, "fail_at")
        # ``not >`` rather than ``<=`` so a NaN recovery time is rejected too.
        if self.recover_at is not None and not self.recover_at > self.fail_at:
            raise ValueError(
                f"recover_at ({self.recover_at}) must be after fail_at ({self.fail_at})"
            )


@dataclass(frozen=True)
class KernelStats:
    """Event accounting of one kernel run.

    ``timings_by_kind`` maps each event-kind value to the wall-clock
    seconds its handlers consumed over the whole run -- the
    profiling-grade breakdown behind ``python -m repro profile`` and the
    ``timings_by_kind`` block of results.
    """

    events_processed: int
    events_by_kind: Dict[str, int] = field(default_factory=dict)
    timings_by_kind: Dict[str, float] = field(default_factory=dict)


class SimKernel:
    """Owns the clock, the event queue and handler dispatch.

    Usage::

        kernel = SimKernel()
        kernel.on(EventKind.JOB_ARRIVAL, handle_arrival)
        kernel.on(EventKind.JOB_COMPLETION, handle_completion)
        for job in jobs:
            kernel.schedule(job.arrival_time, EventKind.JOB_ARRIVAL,
                            job_id=job.job_id)
        horizon = kernel.run(horizon_seconds=3600.0)

    ``run`` pops events in ``(time, sequence)`` order, advances ``now``
    and calls the handler registered for each event's kind.  An event
    strictly beyond the horizon stops the run with ``now`` pinned to the
    horizon (the event is *not* counted as processed).  Handlers that
    apply a completion must call :meth:`note_completion` so the kernel can
    resolve an open-ended run's horizon to the last real completion.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self.last_completion = 0.0
        self.events_processed = 0
        self.events_by_kind: Dict[EventKind, int] = {}
        # Wall-clock seconds spent in handlers, accumulated per kind.  The
        # overhead is two perf_counter() reads per event (~100ns against
        # per-event handler costs in the 100us..ms range), so the
        # accumulator is always on -- every run is a profile.
        self.timings_by_kind: Dict[EventKind, float] = {}
        self._handlers: Dict[EventKind, EventHandler] = {}
        self._event_observer: Optional[EventHandler] = None

    # -- configuration -----------------------------------------------------------

    def on(self, kind: EventKind, handler: EventHandler) -> None:
        """Register the handler for one event kind (one handler per kind)."""
        if kind in self._handlers:
            raise ValueError(f"a handler for {kind.value!r} is already registered")
        self._handlers[kind] = handler

    def set_event_observer(self, observer: Optional[EventHandler]) -> None:
        """Install one passive callback fired for *every* processed event.

        The observer runs just before the event's handler (with ``now``
        already advanced to the event time) and must not mutate simulator
        state; it is how the streaming observer API
        (:mod:`repro.api.observers`) taps the run.  With no observer
        installed, :meth:`run` takes a loop with no observer branch at
        all, so the hook costs nothing unless used.
        """
        self._event_observer = observer

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self,
        time: float,
        kind: EventKind,
        *,
        job_id: Optional[str] = None,
        executor_index: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Event:
        """Push an event; handlers may call this while the kernel runs."""
        return self.queue.push(
            time,
            kind,
            job_id=job_id,
            executor_index=executor_index,
            tenant=tenant,
        )

    # -- bookkeeping hooks ---------------------------------------------------------

    def note_completion(self) -> None:
        """Record that a (non-stale) job completion was applied at ``now``."""
        self.last_completion = self.now

    @staticmethod
    def is_stale_completion(
        current_job_id: Optional[str], busy_until: float, event: Event
    ) -> bool:
        """Whether a completion event no longer matches its executor.

        The executor may have been re-targeted since the event was
        scheduled (the job was preempted and re-dispatched, or the
        executor failed and took new work after recovering), in which case
        the event must be ignored.
        """
        return (
            current_job_id != event.job_id
            or busy_until > event.time + STALE_COMPLETION_EPSILON
        )

    # -- the event loop ------------------------------------------------------------

    def run(self, horizon_seconds: Optional[float] = None) -> float:
        """Drain the queue (up to the horizon) and return the resolved horizon.

        With ``horizon_seconds`` given, the clock never advances past it
        and the returned horizon is exactly it; otherwise the run ends
        when the queue drains and the horizon resolves to the later of the
        last event time and the last applied completion (never zero, so
        rate metrics stay well-defined).
        """
        if self._event_observer is not None:
            # The observed loop pays the extra call; the plain loop below
            # stays branch-free so unobserved runs cost exactly what they
            # did before the observer API existed.
            for _ in self._iter_events(horizon_seconds):
                pass
            return self._resolve_horizon(horizon_seconds)

        timings = self.timings_by_kind
        while self.queue:
            event = self.queue.pop()
            if horizon_seconds is not None and event.time > horizon_seconds:
                self.now = horizon_seconds
                break
            self.events_processed += 1
            self.events_by_kind[event.kind] = self.events_by_kind.get(event.kind, 0) + 1
            self.now = event.time
            handler = self._handlers.get(event.kind)
            if handler is None:
                raise RuntimeError(
                    f"no handler registered for event kind {event.kind.value!r}"
                )
            start = perf_counter()
            handler(event)
            timings[event.kind] = timings.get(event.kind, 0.0) + (perf_counter() - start)

        return self._resolve_horizon(horizon_seconds)

    def iter_run(self, horizon_seconds: Optional[float] = None) -> Iterator[Event]:
        """Generator twin of :meth:`run`: yield each event after handling it.

        Powers step-wise embedding (``Experiment.iter_events``): the
        consumer sees every processed event with all of its state changes
        already applied, may inspect simulator state between events, and
        receives the resolved horizon as the generator's return value.
        """
        yield from self._iter_events(horizon_seconds)
        return self._resolve_horizon(horizon_seconds)

    def _iter_events(self, horizon_seconds: Optional[float]) -> Iterator[Event]:
        """The instrumented event loop: observer before, yield after."""
        timings = self.timings_by_kind
        observer = self._event_observer
        while self.queue:
            event = self.queue.pop()
            if horizon_seconds is not None and event.time > horizon_seconds:
                self.now = horizon_seconds
                break
            self.events_processed += 1
            self.events_by_kind[event.kind] = self.events_by_kind.get(event.kind, 0) + 1
            self.now = event.time
            handler = self._handlers.get(event.kind)
            if handler is None:
                raise RuntimeError(
                    f"no handler registered for event kind {event.kind.value!r}"
                )
            if observer is not None:
                observer(event)
            start = perf_counter()
            handler(event)
            timings[event.kind] = timings.get(event.kind, 0.0) + (perf_counter() - start)
            yield event

    def _resolve_horizon(self, horizon_seconds: Optional[float]) -> float:
        horizon = (
            horizon_seconds
            if horizon_seconds is not None
            else max(self.now, self.last_completion)
        )
        if horizon <= 0:
            horizon = max(self.last_completion, 1e-9)
        return horizon

    # -- reporting -----------------------------------------------------------------

    def stats(self) -> KernelStats:
        """Per-kind event counts of the run (JSON-friendly keys)."""
        return KernelStats(
            events_processed=self.events_processed,
            events_by_kind={
                kind.value: count
                for kind, count in sorted(
                    self.events_by_kind.items(), key=lambda kv: kv[0].value
                )
            },
            timings_by_kind={
                kind.value: seconds
                for kind, seconds in sorted(
                    self.timings_by_kind.items(), key=lambda kv: kv[0].value
                )
            },
        )


def schedule_faults(
    kernel: "SimKernel",
    faults,
    executors_by_tenant: Dict[str, "frozenset"],
) -> None:
    """Validate :class:`FaultSpec`\\ s and schedule their kernel events.

    ``executors_by_tenant`` maps each tenant name to the set of valid
    executor indices.  Unknown tenants or executor indices fail here, at
    setup time, instead of as a ``KeyError`` minutes into the simulation.
    """
    for fault in faults:
        if fault.tenant not in executors_by_tenant:
            raise ValueError(
                f"fault names unknown tenant {fault.tenant!r}; tenants: "
                f"{sorted(executors_by_tenant)}"
            )
        known = executors_by_tenant[fault.tenant]
        if fault.executor_index not in known:
            raise ValueError(
                f"fault names unknown executor {fault.executor_index} of "
                f"tenant {fault.tenant!r}; executors: {sorted(known)}"
            )
        kernel.schedule(
            fault.fail_at,
            EventKind.EXECUTOR_FAILURE,
            executor_index=fault.executor_index,
            tenant=fault.tenant,
        )
        if fault.recover_at is not None:
            kernel.schedule(
                fault.recover_at,
                EventKind.EXECUTOR_RECOVERY,
                executor_index=fault.executor_index,
                tenant=fault.tenant,
            )


class OpenLoopArrivals:
    """Drives open-loop (streaming) arrival sources through a kernel.

    Keeps exactly one pending ``JOB_ARRIVAL`` event per registered stream
    in the queue: when that arrival is handled, the simulator reports it
    via :meth:`on_arrival` and the *next* job is pulled from the stream
    and scheduled.  The stream is therefore never materialized up front
    -- the pending-arrival footprint is constant however long it runs
    (already-served jobs still accumulate scheduler records, as in any
    run).

    The helper is job-shape-agnostic: streamed items only need
    ``job_id`` and ``arrival_time`` attributes, and every pulled job is
    registered in the shared ``jobs_by_id`` mapping the simulator's
    arrival handler reads from.  A per-stream ``prepare`` callable can
    rewrite each job as it is pulled (e.g. tag it with its tenant).
    """

    def __init__(self, kernel: "SimKernel", jobs_by_id: Dict[str, object]) -> None:
        self._kernel = kernel
        self._jobs_by_id = jobs_by_id
        self._streams: Dict[object, tuple] = {}
        self._pending: Dict[str, object] = {}  # pending job_id -> stream key

    def add_stream(self, key, jobs, *, prepare: Optional[Callable] = None) -> None:
        """Register one arrival stream and schedule its first arrival."""
        if key in self._streams:
            raise ValueError(f"arrival stream {key!r} already registered")
        self._streams[key] = (iter(jobs), prepare)
        self._schedule_next(key)

    def _schedule_next(self, key) -> None:
        stream, prepare = self._streams[key]
        job = next(stream, None)
        if job is None:
            return
        if prepare is not None:
            job = prepare(job)
        if job.job_id in self._jobs_by_id:
            raise ValueError(f"duplicate fill-job id {job.job_id!r} in arrival stream")
        self._jobs_by_id[job.job_id] = job
        self._pending[job.job_id] = key
        self._kernel.schedule(job.arrival_time, EventKind.JOB_ARRIVAL, job_id=job.job_id)

    def on_arrival(self, job_id: str) -> None:
        """Tell the driver an arrival was handled; pulls the next job."""
        key = self._pending.pop(job_id, None)
        if key is not None:
            self._schedule_next(key)
