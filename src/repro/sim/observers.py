"""Streaming run observers: lifecycle callbacks into a live simulation.

A :class:`RunObserver` subclass receives callbacks while a simulation
runs -- the push-style twin of ``Experiment.iter_events`` -- so embedding
applications (dashboards, notebooks, services) can stream progress,
completions and cluster dynamics without touching simulator internals::

    from repro.api import Experiment, RunObserver

    class Ticker(RunObserver):
        progress_every = 500
        def on_progress(self, events_processed, now):
            print(f"t={now:,.0f}s {events_processed:,} events")

    Experiment.from_yaml("scenarios/multi_tenant.yaml").run(observers=[Ticker()])

Callback ordering per processed event is part of the contract:

1. ``on_event(event, now)`` -- fired for *every* event, before its
   handler runs (state not yet applied);
2. ``on_progress(events_processed, now)`` -- fired with the ``on_event``
   of every ``progress_every``-th event (the smallest value across the
   registered observers), still before the handler;
3. the semantic callback for the event, fired *while* the handler applies
   it: ``on_job_completed`` (non-stale completions only),
   ``on_executor_lost`` (failures), ``on_tenant_change`` (join/leave).

Observers must treat every argument as read-only; mutating simulator
state from a callback voids the bit-identical-results guarantee.  A run
without observers skips every callback site with one ``None`` test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from repro.sim.events import Event


@dataclass(frozen=True)
class RunContext:
    """Read-only handle on one live run, passed to ``on_run_started``.

    Gives deep observers (dashboards, the invariant engine of
    :mod:`repro.verify`) access to the run's machinery without the
    simulator leaking it through every callback.  Everything here must be
    treated as read-only: mutating the kernel or a scheduler from an
    observer voids the bit-identical-results guarantee.
    """

    #: The :class:`~repro.sim.kernel.SimKernel` driving the run.
    kernel: object
    #: The run's :class:`~repro.core.global_scheduler.GlobalScheduler`.
    scheduler: object
    #: The participating :class:`~repro.sim.multi_tenant.Tenant` objects.
    tenants: Mapping[str, object]
    #: The requested horizon (``None`` for open-ended runs).
    horizon_seconds: Optional[float] = None


class RunObserver:
    """Base class of streaming run observers; every callback is a no-op.

    Subclass and override what you need.  ``progress_every`` throttles
    ``on_progress`` (in processed events); the effective cadence of a run
    is the minimum across its observers.
    """

    #: Fire ``on_progress`` every this many processed events.
    progress_every: int = 1000

    def on_run_started(self, context: RunContext) -> None:
        """The run is assembled (handlers registered, events scheduled)
        but no event has been processed yet."""

    def on_run_finished(self, result) -> None:
        """The run completed; ``result`` is the raw
        :class:`~repro.sim.multi_tenant.MultiTenantResult`."""

    def on_event(self, event: Event, now: float) -> None:
        """Any event was popped (before its handler applies it)."""

    def on_job_completed(
        self, job_id: str, tenant: str, executor_index: int, now: float
    ) -> None:
        """A fill job finished on ``tenant``'s executor (stale events skipped)."""

    def on_executor_lost(self, tenant: str, executor_index: int, now: float) -> None:
        """An executor failed; its running job was requeued with progress banked."""

    def on_tenant_change(self, tenant: str, change: str, now: float) -> None:
        """A tenant joined (``change="join"``) or left (``"leave"``) the cluster."""

    def on_progress(self, events_processed: int, now: float) -> None:
        """Periodic heartbeat: total processed events and the sim clock."""


class ObserverFanout:
    """Multiplexes one simulation's callbacks over N observers.

    Built by the simulator only when observers are registered; its
    :meth:`on_event` doubles as the kernel's event-observer hook and
    carries the progress cadence.
    """

    __slots__ = ("_observers", "_kernel", "_progress_every", "_countdown")

    def __init__(self, observers: Iterable[RunObserver], kernel) -> None:
        self._observers: List[RunObserver] = list(observers)
        if not self._observers:
            raise ValueError("ObserverFanout needs at least one observer")
        self._kernel = kernel
        self._progress_every = max(
            1, min(int(o.progress_every) for o in self._observers)
        )
        self._countdown = self._progress_every

    # -- run lifecycle -----------------------------------------------------------

    def on_run_started(self, context: RunContext) -> None:
        for observer in self._observers:
            observer.on_run_started(context)

    def on_run_finished(self, result) -> None:
        for observer in self._observers:
            observer.on_run_finished(result)

    # -- kernel hook -------------------------------------------------------------

    def on_event(self, event: Event) -> None:
        now = self._kernel.now
        for observer in self._observers:
            observer.on_event(event, now)
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self._progress_every
            processed = self._kernel.events_processed
            for observer in self._observers:
                observer.on_progress(processed, now)

    # -- semantic callbacks (fired by the simulator's handlers) --------------------

    def on_job_completed(
        self, job_id: str, tenant: str, executor_index: int, now: float
    ) -> None:
        for observer in self._observers:
            observer.on_job_completed(job_id, tenant, executor_index, now)

    def on_executor_lost(self, tenant: str, executor_index: int, now: float) -> None:
        for observer in self._observers:
            observer.on_executor_lost(tenant, executor_index, now)

    def on_tenant_change(self, tenant: str, change: str, now: float) -> None:
        for observer in self._observers:
            observer.on_tenant_change(tenant, change, now)
