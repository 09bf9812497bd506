"""Discrete-event machinery for the cluster simulator.

The paper's simulator only needs fill-job arrivals and completions
(Section 5.1); production clusters additionally churn -- executors fail
and recover, tenants join and leave -- so the :class:`EventKind` taxonomy
covers those dynamics too.  Events are ordered by time with a monotonic
sequence number as the tie-breaker for determinism.  The
:class:`~repro.sim.kernel.SimKernel` owns the loop that pops this queue
and dispatches on kind.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

#: Tolerance used by the stale-completion guard: a completion event is
#: stale when its executor was re-targeted since the event was scheduled
#: (different job, or the same job re-dispatched with a strictly later
#: ``busy_until``).  The epsilon absorbs float round-off when an executor
#: was re-assigned work ending at (numerically) the same instant.
STALE_COMPLETION_EPSILON = 1e-9


class EventKind(str, enum.Enum):
    """Kinds of simulator events.

    ``JOB_ARRIVAL`` and ``JOB_COMPLETION`` are the paper's two kinds (the
    only points where a static cluster's state changes); the remaining
    kinds model cluster dynamics: device failure/recovery and tenants
    joining or leaving mid-run.
    """

    JOB_ARRIVAL = "job_arrival"
    JOB_COMPLETION = "job_completion"
    EXECUTOR_FAILURE = "executor_failure"
    EXECUTOR_RECOVERY = "executor_recovery"
    TENANT_JOIN = "tenant_join"
    TENANT_LEAVE = "tenant_leave"


@dataclass(frozen=True, order=True)
class Event:
    """One simulator event.

    Events order by ``(time, sequence)``; payload fields are excluded from
    ordering so identical timestamps resolve deterministically by insertion
    order.  ``tenant`` names the main job the event concerns (``None`` for
    job arrivals, which enter the shared backlog).
    """

    time: float
    sequence: int
    kind: EventKind = field(compare=False)
    job_id: Optional[str] = field(compare=False, default=None)
    executor_index: Optional[int] = field(compare=False, default=None)
    tenant: Optional[str] = field(compare=False, default=None)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(
        self,
        time: float,
        kind: EventKind,
        *,
        job_id: Optional[str] = None,
        executor_index: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Event:
        """Schedule an event and return it."""
        if not time >= 0:  # also rejects NaN, which fails every comparison
            raise ValueError(f"event time must be >= 0, got {time}")
        event = Event(
            time=time,
            sequence=next(self._counter),
            kind=kind,
            job_id=job_id,
            executor_index=executor_index,
            tenant=tenant,
        )
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return (without removing) the earliest event."""
        if not self._heap:
            raise IndexError("peek into an empty EventQueue")
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

