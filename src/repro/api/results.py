"""Typed, versioned results of the :class:`repro.api.Experiment` facade.

Every result type serialises through ``to_dict()`` into a payload carrying
``schema_version``; the shapes are **frozen as schema v1** (the exact JSON
the CLI emitted before the payloads were versioned, plus the version
marker) and structurally checked by :mod:`repro.api.schema`.  Downstream
consumers can therefore parse the payloads without importing this
package, and future shape changes must bump the version instead of
silently breaking them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.sim.multi_tenant import MultiTenantResult, TenantResult
from repro.sim.scenario import ScenarioSpec
from repro.utils.tables import Table

#: Version stamped into every ``to_dict()`` payload.  Bump only with a
#: deliberate, documented schema change.
SCHEMA_VERSION = 1


def environment_block() -> Dict[str, str]:
    """The additive ``environment`` payload block.

    Records what is needed to interpret a result or benchmark number
    away from the machine that produced it: the python/numpy versions.
    ``kernel_backend`` is always ``"heapq"`` (the simulator has one
    event queue); schema v1 keeps the key.  The block is
    schema-v1-additive -- it never feeds :func:`result_digest`, which
    hashes only the simulation core.
    """
    return {
        "kernel_backend": "heapq",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def result_digest(core_payload: Mapping[str, Any]) -> str:
    """The canonical 16-hex digest of a simulation-outcome payload.

    Hashes the *simulation core* only -- the un-versioned
    ``MultiTenantResult.to_dict()`` shape with no timings -- so digests
    are comparable across the facade, the CLI and the historical golden
    files, and never depend on wall-clock noise.
    """
    text = json.dumps(core_payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`repro.api.Experiment.run`.

    Wraps the raw :class:`~repro.sim.multi_tenant.MultiTenantResult`
    (available as ``.raw`` for full access to per-tenant schedulers) and
    adds the scenario identity, the versioned serialization and the
    canonical digest.
    """

    scenario: str
    spec: ScenarioSpec
    raw: MultiTenantResult

    # -- delegated conveniences ----------------------------------------------------

    @property
    def horizon_seconds(self) -> float:
        return self.raw.horizon_seconds

    @property
    def tenants(self) -> Mapping[str, TenantResult]:
        return self.raw.tenants

    @property
    def aggregate(self):
        return self.raw.aggregate

    @property
    def num_devices(self) -> int:
        return self.raw.num_devices

    @property
    def fill_tflops_per_device(self) -> float:
        return self.raw.fill_tflops_per_device

    @property
    def backlog_remaining(self) -> int:
        return self.raw.backlog_remaining

    @property
    def events_processed(self) -> int:
        return self.raw.events_processed

    @property
    def events_by_kind(self) -> Mapping[str, int]:
        return self.raw.events_by_kind

    @property
    def timings_by_kind(self) -> Mapping[str, float]:
        return self.raw.timings_by_kind

    def summary_table(self) -> Table:
        """Per-tenant rows plus an aggregate row, ready for printing."""
        return self.raw.summary_table()

    # -- serialization -------------------------------------------------------------

    def to_dict(self, *, include_timings: bool = False) -> Dict[str, Any]:
        """Schema-v1 run payload (see ``docs/api.md`` for the reference)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "environment": environment_block(),
            **self.raw.to_dict(include_timings=include_timings),
        }

    def digest(self) -> str:
        """Canonical digest of the simulation outcome (timing-free)."""
        return result_digest(self.raw.to_dict())


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: the override applied and its outcome.

    ``payload`` is the point's simulation-core dict (the un-versioned
    ``MultiTenantResult.to_dict()`` shape; points cross process
    boundaries, so the full result object stays in the worker).
    """

    parameter: str
    value: Any
    payload: Mapping[str, Any]
    #: Content digest of the point's applied scenario document -- the
    #: journal key.  ``None`` on payloads built outside the supervised
    #: runtime (hand-constructed results, legacy callers).
    key: Optional[str] = None
    #: Supervised attempts this point took (1 = first try succeeded).
    attempts: int = 1

    @property
    def aggregate(self) -> Mapping[str, Any]:
        return self.payload["aggregate"]

    def digest(self) -> str:
        return result_digest(dict(self.payload))


@dataclass(frozen=True)
class PointFailure:
    """A grid point that exhausted its retry budget.

    Failures are *recorded*, not raised: a sweep with failed points still
    returns every completed point, and the failure carries everything
    needed to triage (the failure ``kind`` -- ``exception`` / ``crash`` /
    ``timeout`` -- the error type and message, the attempt count and the
    journal ``key`` to re-attempt via ``--resume``).
    """

    parameter: str
    value: Any
    key: str
    attempts: int
    kind: str
    error_type: str
    message: str

    def describe(self) -> str:
        return (
            f"{self.parameter}={self.value}: [{self.kind}] "
            f"{self.error_type}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parameter": self.parameter,
            "value": self.value,
            "point_key": self.key,
            "attempts": self.attempts,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
        }


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one :meth:`repro.api.Experiment.sweep`.

    Supervised sweeps (the default) additionally carry the journal
    identity (``sweep_id``, ``resumed_from``) and graceful-degradation
    state: points that exhausted their retry budget land in ``failures``
    instead of aborting the sweep.  ``to_dict()`` emits the extra keys
    only when a ``sweep_id`` is present, so payloads from
    hand-constructed results keep the exact pre-supervision v1 shape.

    A *sharded* sweep (``Experiment.sweep(shards=N, shard_index=i)``)
    produces a **partial** result: ``points`` covers only the grid
    positions owned by shard ``i`` (stable content-keyed assignment, see
    :mod:`repro.dist.sharding`), while ``sweep_id`` stays the FULL grid's
    digest and ``grid_keys`` records the full grid key order.
    ``to_dict()`` then adds an additive ``shard`` block so ``repro
    merge`` (:func:`repro.dist.merge_sweep_payloads`) can recombine a
    complete shard set into the exact unsharded payload.
    """

    scenario: str
    parameter: str
    points: Tuple[SweepPoint, ...]
    #: Journal identity of this sweep (the grid's content digest).
    sweep_id: Optional[str] = None
    #: The sweep_id of the journal this run resumed from, if any.
    resumed_from: Optional[str] = None
    #: Points that exhausted their retry budget (graceful degradation).
    failures: Tuple[PointFailure, ...] = field(default=())
    #: Sharded-sweep identity: which shard this partial is (``None`` on
    #: unsharded sweeps, keeping their payloads byte-for-byte unchanged).
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    #: The FULL grid's point keys in grid order (sharded sweeps only).
    grid_keys: Optional[Tuple[str, ...]] = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ok(self) -> bool:
        """True when every grid point completed."""
        return not self.failures

    def attempts(self) -> Dict[str, int]:
        """Journal key -> supervised attempt count, completed and failed."""
        counts: Dict[str, int] = {}
        for point in self.points:
            if point.key is not None:
                counts[point.key] = point.attempts
        for failure in self.failures:
            counts[failure.key] = failure.attempts
        return counts

    def digest(self) -> str:
        """Canonical digest over the completed points' payloads.

        Depends only on the simulation outcomes in grid order -- not on
        attempt counts, resume history or failure metadata -- so a
        resumed sweep that completed the same points digests identically
        to an uninterrupted run.
        """
        return result_digest({"points": [dict(p.payload) for p in self.points]})

    def to_dict(self) -> Dict[str, Any]:
        """Schema-v1 sweep payload: one entry per grid point.

        Supervision metadata (``sweep_id``, ``resumed_from``,
        ``attempts``, ``failed_points`` and per-entry ``point_key``) is
        additive and emitted only for supervised sweeps.
        """
        payload: Dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "sweep": [
                {
                    "parameter": p.parameter,
                    "value": p.value,
                    **({"point_key": p.key} if p.key is not None else {}),
                    **p.payload,
                }
                for p in self.points
            ],
        }
        if self.sweep_id is not None:
            payload["sweep_id"] = self.sweep_id
            payload["resumed_from"] = self.resumed_from
            payload["attempts"] = self.attempts()
            payload["failed_points"] = [f.to_dict() for f in self.failures]
        if self.shard_count is not None:
            payload["shard"] = {
                "index": self.shard_index,
                "count": self.shard_count,
                "parameter": self.parameter,
                "grid_keys": list(self.grid_keys or ()),
            }
        return payload


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of one :meth:`repro.api.Experiment.profile`.

    Carries the full :class:`RunResult` (``.run``) plus the wall-clock
    measurement and the persistent plan-cache counters of the run.
    """

    run: RunResult
    wall_seconds: float
    plan_cache: Mapping[str, Any]

    @property
    def scenario(self) -> str:
        return self.run.scenario

    @property
    def events_processed(self) -> int:
        return self.run.events_processed

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.run.events_processed / self.wall_seconds

    @property
    def events_by_kind(self) -> Mapping[str, int]:
        return self.run.events_by_kind

    @property
    def timings_by_kind(self) -> Mapping[str, float]:
        return self.run.timings_by_kind

    @property
    def handler_seconds(self) -> float:
        """Total wall-clock seconds spent inside event handlers."""
        return sum(self.run.timings_by_kind.values())

    def to_dict(self) -> Dict[str, Any]:
        """Schema-v1 profile payload (the ``repro profile --json`` shape)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "environment": environment_block(),
            "wall_seconds": round(self.wall_seconds, 4),
            "events_processed": self.events_processed,
            "events_per_second": round(self.events_per_second, 2),
            "events_by_kind": dict(self.events_by_kind),
            "timings_by_kind": {
                kind: round(seconds, 6)
                for kind, seconds in self.timings_by_kind.items()
            },
            "plan_cache": dict(self.plan_cache),
        }

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The profile as a Chrome trace (``chrome://tracing`` / Perfetto).

        The kernel keeps *accumulated* per-kind handler times, not
        per-event timestamps, so the trace renders the accumulator: one
        process, one track per event kind, and on each track a single
        complete ("X") slice whose duration is that kind's total handler
        seconds, annotated with the event count and mean per-event cost.
        Track 0 carries the whole run's wall-clock slice, so the gap
        between it and the handler slices is visible kernel/queue
        overhead.  Load the written file directly in Perfetto or
        ``chrome://tracing``.
        """
        to_us = 1e6  # trace timestamps/durations are microseconds
        trace_events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 1,
                "tid": 0,
                "args": {"name": f"repro profile: {self.scenario}"},
            },
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": 0,
                "args": {"name": "run (wall-clock)"},
            },
            {
                "ph": "X",
                "name": "run",
                "cat": "run",
                "pid": 1,
                "tid": 0,
                "ts": 0,
                "dur": round(self.wall_seconds * to_us, 3),
                "args": {
                    "events_processed": self.events_processed,
                    "events_per_second": round(self.events_per_second, 2),
                },
            },
        ]
        counts = dict(self.events_by_kind)
        for tid, kind in enumerate(sorted(self.timings_by_kind), start=1):
            seconds = self.timings_by_kind[kind]
            count = counts.get(kind, 0)
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": f"handlers: {kind}"},
                }
            )
            trace_events.append(
                {
                    "ph": "X",
                    "name": kind,
                    "cat": "handler",
                    "pid": 1,
                    "tid": tid,
                    "ts": 0,
                    "dur": round(seconds * to_us, 3),
                    "args": {
                        "events": count,
                        "mean_us_per_event": round(
                            seconds * to_us / count, 3
                        )
                        if count
                        else 0.0,
                    },
                }
            )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "scenario": self.scenario,
                **environment_block(),
            },
        }
