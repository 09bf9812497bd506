"""Span tracing from outside the program: wrappers around public functions.

:func:`instrument` swaps each function named in :data:`SPANS` for a
wrapper that records a span (name, start, end, parent) into a
:class:`Tracer`, and puts every original back on exit, checking that it
did.  Nothing under ``src/`` changes; the wrappers live only for the
traced run.

Policies and preemption rules are never wrapped: the program tests them
by identity (``preemption_rule is deadline_preemption_rule``) and reads
attributes off them to pick a scan path, so a wrapped policy would send
the run down a different code path.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _not_none(args, result) -> int:
    return result is not None


def _found(args, result) -> int:
    return result[0] is not None


def _events(args, result) -> int:
    return args[0].events_processed


@dataclass(frozen=True)
class Span:
    """One wrapped function.

    ``where`` is ``module:Class.method`` or ``module:function``.  With
    ``everywhere`` the function is wrapped in every loaded ``repro``
    module that binds it under that name.  ``count`` maps ``(args,
    result)`` to a number summed into the span's counter (successes for
    the ratio metrics, events for ``kernel.run``).
    """

    name: str
    where: str
    everywhere: bool = False
    count: Optional[Callable[[tuple, Any], int]] = None


SPANS: Tuple[Span, ...] = (
    # event loop
    Span("sim.run", "repro.sim.multi_tenant:MultiTenantSimulator.run"),
    Span("kernel.run", "repro.sim.kernel:SimKernel.run", count=_events),
    Span("queue.push", "repro.sim.events:EventQueue.push"),
    Span("queue.pop", "repro.sim.events:EventQueue.pop"),
    # routing
    Span("gsched.submit", "repro.core.global_scheduler:GlobalScheduler.submit"),
    Span("gsched.dispatch_idle", "repro.core.global_scheduler:GlobalScheduler.dispatch_idle"),
    Span("gsched.dispatch", "repro.core.global_scheduler:GlobalScheduler.dispatch", count=_not_none),
    # preemption and churn
    Span(
        "gsched.idle_can_meet_deadline",
        "repro.core.global_scheduler:GlobalScheduler.idle_can_meet_deadline",
    ),
    Span("gsched.try_preempt", "repro.core.global_scheduler:GlobalScheduler.try_preempt", count=_not_none),
    Span("gsched.fail_executor", "repro.core.global_scheduler:GlobalScheduler.fail_executor"),
    Span("gsched.deactivate_tenant", "repro.core.global_scheduler:GlobalScheduler.deactivate_tenant"),
    # candidate index
    Span("cand.best_for_executor", "repro.core.candidates:CandidateIndex.best_for_executor", count=_found),
    Span("cand.add", "repro.core.candidates:CandidateIndex.add"),
    Span("cand.remove", "repro.core.candidates:CandidateIndex.remove"),
    # tenant scheduler
    Span("sched.assign", "repro.core.scheduler:FillJobScheduler.assign"),
    Span("sched.complete", "repro.core.scheduler:FillJobScheduler.complete"),
    Span("sched.preempt", "repro.core.scheduler:FillJobScheduler.preempt"),
    Span("sched.processing_times", "repro.core.scheduler:FillJobScheduler.processing_times"),
    Span("sched.select_job_scored", "repro.core.scheduler:FillJobScheduler.select_job_scored"),
    # plan search
    Span("plan.build_estimate", "repro.core.executor:FillJobExecutor.build_estimate"),
    Span("plan.pack_fill_job", "repro.core.plan:pack_fill_job", everywhere=True),
    Span("plan.profile_model", "repro.models.profiles:profile_model", everywhere=True),
    # plan cache
    Span("plancache.get", "repro.utils.plancache:get"),
    Span("plancache.put", "repro.utils.plancache:put"),
    # setup
    Span("setup.system", "repro.core.system:PipeFillSystem.__init__"),
    Span("setup.build_tenants", "repro.api.experiment:build_tenants"),
    Span("setup.trace_gen", "repro.sim.scenario:build_tenant_fill_job_traces"),
    # result collection; sweep points serialize through
    # MultiTenantResult.to_dict (RunResult.to_dict delegates to it).
    Span("metrics.collect", "repro.sim.multi_tenant:collect_fill_metrics"),
    Span("api.to_dict", "repro.sim.multi_tenant:MultiTenantResult.to_dict"),
    # sweep machinery
    Span("sweep.run", "repro.api.experiment:Experiment.sweep"),
    Span("sweep.point", "repro.api.experiment:Experiment.run"),
    Span("journal.record", "repro.exec.journal:SweepJournal.record_completed"),
)

#: Spans whose self time is event-loop or sweep glue rather than a layer.
GLUE_SPANS = ("sim.run", "kernel.run", "sweep.run", "sweep.point")
#: Spans that bound a timed phase (the denominator of ``trace.coverage``).
ROOT_SPANS = ("sim.run", "sweep.run")


class Tracer:
    """Records spans in flat arrays and aggregates them per name."""

    def __init__(self, names: List[str]) -> None:
        self.names = list(names)
        n = len(self.names)
        self.calls = [0] * n
        self.inclusive = [0.0] * n
        self.exclusive = [0.0] * n
        self.top_level = [0.0] * n  # inclusive seconds of outermost calls
        self.counters = [0] * n
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: List[list] = []  # [span index, seconds in child spans]
        self.origin = time.perf_counter()

    def call(self, name_id: int, count, fn, args, kwargs):
        clock = time.perf_counter
        stack = self._stack
        index = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.name_id.append(name_id)
        self.parent.append(stack[-1][0] if stack else -1)
        frame = [index, 0.0]
        stack.append(frame)
        begin = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            finish = clock()
            stack.pop()
            duration = finish - begin
            self.start[index] = begin
            self.end[index] = finish
            self.calls[name_id] += 1
            self.inclusive[name_id] += duration
            self.exclusive[name_id] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            else:
                self.top_level[name_id] += duration
        if count is not None:
            self.counters[name_id] += count(args, result)
        return result

    # -- reading -------------------------------------------------------------

    def index(self, name: str) -> int:
        return self.names.index(name)

    def span_metrics(self) -> Dict[str, float]:
        """``<span>.calls``, ``<span>.s`` and ``<span>.self_s`` per span."""
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.s"] = self.inclusive[i]
            out[f"{name}.self_s"] = self.exclusive[i]
        return out

    def ratio(self, name: str) -> float:
        """Counter over calls of one span (0 when it was never called)."""
        i = self.index(name)
        return self.counters[i] / self.calls[i] if self.calls[i] else 0.0

    def coverage(self) -> float:
        """Share of root-span time spent in layer spans, not glue.

        Roots are the outermost ``sim.run``/``sweep.run`` spans; glue is
        the self time of the loop and sweep container spans inside them.
        """
        root_time = sum(self.top_level[self.index(n)] for n in ROOT_SPANS)
        if root_time <= 0:
            return 0.0
        glue = sum(self.exclusive[self.index(n)] for n in GLUE_SPANS)
        return 1.0 - glue / root_time


def write_chrome_trace(path: Path, tracers: List[Tracer], metadata: Dict[str, Any]) -> None:
    """Write every recorded span as Chrome-trace JSON (Perfetto loads it).

    Tracer ``k`` becomes thread ``k + 1``; each event carries its span's
    index in that tracer and its parent's (-1 for an outermost span).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"displayTimeUnit": "ms", "otherData": ')
        json.dump({**metadata, "spans": sum(len(t.start) for t in tracers)}, fh, sort_keys=True)
        fh.write(', "traceEvents": [\n')
        origin = min((t.origin for t in tracers), default=0.0)
        first = True
        for tid, tracer in enumerate(tracers, start=1):
            names, name_id, parent = tracer.names, tracer.name_id, tracer.parent
            for i, (begin, end) in enumerate(zip(tracer.start, tracer.end)):
                fh.write(
                    '%s{"name": "%s", "ph": "X", "pid": 1, "tid": %d, "ts": %.3f, "dur": %.3f, '
                    '"args": {"span": %d, "parent": %d}}'
                    % (
                        "" if first else ",\n",
                        names[name_id[i]],
                        tid,
                        (begin - origin) * 1e6,
                        (end - begin) * 1e6,
                        i,
                        parent[i],
                    )
                )
                first = False
        fh.write("\n]}\n")


# -- installing wrappers -------------------------------------------------------


def _resolve(where: str) -> Tuple[Any, str]:
    """``module:Class.attr`` -> (class, attr); ``module:func`` -> (module, func)."""
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(span: Span) -> List[Tuple[Any, str]]:
    owner, attr = _resolve(span.where)
    if not span.everywhere:
        return [(owner, attr)]
    original = vars(owner)[attr]
    return [
        (module, attr)
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and module is not None
        and vars(module).get(attr) is original
    ]


@contextmanager
def patched(
    spans: Tuple[Span, ...], make_wrapper: Callable[[int, Span, Callable], Callable]
) -> Iterator[None]:
    """Replace every binding of ``spans`` with ``make_wrapper(i, span, fn)``.

    On exit every original goes back, and the restore is verified: a
    binding that is not the original object again raises RuntimeError.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for i, span in enumerate(spans):
            for owner, attr in _bindings(span):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(i, span, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    moved = [f"{getattr(o, '__name__', o)}.{a}" for o, a, f in saved if vars(o)[a] is not f]
    if moved:
        raise RuntimeError(f"wrapped functions not restored: {moved}")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Record every span of :data:`SPANS` into ``tracer`` for the with-block."""

    def make_wrapper(i: int, span: Span, fn: Callable) -> Callable:
        call, count = tracer.call, span.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(i, count, fn, args, kwargs)

        return wrapper

    with patched(SPANS, make_wrapper):
        yield tracer
