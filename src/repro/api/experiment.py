"""The :class:`Experiment` facade: the one programmatic entry point.

An ``Experiment`` is an immutable handle on a scenario -- loaded from
YAML/JSON, built from a raw dict, or wrapped around an existing
:class:`~repro.sim.scenario.ScenarioSpec` -- with builder-style
refinement and every execution mode of the CLI::

    from repro.api import Experiment

    exp = (
        Experiment.from_yaml("scenarios/multi_tenant.yaml")
        .with_policy("slack+sjf")
        .with_override("tenants.0.workload.arrival_rate_per_hour", 240)
    )
    result = exp.run()                     # -> RunResult
    grid = exp.sweep(parameter="policy", values=["sjf", "edf+sjf"])
    profile = exp.profile()                # -> ProfileResult
    for event in exp.iter_events():        # step-wise embedding
        ...

Builder methods return *new* experiments (the receiver is never
mutated), so refinements fork cheaply and scenario state can never leak
between runs.  Validation is lazy -- ``validate()`` (or the first
``run``/``sweep``/``profile``) parses the raw document into a
:class:`~repro.sim.scenario.ScenarioSpec` and raises
:class:`~repro.sim.scenario.ScenarioError` on malformed input.
"""

from __future__ import annotations

import copy
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import registry
from repro.api.results import (
    PointFailure,
    ProfileResult,
    RunResult,
    SweepPoint,
    SweepResult,
)
from repro.exec import (
    ChaosPlan,
    RetryPolicy,
    SupervisedTask,
    Supervisor,
    SweepJournal,
    content_digest,
)
from repro.sim.events import Event
from repro.sim.multi_tenant import MultiTenantResult, MultiTenantSimulator
from repro.sim.observers import RunObserver
from repro.sim.scenario import (
    ScenarioError,
    ScenarioSpec,
    build_tenants,
    load_scenario_dict,
    set_by_path,
    spec_to_dict,
)
from repro.utils import plancache


class EventStream:
    """Pull-style run handle: iterate simulation events one at a time.

    Yields every processed :class:`~repro.sim.events.Event` *after* its
    state changes were applied.  When the stream is exhausted, ``result``
    holds the :class:`~repro.api.results.RunResult`; ``finish()`` drains
    whatever remains and returns it (abandoning a stream midway simply
    leaves the simulation unfinished).
    """

    def __init__(
        self, events: Iterator[Event], wrap: Callable[[MultiTenantResult], RunResult]
    ) -> None:
        self._events = events
        self._wrap = wrap
        self.result: Optional[RunResult] = None

    def __iter__(self) -> "EventStream":
        return self

    def __next__(self) -> Event:
        try:
            return next(self._events)
        except StopIteration as stop:
            if self.result is None and stop.value is not None:
                self.result = self._wrap(stop.value)
            raise StopIteration from None

    def finish(self) -> RunResult:
        """Drain the remaining events and return the final result."""
        for _ in self:
            pass
        assert self.result is not None
        return self.result

    def close(self) -> None:
        """Abandon the stream (the partial simulation is discarded)."""
        self._events.close()


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep; completed points are safe in the journal.

    Subclasses ``KeyboardInterrupt`` so naive callers still unwind, while
    supervised callers (the CLI) can report the checkpoint state: how
    many points finished, the ``sweep_id`` to pass to ``--resume``, and
    where the journal lives.  In-flight workers were terminated and the
    journal was flushed before this was raised.
    """

    def __init__(
        self,
        *,
        sweep_id: str,
        completed: int,
        total: int,
        journal_path: Optional[str] = None,
    ) -> None:
        self.sweep_id = sweep_id
        self.completed = completed
        self.total = total
        self.journal_path = journal_path
        where = f"; journal: {journal_path}" if journal_path else ""
        super().__init__(
            f"sweep interrupted: {completed}/{total} points completed "
            f"(sweep id {sweep_id}){where}"
        )


def _sweep_point_worker(
    payload: Tuple[Dict[str, Any], Optional[str], Tuple]
) -> Dict[str, Any]:
    """Run one sweep grid point (executed in a supervised worker process).

    The payload carries the *fully applied* scenario document -- override
    already set, ``sweep`` block stripped -- so the worker is a pure
    ``doc -> simulation core payload`` function and the parent's journal
    key (the document's content digest) describes exactly what ran.

    ``cache_dir`` (``None`` = disabled) points every worker at the same
    persistent plan cache, so the workers pay each plan search once
    instead of once per worker.  ``registrations`` replays the parent's
    policy/preemption registrations referenced by the grid, so custom
    registered callables resolve even under the ``spawn``/``forkserver``
    start methods, where workers re-import ``repro`` from scratch.
    """
    raw, cache_dir, registrations = payload
    plancache.configure(cache_dir)
    for kind, name, obj in registrations:
        target = registry.policies if kind == "policy" else registry.preemption_rules
        target.register(name, obj, overwrite=True)
    result = Experiment.from_dict(raw).run()
    return result.raw.to_dict()


def _shippable_registrations(
    spec: ScenarioSpec, parameter: str, values: Sequence[Any]
) -> Tuple[Tuple[str, str, Callable], ...]:
    """The (kind, name, callable) triples sweep workers must replay.

    Covers the base spec's policy/preemption plus, when the swept
    parameter IS one of those fields, every string value of the grid.
    Entries that cannot pickle (lambdas, closures) are skipped: a forked
    worker inherits them anyway, and a spawned one could never receive
    them -- the pre-pool pickling error would be the same failure, later
    and N times over.
    """
    import pickle

    wanted = {("policy", spec.policy)}
    if spec.preemption is not None:
        wanted.add(("preemption", spec.preemption))
    if parameter in ("policy", "preemption"):
        wanted.update((parameter, v) for v in values if isinstance(v, str))
    shipped = []
    for kind, name in sorted(wanted):
        target = registry.policies if kind == "policy" else registry.preemption_rules
        if name not in target:
            continue
        obj = target.get(name)
        try:
            pickle.dumps(obj)
        except Exception:
            continue
        shipped.append((kind, registry.Registry._key(name), obj))
    return tuple(shipped)


class Experiment:
    """An immutable, runnable scenario (see the module docstring)."""

    def __init__(
        self,
        raw: Optional[Mapping[str, Any]] = None,
        *,
        spec: Optional[ScenarioSpec] = None,
    ) -> None:
        if raw is None and spec is None:
            raise ValueError(
                "Experiment needs a raw scenario dict or a ScenarioSpec; use "
                "Experiment.from_yaml / .from_dict / .from_spec"
            )
        self._raw: Optional[Dict[str, Any]] = (
            copy.deepcopy(dict(raw)) if raw is not None else None
        )
        self._spec: Optional[ScenarioSpec] = spec

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_yaml(cls, path: Union[str, Path]) -> "Experiment":
        """Load a ``.yaml``/``.yml``/``.json`` scenario file."""
        return cls(load_scenario_dict(path))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "Experiment":
        """Wrap a raw scenario document (deep-copied; never mutated)."""
        return cls(raw)

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Experiment":
        """Wrap an already-validated :class:`ScenarioSpec` as-is."""
        return cls(spec=spec)

    @classmethod
    def _from_owned(cls, raw: Dict[str, Any]) -> "Experiment":
        """Adopt a document the caller owns (skips the defensive deepcopy).

        Builders fork via :meth:`to_raw` (already a fresh copy) and hand
        the copy straight here, so a chained builder pays one copy per
        step instead of two.
        """
        exp = cls.__new__(cls)
        exp._raw = raw
        exp._spec = None
        return exp

    # -- introspection -----------------------------------------------------------

    @property
    def name(self) -> str:
        """The scenario name (without forcing full validation)."""
        if self._spec is not None:
            return self._spec.name
        assert self._raw is not None
        return str(self._raw.get("name", "unnamed-scenario"))

    def to_raw(self) -> Dict[str, Any]:
        """A deep copy of the scenario document this experiment runs."""
        if self._raw is not None:
            return copy.deepcopy(self._raw)
        assert self._spec is not None
        return spec_to_dict(self._spec)

    def validate(self) -> ScenarioSpec:
        """Parse + validate, returning the :class:`ScenarioSpec`.

        Raises :class:`~repro.sim.scenario.ScenarioError` on any
        malformed field; cached, so repeated calls are free.
        """
        if self._spec is None:
            assert self._raw is not None
            self._spec = ScenarioSpec.from_dict(self._raw)
        return self._spec

    @property
    def spec(self) -> ScenarioSpec:
        """The validated spec (alias for :meth:`validate`)."""
        return self.validate()

    # -- builders (every method returns a NEW Experiment) --------------------------

    def with_override(self, path: str, value: Any) -> "Experiment":
        """Fork with one dotted-path override applied (``"tenants.0.model"``).

        The override semantics are exactly the sweep grid's
        (:func:`~repro.sim.scenario.set_by_path`): integer segments index
        lists, the final segment may create a new mapping key, and
        validation of the overridden document is deferred to
        :meth:`validate`.
        """
        raw = self.to_raw()
        set_by_path(raw, path, value)
        return type(self)._from_owned(raw)

    def with_policy(
        self,
        policy: Union[str, Callable],
        *,
        name: Optional[str] = None,
        overwrite: bool = False,
    ) -> "Experiment":
        """Fork with a different scheduling policy.

        Accepts a registered name (``"sjf"``) or a policy *callable*.  A
        callable is registered on the spot -- under ``name`` or its
        ``__name__`` -- so the experiment's scenario document, sweep
        grids and result payloads all refer to it by that name exactly
        like a shipped policy.  ``overwrite=True`` rebinds a name already
        taken by a *different* object (e.g. a function redefined in a
        notebook cell).
        """
        return self.with_override("policy", _ensure_registered(
            registry.policies, policy, name, overwrite=overwrite
        ))

    def with_preemption(
        self,
        rule: Optional[Union[str, Callable]],
        *,
        name: Optional[str] = None,
        overwrite: bool = False,
    ) -> "Experiment":
        """Fork with a preemption rule (name or callable); ``None`` disables."""
        if rule is None:
            raw = self.to_raw()
            raw.pop("preemption", None)
            return type(self)._from_owned(raw)
        return self.with_override("preemption", _ensure_registered(
            registry.preemption_rules, rule, name, overwrite=overwrite
        ))

    def with_seed(self, seed: int) -> "Experiment":
        """Fork with a different base RNG seed."""
        return self.with_override("seed", int(seed))

    def with_horizon(self, horizon_seconds: float) -> "Experiment":
        """Fork with a different simulation horizon."""
        return self.with_override("horizon_seconds", float(horizon_seconds))

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        *,
        observers: Optional[Sequence[RunObserver]] = None,
    ) -> RunResult:
        """Simulate the scenario end-to-end.

        ``observers`` wires streaming lifecycle callbacks into the run
        (see :class:`repro.api.RunObserver`).
        """
        spec = self.validate()
        simulator = self._build_simulator(spec)
        raw_result = simulator.run(
            faults=spec.faults,
            horizon_seconds=spec.horizon_seconds,
            observers=observers,
        )
        return RunResult(scenario=spec.name, spec=spec, raw=raw_result)

    def iter_events(
        self,
        *,
        observers: Optional[Sequence[RunObserver]] = None,
    ) -> EventStream:
        """Run step-wise: an :class:`EventStream` yielding each event.

        The generator twin of :meth:`run` for embedding loops that need
        control between events (animations, coupled co-simulations,
        early-exit searches)::

            stream = exp.iter_events()
            for event in stream:
                ...                        # state is already applied
            print(stream.result.digest())  # same result as exp.run()
        """
        spec = self.validate()
        simulator = self._build_simulator(spec)
        events = simulator.iter_run(
            faults=spec.faults,
            horizon_seconds=spec.horizon_seconds,
            observers=observers,
        )
        return EventStream(
            events,
            lambda raw_result: RunResult(
                scenario=spec.name, spec=spec, raw=raw_result
            ),
        )

    def sweep(
        self,
        *,
        parameter: Optional[str] = None,
        values: Optional[Sequence[Any]] = None,
        workers: int = 0,
        max_retries: int = 2,
        timeout_seconds: Optional[float] = None,
        backoff_seconds: float = 0.5,
        journal_dir: Optional[Union[str, Path]] = None,
        resume: Optional[Union[str, bool]] = None,
        chaos: Optional[ChaosPlan] = None,
        shards: Optional[int] = None,
        shard_index: int = 0,
        log: Optional[Callable[[str], None]] = None,
    ) -> SweepResult:
        """Re-run the scenario across a parameter grid, supervised.

        The grid comes from ``parameter``/``values`` or, when omitted,
        the scenario's own ``sweep`` block.  **Every grid point is
        validated before any worker spawns** -- a typo'd override path or
        an invalid value raises :class:`ScenarioError` immediately
        instead of after N worker processes fan out.

        Execution is crash-safe.  Each grid point runs as a supervised
        task: a worker that raises, crashes (OOM-kill, segfault) or
        exceeds ``timeout_seconds`` costs one attempt and is retried with
        exponential backoff (``backoff_seconds`` doubling per retry) up
        to ``max_retries`` extra attempts; a point that exhausts its
        budget lands in :attr:`SweepResult.failures` instead of aborting
        the grid.  ``workers`` defaults to ``min(grid size, 4)``; ``1``
        runs in-process (exceptions are still retried, but kills and
        hangs cannot be detected without a second process).  Workers
        inherit the caller's persistent plan-cache configuration, so the
        grid pays each plan search once.

        ``journal_dir`` enables checkpoint/resume: every completed point
        is appended (and fsynced) to
        ``<journal_dir>/<sweep_id>/journal.jsonl``, where ``sweep_id`` is
        the grid's content digest.  ``resume="auto"`` (or an explicit
        sweep id) skips journaled points and merges them back
        bit-identically -- :meth:`SweepResult.digest` of a resumed sweep
        equals an uninterrupted run's.  Resuming against a different grid
        raises :class:`ScenarioError`.  Ctrl-C raises
        :class:`SweepInterrupted` (a ``KeyboardInterrupt``) after
        terminating in-flight workers and flushing the journal.

        ``shards``/``shard_index`` split the grid across independent
        processes or machines (``repro sweep --shard i/N``): the full
        grid is still built and validated, but only the points whose
        content key hashes to ``shard_index`` (stable assignment, see
        :func:`repro.dist.shard`) are executed.  Any given ``shards``,
        1 included, returns a partial :class:`SweepResult` that keeps
        the FULL grid's ``sweep_id`` and carries an additive ``shard``
        payload block; a complete set of partials recombines via
        ``repro merge`` (:func:`repro.dist.merge_sweep_payloads`) into
        the exact payload the unsharded sweep produces.  Each shard of
        N > 1 journals independently (journal id
        ``<sweep_id>-shard<i>of<N>``), so shards on one machine never
        contend and each resumes on its own; a 1-of-1 shard shares the
        unsharded sweep's journal.

        ``chaos`` injects a :class:`repro.exec.ChaosPlan` fault into
        every attempt (testing); ``log`` receives one-line progress
        strings.
        """
        spec = self.validate()
        sharded = shards is not None
        shards = 1 if shards is None else int(shards)
        shard_index = int(shard_index)
        if shards < 1:
            raise ScenarioError(f"shards must be >= 1, got {shards}")
        if not 0 <= shard_index < shards:
            raise ScenarioError(
                f"shard_index must be in [0, {shards}), got {shard_index}"
            )
        if parameter is None:
            if spec.sweep is None:
                raise ScenarioError(
                    "scenario has no 'sweep' block; pass parameter= and values="
                )
            parameter, values = spec.sweep.parameter, list(spec.sweep.values)
        if not values:
            raise ScenarioError("no sweep values given")
        say = log if log is not None else (lambda message: None)

        base = self.to_raw()
        # Fail fast: apply + validate every point up front (validation is
        # pure dict work -- no models or systems are built).  The applied
        # document is kept: its content digest is the point's journal
        # key, and the worker receives it ready to run.
        grid: List[Tuple[Any, str, Dict[str, Any]]] = []
        for value in values:
            point = copy.deepcopy(base)
            try:
                set_by_path(point, parameter, value)
            except (ScenarioError, LookupError) as exc:
                raise ScenarioError(
                    f"sweep parameter {parameter!r} does not resolve: {exc}"
                ) from None
            point.pop("sweep", None)
            ScenarioSpec.from_dict(point)
            key = content_digest(
                {"parameter": parameter, "value": value, "doc": point}
            )
            grid.append((value, key, point))

        grid_keys = [key for _, key, _ in grid]
        grid_digest = content_digest(
            {
                "scenario": spec.name,
                "parameter": parameter,
                "points": grid_keys,
            }
        )
        # The sweep's journal identity IS the grid digest: deterministic,
        # so an identical re-invocation can resume with --resume auto.
        # Every shard of a grid shares this identity; only the journal
        # directory (journal_id below) is per-shard.
        sweep_id = grid_digest

        if shards > 1:
            from repro.dist.sharding import shard as shard_of

            owned = [entry for entry in grid if shard_of(entry[1], shards) == shard_index]
            journal_id = f"{sweep_id}-shard{shard_index}of{shards}"
            say(
                f"shard {shard_index}/{shards}: {len(owned)} of "
                f"{len(grid)} grid points owned"
            )
        else:
            owned = grid
            journal_id = sweep_id
        unique_keys = {key for _, key, _ in owned}

        if resume not in (None, False) and journal_dir is None:
            raise ScenarioError(
                "sweep resume requires a journal directory (journal_dir=...)"
            )
        journal: Optional[SweepJournal] = None
        resumed_from: Optional[str] = None
        prior: Dict[str, Dict[str, Any]] = {}
        if journal_dir is not None:
            resume_id: Optional[str] = None
            if resume in (True, "auto"):
                resume_id = journal_id
            elif resume:
                resume_id = str(resume)
            if resume_id is not None:
                journal = SweepJournal.for_sweep(journal_dir, resume_id)
                if not journal.exists():
                    raise ScenarioError(
                        f"no sweep journal for {resume_id!r} under {journal_dir}"
                    )
                state = journal.read()
                header = state.header or {}
                if header.get("grid_digest") != grid_digest:
                    raise ScenarioError(
                        f"cannot resume sweep {resume_id!r}: its journal was "
                        f"written for a different grid (journal digest "
                        f"{header.get('grid_digest')!r}, this grid is "
                        f"{grid_digest!r})"
                    )
                prior = {k: v for k, v in state.completed.items() if k in unique_keys}
                resumed_from = resume_id
                journal.open_append()
                say(
                    f"resuming sweep {resume_id}: {len(prior)}/{len(unique_keys)} "
                    f"points already journaled"
                )
            else:
                journal = SweepJournal.for_sweep(journal_dir, journal_id)
                # grid_keys/grid_values (and the shard assignment, when
                # sharded) are additive header keys: they let ``repro
                # merge`` reconstruct this shard's partial payload from
                # the journal alone (repro.dist.merge).
                header = {
                    "sweep_id": sweep_id,
                    "scenario": spec.name,
                    "parameter": parameter,
                    "grid_digest": grid_digest,
                    "num_points": len(grid) if shards == 1 else len(owned),
                    "grid_keys": grid_keys,
                    "grid_values": [value for value, _, _ in grid],
                }
                if shards > 1:
                    header["shard_index"] = shard_index
                    header["shard_count"] = shards
                journal.start(header)

        cache_dir = (
            str(plancache.cache_dir()) if plancache.is_enabled() else None
        )
        registrations = _shippable_registrations(spec, parameter, values)

        # One supervised task per unique, not-yet-journaled point this
        # shard owns (duplicate grid values share one execution).
        tasks: List[SupervisedTask] = []
        task_values: Dict[str, Any] = {}
        for value, key, doc in owned:
            if key in task_values or key in prior:
                continue
            task_values[key] = value
            tasks.append(
                SupervisedTask(
                    key=key,
                    payload=(doc, cache_dir, registrations),
                    description=f"{parameter}={value}",
                )
            )

        fresh: Dict[str, Any] = {}
        failed: Dict[str, Any] = {}

        def _progress() -> str:
            done = len(prior) + len(fresh) + len(failed)
            return f"[{done}/{len(unique_keys)}]"

        def on_outcome(outcome) -> None:
            value = task_values[outcome.key]
            if outcome.ok:
                fresh[outcome.key] = outcome
                if journal is not None:
                    journal.record_completed(
                        outcome.key,
                        parameter=parameter,
                        value=value,
                        attempts=outcome.attempts,
                        payload=outcome.result,
                    )
                plural = "s" if outcome.attempts != 1 else ""
                say(
                    f"{_progress()} {parameter}={value} completed "
                    f"({outcome.attempts} attempt{plural})"
                )
            else:
                failed[outcome.key] = outcome
                failure = outcome.failure
                if journal is not None:
                    journal.record_failed(
                        outcome.key,
                        parameter=parameter,
                        value=value,
                        attempts=outcome.attempts,
                        kind=failure.kind,
                        error_type=failure.error_type,
                        message=failure.message,
                    )
                say(
                    f"{_progress()} {parameter}={value} FAILED after "
                    f"{outcome.attempts} attempts: {failure.describe()}"
                )

        def on_retry(task, attempt, failure, delay) -> None:
            say(
                f"retrying {parameter}={task_values[task.key]} "
                f"(attempt {attempt} {failure.kind}: {failure.message}; "
                f"backing off {delay:.2f}s)"
            )

        supervisor = Supervisor(
            _sweep_point_worker,
            workers=workers or min(len(tasks) or 1, 4),
            retry=RetryPolicy(
                max_retries=max_retries,
                timeout_seconds=timeout_seconds,
                backoff_seconds=backoff_seconds,
            ),
            chaos=chaos,
            on_outcome=on_outcome,
            on_retry=on_retry,
        )
        try:
            if tasks:
                supervisor.run(tasks)
        except KeyboardInterrupt:
            # Workers are already terminated and every completed point is
            # fsynced in the journal -- surface the checkpoint state.
            raise SweepInterrupted(
                sweep_id=journal_id,
                completed=len(prior) + len(fresh),
                total=len(unique_keys),
                journal_path=str(journal.path) if journal is not None else None,
            ) from None
        finally:
            if journal is not None:
                journal.close()

        # Merge in grid order: journaled points (JSON round-trips ints
        # and floats exactly, so resumed payloads digest identically),
        # fresh outcomes, and structured failures.
        points: List[SweepPoint] = []
        failures: List[PointFailure] = []
        for value, key, _doc in owned:
            if key in prior:
                record = prior[key]
                points.append(
                    SweepPoint(
                        parameter=parameter,
                        value=value,
                        payload=record["payload"],
                        key=key,
                        attempts=int(record.get("attempts", 1)),
                    )
                )
            elif key in fresh:
                outcome = fresh[key]
                points.append(
                    SweepPoint(
                        parameter=parameter,
                        value=value,
                        payload=outcome.result,
                        key=key,
                        attempts=outcome.attempts,
                    )
                )
            elif key in failed:
                outcome = failed[key]
                failure = outcome.failure
                failures.append(
                    PointFailure(
                        parameter=parameter,
                        value=value,
                        key=key,
                        attempts=outcome.attempts,
                        kind=failure.kind,
                        error_type=failure.error_type,
                        message=failure.message,
                    )
                )
        return SweepResult(
            scenario=spec.name,
            parameter=parameter,
            points=tuple(points),
            sweep_id=sweep_id,
            resumed_from=resumed_from,
            failures=tuple(failures),
            shard_index=shard_index if sharded else None,
            shard_count=shards if sharded else None,
            grid_keys=tuple(grid_keys) if sharded else None,
        )

    def profile(self) -> ProfileResult:
        """Run once and report where the simulation time went.

        The kernel accumulates per-event-kind handler timings on every
        run; profiling surfaces that accumulator next to wall-clock time
        and the persistent plan-cache counters (reset at the start of the
        profiled run).
        """
        plancache.reset_stats()
        t0 = time.perf_counter()
        run = self.run()
        wall = time.perf_counter() - t0
        return ProfileResult(
            run=run,
            wall_seconds=wall,
            plan_cache={"enabled": plancache.is_enabled(), **plancache.stats()},
        )

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _build_simulator(spec: ScenarioSpec) -> MultiTenantSimulator:
        return MultiTenantSimulator(
            build_tenants(spec), policy=spec.policy, preemption_rule=spec.preemption
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Experiment({self.name!r})"


def _ensure_registered(
    target: registry.Registry,
    obj: Union[str, Callable],
    name: Optional[str],
    *,
    overwrite: bool = False,
) -> str:
    """Resolve ``obj`` to a registered name, registering callables on the fly."""
    if isinstance(obj, str):
        target.get(obj)  # fail fast on unknown names
        return obj
    resolved = name or target.name_of(obj) or getattr(obj, "__name__", None)
    if not resolved:
        raise ValueError(
            f"cannot derive a registry name for {obj!r}; pass name=..."
        )
    target.register(resolved, obj, overwrite=overwrite)  # idempotent for the same object
    return resolved
