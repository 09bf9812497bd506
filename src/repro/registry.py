"""Unified plugin registries for every extensible simulator concept.

One :class:`Registry` instance exists per extension point -- scheduling
*policies*, *preemption rules*, open-loop *arrival processes*, *fault
models* and bench *workload sizes* -- replacing the hand-rolled
``POLICIES`` dict and scattered ``get_*`` lookups.  Registration is a
decorator::

    from repro.registry import register_policy

    @register_policy("my-policy")
    def my_policy(job, state, executor_index):
        return -job.arrival_time

and the name immediately resolves everywhere names are used: scenario
files (``policy: my-policy``), sweep grids (``--values my-policy,sjf``),
:meth:`repro.api.Experiment.with_policy` and the CLI.

Third-party packages ship registrations through the ``repro.plugins``
`importlib.metadata` entry-point group.  Each entry point names either a
module (imported for its registration side effects) or a callable (loaded
and called with no arguments)::

    [project.entry-points."repro.plugins"]
    my-plugin = "my_package.repro_plugin"         # module form
    my-other  = "my_package.plugin:register"      # callable form

Discovery is lazy: installed plugins load the first time a lookup misses
or a registry is enumerated, so pure library users who never name a
plugin pay nothing.  A broken plugin degrades to a ``RuntimeWarning``,
never to an import error in the host application.

Names are case-insensitive (stored lowercase, matching the historical
``get_policy`` behaviour).  Lookup failures raise ``KeyError`` with an
"unknown <kind> ..." message listing the known names -- the message shape
scenario validation has always surfaced to users.
"""

from __future__ import annotations

import warnings
from importlib import import_module
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, TypeVar

#: The entry-point group third-party packages register plugins under.
ENTRY_POINT_GROUP = "repro.plugins"

_T = TypeVar("_T")

_plugins_loaded = False


def _iter_entry_points():
    """All installed ``repro.plugins`` entry points (version-portable)."""
    import importlib.metadata as metadata

    try:
        return list(metadata.entry_points(group=ENTRY_POINT_GROUP))  # py>=3.10
    except TypeError:  # pragma: no cover - exercised on python 3.9
        return list(metadata.entry_points().get(ENTRY_POINT_GROUP, []))


def load_entry_point_plugins(*, force: bool = False) -> List[str]:
    """Load every installed ``repro.plugins`` entry point once per process.

    Returns the names of the entry points loaded by *this* call (empty on
    the cached fast path).  ``force=True`` re-runs discovery -- useful in
    tests and after installing a plugin into a live process.  Loading is
    best-effort: a plugin that raises becomes a ``RuntimeWarning`` naming
    the plugin, and the remaining plugins still load.
    """
    global _plugins_loaded
    if _plugins_loaded and not force:
        return []
    _plugins_loaded = True
    loaded: List[str] = []
    for entry_point in _iter_entry_points():
        try:
            target = entry_point.load()
            # A module registers at import time; a callable registers when
            # called.  ``load()`` already imported the module either way.
            if callable(target):
                target()
            loaded.append(entry_point.name)
        except Exception as exc:
            warnings.warn(
                f"failed to load repro plugin {entry_point.name!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return loaded


class Registry:
    """One named extension point: a case-insensitive name -> object map.

    Parameters
    ----------
    kind:
        Human label used in error messages ("policy", "preemption rule",
        ...).
    seed_module:
        Dotted module path imported lazily before the first lookup or
        enumeration; the module's import side effects register the
        shipped defaults.  Keeping the seeds next to their
        implementations (``repro.core.policies`` registers the shipped
        policies) avoids import cycles with this module.
    """

    def __init__(self, kind: str, *, seed_module: Optional[str] = None) -> None:
        self.kind = kind
        self._seed_module = seed_module
        self._seeded = seed_module is None
        self._entries: Dict[str, Any] = {}

    # -- registration ------------------------------------------------------------

    def register(
        self, name: str, obj: Any = None, *, overwrite: bool = False
    ) -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering the *same* object under its existing name is a
        no-op (so module re-imports stay idempotent); binding an existing
        name to a different object raises unless ``overwrite=True``.
        """
        if obj is None:
            return lambda target: self.register(name, target, overwrite=overwrite)
        # Seed the shipped defaults first, so registering a name that
        # collides with one of them fails HERE (clearly, in user code)
        # instead of later from inside the seed module's import.
        self._ensure_seeded()
        key = self._key(name)
        current = self._entries.get(key)
        if current is not None and current is not obj and not overwrite:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass overwrite=True to replace it"
            )
        self._entries[key] = obj
        return obj

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for tests and live reloads)."""
        self._entries.pop(self._key(name), None)

    # -- lookup ------------------------------------------------------------------

    def get(self, name: str) -> Any:
        """Resolve a name, loading entry-point plugins on a first miss."""
        self._ensure_seeded()
        key = self._key(name)
        if key not in self._entries:
            load_entry_point_plugins()
        try:
            return self._entries[key]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: {sorted(self._entries)}"
            ) from None

    def name_of(self, obj: Any) -> Optional[str]:
        """Reverse lookup: the registered name of ``obj`` (``None`` if absent)."""
        self._ensure_seeded()
        for name, value in self._entries.items():
            if value is obj:
                return name
        return None

    def names(self) -> List[str]:
        """All registered names (shipped defaults plus loaded plugins)."""
        self._ensure_seeded()
        load_entry_point_plugins()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_seeded()
        if self._key(name) in self._entries:
            return True
        # Same fallback as get(): an installed plugin may provide it.
        load_entry_point_plugins()
        return self._key(name) in self._entries

    def view(self) -> "RegistryView":
        """A live read-only :class:`Mapping` over this registry."""
        return RegistryView(self)

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _key(name: str) -> str:
        return str(name).lower()

    def _ensure_seeded(self) -> None:
        if not self._seeded:
            self._seeded = True
            assert self._seed_module is not None
            import_module(self._seed_module)


class RegistryView(Mapping):
    """Read-only ``Mapping`` facade over a :class:`Registry`.

    Backs the historical module-level dicts (``repro.core.policies.
    POLICIES``, ``repro.bench.workloads.SIZES``) so existing call sites --
    ``sorted(POLICIES)``, ``POLICIES["sjf"]``, ``"sjf" in POLICIES`` --
    keep working while the registry stays the single source of truth.
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: Registry) -> None:
        self._registry = registry

    def __getitem__(self, name: str) -> Any:
        return self._registry.get(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry.names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegistryView({self._registry.kind}: {self._registry.names()})"


# -- the extension points -----------------------------------------------------------

#: Scheduling policies: ``f(job, state, executor_index) -> score``.
policies = Registry("policy", seed_module="repro.core.policies")
#: Preemption rules: ``f(arriving, running, state) -> score``.
preemption_rules = Registry("preemption rule", seed_module="repro.core.policies")
#: Open-loop arrival-process factories (see :func:`register_arrival_process`).
arrival_processes = Registry(
    "arrival process", seed_module="repro.workloads.generator"
)
#: Fault models: ``f(tenants, horizon_seconds, **params) -> [FaultSpec]``.
fault_models = Registry("fault model", seed_module="repro.sim.faultmodels")
#: Bench workload sizes: :class:`repro.bench.workloads.BenchSize` values.
bench_sizes = Registry("bench size", seed_module="repro.bench.workloads")
#: Runtime invariants: zero-argument factories producing
#: :class:`repro.verify.invariants.Invariant` checkers.
invariants = Registry("invariant", seed_module="repro.verify.invariants")
#: Fuzz budget presets: :class:`repro.verify.fuzz.FuzzBudget` values.
fuzz_budgets = Registry("fuzz budget", seed_module="repro.verify.fuzz")
#: Chaos injectors: ``f(*, key, attempt, **params) -> None`` fault hooks
#: fired inside supervised worker attempts (see :mod:`repro.exec.chaos`).
chaos_injectors = Registry("chaos injector", seed_module="repro.exec.chaos")
#: Static-analysis lint rules: zero-argument factories producing
#: :class:`repro.analysis.core.AnalysisRule` instances.  Registered
#: names are addressable as ``repro lint --rule <name>`` and every
#: registered rule runs by default; see ``docs/static-analysis.md``.
analysis_rules = Registry("analysis rule", seed_module="repro.analysis.rules")


def register_policy(name: str, policy: Any = None, *, overwrite: bool = False):
    """Register a scheduling policy (decorator or direct call)."""
    return policies.register(name, policy, overwrite=overwrite)


def register_preemption_rule(name: str, rule: Any = None, *, overwrite: bool = False):
    """Register a preemption rule (decorator or direct call)."""
    return preemption_rules.register(name, rule, overwrite=overwrite)


def register_arrival_process(name: str, factory: Any = None, *, overwrite: bool = False):
    """Register an open-loop arrival-process factory.

    The factory is called with the keyword arguments of
    :meth:`repro.workloads.generator.TenantWorkloadSpec.build_arrival_process`
    (``name``, ``arrival_rate_per_hour``, ``models``, ``job_type``,
    ``deadline_fraction``, ``deadline_slack_factor``, ``seed``,
    ``end_time``) and must return an iterable of
    :class:`~repro.core.scheduler.FillJob` in arrival-time order.
    """
    return arrival_processes.register(name, factory, overwrite=overwrite)


def register_fault_model(name: str, model: Any = None, *, overwrite: bool = False):
    """Register a fault model: ``f(tenants, horizon_seconds, **params)``.

    ``tenants`` is the scenario's parsed
    :class:`~repro.sim.scenario.TenantSpec` sequence; the model returns the
    :class:`~repro.sim.kernel.FaultSpec` list to schedule.
    """
    return fault_models.register(name, model, overwrite=overwrite)


def register_bench_size(size: Any, *, overwrite: bool = False) -> Any:
    """Register a :class:`~repro.bench.workloads.BenchSize` under its name."""
    return bench_sizes.register(size.name, size, overwrite=overwrite)


def register_invariant(name: str, factory: Any = None, *, overwrite: bool = False):
    """Register a runtime invariant (decorator or direct call).

    ``factory`` is a zero-argument callable (typically an
    :class:`~repro.verify.invariants.Invariant` subclass) producing a
    fresh checker per run; every default-constructed
    :class:`~repro.verify.invariants.InvariantObserver` checks all
    registered invariants, so plugins extend the verification surface by
    registering here (directly or via ``repro.plugins`` entry points).
    """
    return invariants.register(name, factory, overwrite=overwrite)


def register_fuzz_budget(budget: Any, *, overwrite: bool = False) -> Any:
    """Register a :class:`~repro.verify.fuzz.FuzzBudget` under its name."""
    return fuzz_budgets.register(budget.name, budget, overwrite=overwrite)


def register_chaos_injector(name: str, injector: Any = None, *, overwrite: bool = False):
    """Register a chaos injector (decorator or direct call).

    Injectors are called as ``injector(key=..., attempt=..., **params)``
    inside a supervised attempt, before the task body runs; whatever they
    raise (or do to the process) is what the supervisor must survive.
    Registered names are addressable from ``repro sweep --chaos <name>``.
    """
    return chaos_injectors.register(name, injector, overwrite=overwrite)


def register_analysis_rule(name: str, rule: Any = None, *, overwrite: bool = False):
    """Register a static-analysis lint rule (decorator or direct call).

    ``rule`` is a zero-argument callable (typically an
    :class:`~repro.analysis.core.AnalysisRule` subclass) producing a
    fresh rule instance per lint run.  ``python -m repro lint`` runs
    every registered rule, so plugins extend the static verification
    surface exactly like invariants extend the dynamic one (directly or
    via ``repro.plugins`` entry points).
    """
    return analysis_rules.register(name, rule, overwrite=overwrite)


def resolve_policy(policy: Any) -> Callable:
    """A policy callable from either a registered name or a callable.

    The ergonomic glue that lets ``MultiTenantSimulator(policy="sjf")``
    and scenario specs share one resolution path.
    """
    if callable(policy):
        return policy
    return policies.get(policy)


def resolve_preemption_rule(rule: Any) -> Optional[Callable]:
    """Like :func:`resolve_policy`, for preemption rules (``None`` passes)."""
    if rule is None or callable(rule):
        return rule
    return preemption_rules.get(rule)


def policy_name(policy: Any) -> Optional[str]:
    """The registered name of a policy callable (``None`` when anonymous).

    Sweep grids, scenario files and the persistent plan-cache key all
    identify policies by *name*; a custom callable only becomes usable
    there once registered (see :func:`register_policy` and
    :meth:`repro.api.Experiment.with_policy`).
    """
    if isinstance(policy, str):
        return Registry._key(policy) if policy in policies else None
    return policies.name_of(policy)
