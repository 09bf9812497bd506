"""Declarative scenario specs for multi-tenant cluster simulations.

A *scenario* is a YAML or JSON file describing everything one simulation
run needs: the tenants (each a pipeline-parallel main job plus the fill-job
stream it submits), the global scheduling policy, the preemption rule and
the horizon.  ``python -m repro run scenarios/multi_tenant.yaml`` loads a
spec with ``repro.api.Experiment.from_yaml`` and executes it with
``Experiment.run``; ``python -m repro sweep`` re-runs a spec across a
parameter grid.

The full field-by-field schema is documented in ``docs/scenarios.md``; the
shape is::

    name: two-tenant-demo
    horizon_seconds: 3600
    policy: sjf                  # any repro.core.policies.POLICIES key
    preemption: deadline         # optional PREEMPTION_RULES key
    seed: 0
    tenants:
      - name: llm-40b-8k
        model: gpt-40b           # main-job model registry name
        schedule: gpipe          # or 1f1b
        join_at: 600             # optional: devices join mid-run
        leave_at: 3000           # optional: ... and leave again
        leave_mode: requeue      # drain (default) or requeue
        parallel:
          tensor_parallel: 8
          pipeline_stages: 16
          data_parallel: 64
          microbatch_size: 2
          global_batch_size: 1024
        workload:
          arrival_rate_per_hour: 200
          models: [bert-base]    # optional Table 1 subset
          deadline_fraction: 0.3 # optional
          open_loop: true        # stream arrivals lazily (long horizons)
          arrival_process: poisson   # registered open-loop source
    faults:                      # optional scheduled executor failures
      - tenant: llm-40b-8k
        executor: 3
        fail_at: 1200
        recover_at: 2400         # omit for a permanent failure
    fault_model:                 # optional *generated* failures
      name: periodic-waves       # any registered fault model
      waves: 6
    sweep:                       # optional, used by `repro sweep`
      parameter: policy
      values: [sjf, edf+sjf]

``policy``, ``preemption``, ``workload.arrival_process`` and
``fault_model.name`` all resolve through the unified registries
(:mod:`repro.registry`), so plugin-registered extensions are addressable
from scenario files exactly like the shipped ones.

Unknown keys raise immediately with the offending key name, so typos in a
scenario file fail loudly instead of silently running defaults.
``python -m repro validate <scenario>`` runs exactly this validation
without simulating anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro import registry

from repro.core.config import PipeFillConfig
from repro.core.policies import get_policy, get_preemption_rule
from repro.core.system import PipeFillSystem
from repro.models.configs import JobType
from repro.models.registry import build_model
from repro.pipeline.parallelism import ParallelConfig
from repro.sim.kernel import FaultSpec
from repro.sim.multi_tenant import LEAVE_MODES, Tenant
from repro.utils.units import GIB
from repro.utils.validation import check_positive
from repro.workloads.generator import TenantWorkloadSpec, build_tenant_fill_job_traces


class ScenarioError(ValueError):
    """A scenario file is malformed (bad key, type or value)."""


def _require_mapping(raw: Any, where: str) -> Mapping[str, Any]:
    """Coerce a possibly-empty YAML block into a mapping or fail loudly."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ScenarioError(f"{where} must be a mapping, got {type(raw).__name__}")
    return raw


def _require_keys(raw: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def workload_from_dict(raw: Mapping[str, Any], *, where: str) -> TenantWorkloadSpec:
    """Parse a tenant's ``workload`` block into a
    :class:`~repro.workloads.generator.TenantWorkloadSpec` (the tenant's
    name is filled in later from the enclosing tenant block)."""
    raw = _require_mapping(raw, where)
    _require_keys(
        raw,
        [
            "arrival_rate_per_hour",
            "models",
            "job_type",
            "deadline_fraction",
            "deadline_slack_factor",
            "seed",
            "open_loop",
            "arrival_process",
        ],
        where,
    )
    job_type = raw.get("job_type")
    if job_type is not None:
        try:
            job_type = JobType(job_type)
        except ValueError:
            raise ScenarioError(
                f"bad job_type {job_type!r} in {where}; "
                f"use one of {[t.value for t in JobType]}"
            ) from None
    open_loop = raw.get("open_loop", False)
    if not isinstance(open_loop, bool):
        raise ScenarioError(f"open_loop in {where} must be a boolean, got {open_loop!r}")
    arrival_process = str(raw.get("arrival_process", "poisson"))
    try:
        registry.arrival_processes.get(arrival_process)  # validate eagerly
    except KeyError as exc:
        raise ScenarioError(f"{where}: {exc.args[0]}") from None
    return TenantWorkloadSpec(
        arrival_rate_per_hour=float(raw.get("arrival_rate_per_hour", 120.0)),
        models=raw.get("models"),
        job_type=job_type,
        deadline_fraction=float(raw.get("deadline_fraction", 0.0)),
        deadline_slack_factor=float(raw.get("deadline_slack_factor", 4.0)),
        seed=raw.get("seed"),
        open_loop=open_loop,
        arrival_process=arrival_process,
    )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a main job's configuration plus its workload stream.

    ``join_at``/``leave_at`` make the tenant *elastic*: its devices enter
    the cluster at ``join_at`` (default: present from the start) and leave
    again at ``leave_at``; ``leave_mode`` picks what happens to fill jobs
    placed on it when it leaves (``drain`` or ``requeue``).
    """

    name: str
    model: str = "gpt-40b"
    schedule: str = "gpipe"
    parallel: Mapping[str, int] = field(
        default_factory=lambda: {
            "tensor_parallel": 8,
            "pipeline_stages": 16,
            "data_parallel": 64,
            "microbatch_size": 2,
            "global_batch_size": 1024,
        }
    )
    devices_per_stage: int = 1
    fill_fraction: Optional[float] = None
    offload_main_job: bool = False
    bubble_free_memory_gib: Optional[float] = None
    workload: TenantWorkloadSpec = field(default_factory=TenantWorkloadSpec)
    join_at: Optional[float] = None
    leave_at: Optional[float] = None
    leave_mode: str = "drain"

    def __post_init__(self) -> None:
        if self.leave_mode not in LEAVE_MODES:
            raise ScenarioError(
                f"tenant {self.name!r}: leave_mode must be one of "
                f"{sorted(LEAVE_MODES)}, got {self.leave_mode!r}"
            )
        for label, value in (("join_at", self.join_at), ("leave_at", self.leave_at)):
            if value is not None and float(value) < 0:
                raise ScenarioError(
                    f"tenant {self.name!r}: {label} must be >= 0, got {value}"
                )
        if (
            self.join_at is not None
            and self.leave_at is not None
            and float(self.leave_at) <= float(self.join_at)
        ):
            raise ScenarioError(
                f"tenant {self.name!r}: leave_at ({self.leave_at}) must be "
                f"after join_at ({self.join_at})"
            )

    @property
    def num_executors(self) -> int:
        """Executor count of this tenant (one per representative device)."""
        return int(self.parallel["pipeline_stages"]) * self.devices_per_stage

    @staticmethod
    def from_dict(raw: Mapping[str, Any]) -> "TenantSpec":
        raw = _require_mapping(raw, "tenant block")
        name = raw.get("name")
        if not name:
            raise ScenarioError("every tenant needs a non-empty 'name'")
        where = f"tenant {name!r}"
        _require_keys(
            raw,
            [
                "name",
                "model",
                "schedule",
                "parallel",
                "devices_per_stage",
                "fill_fraction",
                "offload_main_job",
                "bubble_free_memory_gib",
                "workload",
                "join_at",
                "leave_at",
                "leave_mode",
            ],
            where,
        )
        parallel = _require_mapping(raw.get("parallel"), f"{where}.parallel")
        _require_keys(
            parallel,
            [
                "tensor_parallel",
                "pipeline_stages",
                "data_parallel",
                "microbatch_size",
                "global_batch_size",
            ],
            f"{where}.parallel",
        )
        defaults = TenantSpec(name=name)
        join_at = raw.get("join_at")
        leave_at = raw.get("leave_at")
        return TenantSpec(
            name=name,
            model=raw.get("model", defaults.model),
            schedule=raw.get("schedule", defaults.schedule),
            parallel={**defaults.parallel, **parallel},
            devices_per_stage=int(raw.get("devices_per_stage", 1)),
            fill_fraction=raw.get("fill_fraction"),
            offload_main_job=bool(raw.get("offload_main_job", False)),
            bubble_free_memory_gib=raw.get("bubble_free_memory_gib"),
            workload=workload_from_dict(
                raw.get("workload"), where=f"{where}.workload"
            ),
            join_at=None if join_at is None else float(join_at),
            leave_at=None if leave_at is None else float(leave_at),
            leave_mode=str(raw.get("leave_mode", "drain")),
        )

    def build_parallel(self) -> ParallelConfig:
        """The tenant's :class:`~repro.pipeline.parallelism.ParallelConfig`."""
        return ParallelConfig(**{k: int(v) for k, v in self.parallel.items()})

    def build_system(self) -> PipeFillSystem:
        """Instantiate the tenant's main job, bubble cycles and executors."""
        config = PipeFillConfig(offload_main_job=self.offload_main_job)
        if self.fill_fraction is not None:
            config = config.with_fill_fraction(float(self.fill_fraction))
        free_bytes = (
            None
            if self.bubble_free_memory_gib is None
            else float(self.bubble_free_memory_gib) * GIB
        )
        return PipeFillSystem(
            build_model(self.model),
            self.build_parallel(),
            schedule=self.schedule,
            config=config,
            devices_per_stage=self.devices_per_stage,
            bubble_free_memory_bytes=free_bytes,
        )


def fault_from_dict(raw: Mapping[str, Any], *, index: int) -> FaultSpec:
    """Parse one entry of the top-level ``faults:`` list."""
    where = f"faults[{index}]"
    raw = _require_mapping(raw, where)
    _require_keys(raw, ["tenant", "executor", "fail_at", "recover_at"], where)
    tenant = raw.get("tenant")
    if not tenant:
        raise ScenarioError(f"{where} needs a non-empty 'tenant'")
    if "executor" not in raw or "fail_at" not in raw:
        raise ScenarioError(f"{where} needs 'executor' and 'fail_at'")
    recover_at = raw.get("recover_at")
    try:
        return FaultSpec(
            executor_index=int(raw["executor"]),
            fail_at=float(raw["fail_at"]),
            recover_at=None if recover_at is None else float(recover_at),
            tenant=str(tenant),
        )
    except ValueError as exc:
        raise ScenarioError(f"bad {where}: {exc}") from None


def faults_from_model(
    raw: Mapping[str, Any],
    tenants: Sequence[TenantSpec],
    horizon_seconds: float,
) -> Sequence[FaultSpec]:
    """Materialize the ``fault_model`` block into concrete fault specs.

    The block names a registered fault model and passes every other key
    through as a keyword parameter; the generated faults are validated
    exactly like an explicit ``faults:`` list.
    """
    raw = _require_mapping(raw, "fault_model")
    name = raw.get("name")
    if not name:
        raise ScenarioError("fault_model needs a 'name' (a registered fault model)")
    try:
        model = registry.fault_models.get(str(name))
    except KeyError as exc:
        raise ScenarioError(exc.args[0]) from None
    params = {k: v for k, v in raw.items() if k != "name"}
    try:
        faults = model(tenants, float(horizon_seconds), **params)
    except TypeError as exc:
        raise ScenarioError(f"fault_model {name!r}: {exc}") from None
    except ValueError as exc:
        raise ScenarioError(f"fault_model {name!r}: {exc}") from None
    return tuple(faults)


@dataclass(frozen=True)
class SweepSpec:
    """The optional ``sweep`` block: one dotted parameter path and values."""

    parameter: str
    values: Sequence[Any]

    @staticmethod
    def from_dict(raw: Mapping[str, Any]) -> "SweepSpec":
        raw = _require_mapping(raw, "sweep")
        _require_keys(raw, ["parameter", "values"], "sweep")
        parameter = raw.get("parameter")
        values = raw.get("values")
        if not parameter or not isinstance(values, (list, tuple)) or not values:
            raise ScenarioError("sweep needs a 'parameter' and a non-empty 'values' list")
        return SweepSpec(parameter=str(parameter), values=list(values))


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-validated multi-tenant simulation scenario."""

    name: str
    tenants: Sequence[TenantSpec]
    description: str = ""
    horizon_seconds: float = 3600.0
    policy: str = "sjf"
    preemption: Optional[str] = None
    seed: int = 0
    faults: Sequence[FaultSpec] = ()
    sweep: Optional[SweepSpec] = None

    def __post_init__(self) -> None:
        check_positive(self.horizon_seconds, "horizon_seconds")
        if not self.tenants:
            raise ScenarioError("a scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ScenarioError(f"tenant names must be unique, got {names}")
        try:
            get_policy(self.policy)  # validate eagerly
            if self.preemption is not None:
                get_preemption_rule(self.preemption)
        except KeyError as exc:
            raise ScenarioError(exc.args[0]) from None
        by_name = {t.name: t for t in self.tenants}
        for i, fault in enumerate(self.faults):
            tenant = by_name.get(fault.tenant or "")
            if tenant is None:
                raise ScenarioError(
                    f"faults[{i}] names unknown tenant {fault.tenant!r}; "
                    f"tenants: {sorted(by_name)}"
                )
            if not 0 <= fault.executor_index < tenant.num_executors:
                raise ScenarioError(
                    f"faults[{i}]: executor {fault.executor_index} out of range "
                    f"for tenant {fault.tenant!r} "
                    f"({tenant.num_executors} executors: pipeline_stages x "
                    f"devices_per_stage)"
                )

    @staticmethod
    def from_dict(raw: Mapping[str, Any]) -> "ScenarioSpec":
        _require_keys(
            raw,
            [
                "name",
                "description",
                "horizon_seconds",
                "policy",
                "preemption",
                "seed",
                "tenants",
                "faults",
                "fault_model",
                "sweep",
            ],
            "scenario",
        )
        tenants_raw = raw.get("tenants")
        if not isinstance(tenants_raw, (list, tuple)):
            raise ScenarioError("'tenants' must be a list of tenant blocks")
        faults_raw = raw.get("faults") or ()
        if not isinstance(faults_raw, (list, tuple)):
            raise ScenarioError("'faults' must be a list of fault blocks")
        sweep = raw.get("sweep")
        tenants = tuple(TenantSpec.from_dict(t) for t in tenants_raw)
        horizon_seconds = float(raw.get("horizon_seconds", 3600.0))
        faults = tuple(fault_from_dict(f, index=i) for i, f in enumerate(faults_raw))
        # A fault_model block *generates* additional faults from the parsed
        # tenants; they are materialized here so the resulting spec always
        # carries one explicit, fully-validated fault list.
        fault_model = raw.get("fault_model")
        if fault_model is not None:
            faults = faults + tuple(
                faults_from_model(fault_model, tenants, horizon_seconds)
            )
        return ScenarioSpec(
            name=str(raw.get("name", "unnamed-scenario")),
            description=str(raw.get("description", "")),
            horizon_seconds=horizon_seconds,
            policy=str(raw.get("policy", "sjf")),
            preemption=raw.get("preemption"),
            seed=int(raw.get("seed", 0)),
            tenants=tenants,
            faults=faults,
            sweep=None if sweep is None else SweepSpec.from_dict(sweep),
        )


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Serialize a :class:`ScenarioSpec` back to its raw-dict scenario form.

    The inverse of :meth:`ScenarioSpec.from_dict`:
    ``ScenarioSpec.from_dict(spec_to_dict(spec)) == spec`` for any valid
    spec.  ``fault_model`` blocks do not survive the round trip -- they
    are materialized into the explicit ``faults`` list at parse time --
    but the resulting scenario is semantically identical.  This is what
    lets :class:`repro.api.Experiment` apply dotted-path overrides to
    programmatically-built specs.
    """
    raw: Dict[str, Any] = {
        "name": spec.name,
        "description": spec.description,
        "horizon_seconds": spec.horizon_seconds,
        "policy": spec.policy,
        "seed": spec.seed,
        "tenants": [],
    }
    if spec.preemption is not None:
        raw["preemption"] = spec.preemption
    for t in spec.tenants:
        workload: Dict[str, Any] = {
            "arrival_rate_per_hour": t.workload.arrival_rate_per_hour,
            "deadline_fraction": t.workload.deadline_fraction,
            "deadline_slack_factor": t.workload.deadline_slack_factor,
            "open_loop": t.workload.open_loop,
            "arrival_process": t.workload.arrival_process,
        }
        if t.workload.models is not None:
            workload["models"] = list(t.workload.models)
        if t.workload.job_type is not None:
            workload["job_type"] = t.workload.job_type.value
        if t.workload.seed is not None:
            workload["seed"] = t.workload.seed
        tenant: Dict[str, Any] = {
            "name": t.name,
            "model": t.model,
            "schedule": t.schedule,
            "parallel": dict(t.parallel),
            "devices_per_stage": t.devices_per_stage,
            "offload_main_job": t.offload_main_job,
            "workload": workload,
            "leave_mode": t.leave_mode,
        }
        if t.fill_fraction is not None:
            tenant["fill_fraction"] = t.fill_fraction
        if t.bubble_free_memory_gib is not None:
            tenant["bubble_free_memory_gib"] = t.bubble_free_memory_gib
        if t.join_at is not None:
            tenant["join_at"] = t.join_at
        if t.leave_at is not None:
            tenant["leave_at"] = t.leave_at
        raw["tenants"].append(tenant)
    if spec.faults:
        raw["faults"] = []
        for f in spec.faults:
            fault: Dict[str, Any] = {
                "tenant": f.tenant,
                "executor": f.executor_index,
                "fail_at": f.fail_at,
            }
            if f.recover_at is not None:
                fault["recover_at"] = f.recover_at
            raw["faults"].append(fault)
    if spec.sweep is not None:
        raw["sweep"] = {
            "parameter": spec.sweep.parameter,
            "values": list(spec.sweep.values),
        }
    return raw


# -- loading -----------------------------------------------------------------------


def _parse_text(text: str, *, suffix: str) -> Dict[str, Any]:
    if suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - yaml ships with the image
            raise ScenarioError(
                "PyYAML is not installed; use a .json scenario instead"
            ) from exc
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"invalid YAML: {exc}") from None
    elif suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from None
    else:
        raise ScenarioError(f"unsupported scenario extension {suffix!r} (use .yaml/.json)")
    if not isinstance(data, dict):
        raise ScenarioError("a scenario file must contain a single mapping at top level")
    return data


def load_scenario_dict(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a scenario file into its raw (unvalidated) dictionary."""
    path = Path(path)
    return _parse_text(path.read_text(), suffix=path.suffix.lower())


def set_by_path(raw: Dict[str, Any], path: str, value: Any) -> None:
    """Set ``raw[a][b][2][c] = value`` given the dotted path ``"a.b.2.c"``.

    Integer segments index lists; the final segment may create a new
    mapping key.  Used by sweeps to override one scenario parameter.
    """
    segments = path.split(".")
    node: Any = raw
    for segment in segments[:-1]:
        if isinstance(node, list):
            node = node[int(segment)]
        elif isinstance(node, dict):
            if segment not in node:
                node[segment] = {}
            node = node[segment]
        else:
            raise ScenarioError(f"cannot descend into {segment!r} along path {path!r}")
    last = segments[-1]
    if isinstance(node, list):
        node[int(last)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ScenarioError(f"cannot set {last!r} along path {path!r}")


# -- running -----------------------------------------------------------------------


def build_tenants(spec: ScenarioSpec) -> List[Tenant]:
    """Instantiate every tenant's system and its fill-job arrival stream.

    Closed-loop workloads are materialized up front (the trace pipeline);
    ``open_loop: true`` workloads become lazy
    :class:`~repro.workloads.generator.ArrivalProcess` streams the
    simulator pulls one arrival at a time, bounded by the scenario
    horizon.  Per-tenant seeds derive from the base seed and the tenant's
    position either way, so toggling one tenant's mode does not perturb
    the other tenants' streams.
    """
    # One deterministic seed per tenant *position* (the derivation
    # build_tenant_fill_job_traces applies), fixed here so that toggling a
    # tenant between closed- and open-loop never perturbs its neighbours.
    tenant_seeds = {
        t.name: (
            t.workload.seed
            if t.workload.seed is not None
            else spec.seed + 7919 * (index + 1)
        )
        for index, t in enumerate(spec.tenants)
    }
    closed = [
        replace(t.workload, name=t.name, seed=tenant_seeds[t.name])
        for t in spec.tenants
        if not t.workload.open_loop
    ]
    streams = (
        build_tenant_fill_job_traces(spec.horizon_seconds, closed, seed=spec.seed)
        if closed
        else {}
    )
    tenants: List[Tenant] = []
    for t in spec.tenants:
        process = None
        if t.workload.open_loop:
            process = replace(t.workload, name=t.name).build_arrival_process(
                seed=tenant_seeds[t.name],
                end_time=spec.horizon_seconds,
            )
        tenants.append(
            Tenant(
                name=t.name,
                system=t.build_system(),
                jobs=streams.get(t.name, ()),
                arrival_process=process,
                join_at=t.join_at,
                leave_at=t.leave_at,
                leave_mode=t.leave_mode,
            )
        )
    return tenants
