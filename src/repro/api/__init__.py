"""``repro.api`` -- the stable, embeddable public API of the simulator.

This package is the supported surface for programmatic users; everything
the CLI can do routes through it:

* :class:`Experiment` -- load / build / refine / run scenarios
  (``from_yaml``, ``from_dict``, ``from_spec``, ``with_*`` builders,
  ``run``, ``sweep``, ``profile``, ``iter_events``).
* :class:`RunResult` / :class:`SweepResult` / :class:`ProfileResult` --
  typed outcomes whose ``to_dict()`` payloads carry ``schema_version``
  and are frozen as schema v1 (:mod:`repro.api.schema` validates them).
* :class:`RunObserver` / :class:`EventStream` -- streaming lifecycle
  callbacks and step-wise iteration over a live simulation.
* The supervised sweep runtime (:mod:`repro.exec`) -- ``sweep()`` runs
  every grid point under crash/hang supervision with retry + backoff
  (:class:`RetryPolicy`), journaled checkpoint/resume
  (``journal_dir=`` / ``resume=``), structured per-point failures
  (:class:`PointFailure`), :class:`SweepInterrupted` on Ctrl-C and
  registry-backed fault injection (:class:`ChaosPlan`,
  :func:`register_chaos_injector`).
* :class:`InvariantObserver` / :class:`InvariantViolation` /
  :class:`RunContext` -- the runtime invariant engine
  (:mod:`repro.verify`): attach the observer to any run to assert
  conservation, clock and accounting invariants on every event, and
  register custom invariants via :func:`register_invariant`.
* :mod:`repro.registry` (re-exported helpers) -- decorator registration
  of policies, preemption rules, arrival processes, fault models and
  bench sizes, plus ``repro.plugins`` entry-point discovery for
  third-party packages.

Quick start::

    from repro.api import Experiment

    result = Experiment.from_yaml("scenarios/quickstart.yaml").run()
    print(result.summary_table().to_ascii())
    payload = result.to_dict()          # schema_version == 1

The raw simulator result is ``result.raw``; a validated
:class:`~repro.sim.scenario.ScenarioSpec` alone is
``Experiment.from_yaml(path).validate()``, and
``Experiment.from_spec(spec).run()`` runs one.
"""

from repro.api.experiment import EventStream, Experiment, SweepInterrupted
from repro.api.results import (
    SCHEMA_VERSION,
    PointFailure,
    ProfileResult,
    RunResult,
    SweepPoint,
    SweepResult,
    result_digest,
)
from repro.exec import ChaosPlan, RetryPolicy
from repro.api.schema import (
    SchemaError,
    validate_bench_payload,
    validate_profile_payload,
    validate_run_payload,
    validate_sweep_payload,
)
from repro.registry import (
    ENTRY_POINT_GROUP,
    load_entry_point_plugins,
    register_analysis_rule,
    register_arrival_process,
    register_bench_size,
    register_chaos_injector,
    register_fault_model,
    register_fuzz_budget,
    register_invariant,
    register_policy,
    register_preemption_rule,
)
from repro.sim.observers import RunContext, RunObserver
from repro.sim.scenario import ScenarioError, ScenarioSpec
from repro.verify import (
    DifferentialMismatch,
    FuzzBudget,
    InvariantObserver,
    InvariantViolation,
    ScenarioFuzzer,
    run_fuzz_campaign,
)

__all__ = [
    "Experiment",
    "EventStream",
    "RunObserver",
    "RunContext",
    "InvariantObserver",
    "InvariantViolation",
    "DifferentialMismatch",
    "FuzzBudget",
    "ScenarioFuzzer",
    "run_fuzz_campaign",
    "RunResult",
    "SweepResult",
    "SweepPoint",
    "SweepInterrupted",
    "PointFailure",
    "ChaosPlan",
    "RetryPolicy",
    "ProfileResult",
    "SCHEMA_VERSION",
    "result_digest",
    "SchemaError",
    "validate_run_payload",
    "validate_sweep_payload",
    "validate_profile_payload",
    "validate_bench_payload",
    "ScenarioError",
    "ScenarioSpec",
    "ENTRY_POINT_GROUP",
    "load_entry_point_plugins",
    "register_policy",
    "register_preemption_rule",
    "register_arrival_process",
    "register_fault_model",
    "register_bench_size",
    "register_invariant",
    "register_fuzz_budget",
    "register_chaos_injector",
    "register_analysis_rule",
]
