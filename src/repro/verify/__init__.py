"""Property-based verification of the simulator.

This package is the correctness-tooling backbone on top of the golden
digests and the hypothesis suite:

* :mod:`repro.verify.fuzz` -- a seeded scenario generator emitting valid
  random :class:`~repro.sim.scenario.ScenarioSpec` dicts under a
  size/complexity budget (``smoke``/``deep`` presets, extensible through
  :func:`repro.registry.register_fuzz_budget`);
* :mod:`repro.verify.invariants` -- the runtime invariant engine: an
  :class:`InvariantObserver` (built on the streaming
  :class:`~repro.sim.observers.RunObserver` API) that checks
  machine-checkable invariants while a run executes and raises structured
  :class:`InvariantViolation`\\ s;
* :mod:`repro.verify.reference` -- the brute-force reference: the
  exhaustive plan search, the pre-index dispatch sweep and the
  schedulers, simulator and experiment built on them
  (``ReferenceExperiment.from_yaml(path).run()``); imported on use, since
  it builds on :mod:`repro.api`, which imports this package;
* :mod:`repro.verify.oracles` -- differential oracles asserting digest
  equality between the optimised fast path and the reference, and
  between indexed and generic-fallback candidate evaluation;
* :mod:`repro.verify.shrink` -- a greedy failure shrinker producing a
  minimal reproducer scenario for any failing predicate;
* :mod:`repro.verify.campaign` -- the fuzz campaign driver behind
  ``python -m repro fuzz``.
"""

from repro.verify.campaign import FuzzFailure, FuzzReport, run_fuzz_campaign
from repro.verify.fuzz import (
    DEEP_BUDGET,
    SMOKE_BUDGET,
    FuzzBudget,
    ScenarioFuzzer,
    resolve_budget,
    spec_complexity,
)
from repro.verify.invariants import (
    Invariant,
    InvariantObserver,
    InvariantViolation,
    Violation,
)
from repro.verify.oracles import DifferentialMismatch, check_cache_oracle, check_index_oracle
from repro.verify.shrink import shrink_spec, write_reproducer

__all__ = [
    "DEEP_BUDGET",
    "SMOKE_BUDGET",
    "DifferentialMismatch",
    "FuzzBudget",
    "resolve_budget",
    "FuzzFailure",
    "FuzzReport",
    "Invariant",
    "InvariantObserver",
    "InvariantViolation",
    "ScenarioFuzzer",
    "Violation",
    "check_cache_oracle",
    "check_index_oracle",
    "run_fuzz_campaign",
    "shrink_spec",
    "spec_complexity",
    "write_reproducer",
]
