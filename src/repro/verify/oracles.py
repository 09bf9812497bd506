"""Differential oracles: two independent paths must agree bit-for-bit.

The simulator carries two deliberate redundancies that double as
correctness oracles:

* the optimised fast path (memoised views, shared estimate caches,
  incremental candidate indexes) has a brute-force twin in
  :mod:`repro.verify.reference` that re-prices everything from scratch
  -- the two must produce identical results;
* the candidate index compiles registered policies into specialised
  evaluation programs (``static``/``scan1``/``scan2``), with a
  ``generic`` fallback that calls the policy per candidate -- wrapping a
  shipped policy in an anonymous callable forces that fallback, and the
  digest must not change.

Each oracle runs a scenario through both paths and asserts digest
equality (:meth:`repro.api.RunResult.digest` hashes the timing-free
result payload).  A mismatch raises :class:`DifferentialMismatch` with
both digests -- the fuzz campaign shrinks the scenario that produced it.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro import registry

#: Registry name the index oracle temporarily binds its anonymous policy
#: wrapper under (overwritten per call, removed afterwards).
GENERIC_ORACLE_POLICY = "verify-generic-oracle"


class DifferentialMismatch(AssertionError):
    """Two supposedly-identical simulation paths produced different results."""

    def __init__(self, oracle: str, scenario: str, expected: str, actual: str) -> None:
        self.oracle = oracle
        self.scenario = scenario
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"[{oracle}] scenario {scenario!r}: digest {actual} != {expected}"
        )


def check_cache_oracle(
    raw: Mapping[str, Any], *, reference_digest: Optional[str] = None
) -> str:
    """Assert the fast path and :class:`~repro.verify.reference.ReferenceExperiment` agree.

    ``reference_digest`` skips re-running the fast path when the caller
    already has its digest (the fuzz campaign reuses the invariant run's
    result).  Returns the agreed digest.
    """
    from repro.api import Experiment
    from repro.verify.reference import ReferenceExperiment

    if reference_digest is None:
        reference_digest = Experiment.from_dict(dict(raw)).run().digest()
    brute = ReferenceExperiment.from_dict(dict(raw)).run().digest()
    if brute != reference_digest:
        raise DifferentialMismatch(
            "cache-oracle", str(raw.get("name", "?")), reference_digest, brute
        )
    return brute


def check_index_oracle(
    raw: Mapping[str, Any], *, reference_digest: Optional[str] = None
) -> str:
    """Assert indexed and generic-fallback candidate evaluation agree.

    Re-runs the scenario with its policy wrapped in an anonymous callable:
    the wrapper computes the exact same scores but defeats
    :func:`repro.core.candidates.resolve_program`'s classification, so
    every candidate index takes the ``generic`` per-candidate scan.  The
    digest must match the specialised-program run.  Returns the agreed
    digest.
    """
    from repro.api import Experiment

    raw = dict(raw)
    policy_name = str(raw.get("policy", "sjf"))
    base = registry.policies.get(policy_name)
    if reference_digest is None:
        reference_digest = Experiment.from_dict(dict(raw)).run().digest()

    def anonymous_policy(job, state, executor_index):
        return base(job, state, executor_index)

    registry.register_policy(GENERIC_ORACLE_POLICY, anonymous_policy, overwrite=True)
    try:
        raw["policy"] = GENERIC_ORACLE_POLICY
        generic = Experiment.from_dict(raw).run().digest()
    finally:
        registry.policies.unregister(GENERIC_ORACLE_POLICY)
    if generic != reference_digest:
        raise DifferentialMismatch(
            "index-oracle", str(raw.get("name", "?")), reference_digest, generic
        )
    return generic
