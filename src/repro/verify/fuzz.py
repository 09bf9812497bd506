"""Seeded scenario generator: valid random specs under a complexity budget.

:class:`ScenarioFuzzer` emits raw scenario dictionaries -- the exact shape
``scenarios/*.yaml`` files parse to -- drawn from a seeded RNG: random
cluster shapes, tenant mixes, deadline/slack policies, fault waves,
elastic join/leave schedules and open-loop arrivals.  Every emitted spec
passes ``python -m repro validate`` *and* builds (the generator pins an
explicit ``bubble_free_memory_gib`` so small pipeline shapes never run
out of modeled bubble memory), so each one can be run end-to-end by the
invariant engine and the differential oracles.

Generation is deterministic per ``(seed, budget, index)``: the RNG is
seeded from a string key, so the same campaign always replays the same
scenarios regardless of interpreter hash randomization.

The size/complexity knob is a :class:`FuzzBudget`.  Two presets ship --
``smoke`` (CI-sized: few tenants, short horizons, a small model pool
whose plan shapes amortize across runs) and ``deep`` (bigger everything)
-- registered in :data:`repro.registry.fuzz_budgets`, so plugins can add
their own presets and ``python -m repro fuzz --budget <name>`` resolves
them by name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.registry import fuzz_budgets, register_fuzz_budget
from repro.sim.scenario import ScenarioSpec

#: Shipped scheduling policies the fuzzer draws from (kept explicit so a
#: plugin-registered policy never leaks into fuzzed specs by surprise).
POLICY_POOL: Tuple[str, ...] = (
    "edf",
    "edf+sjf",
    "fifo",
    "makespan",
    "sjf",
    "slack",
    "slack+sjf",
)

#: Explicit bubble free-memory choices (GiB).  Always set: the default
#: memory model leaves tiny pipelines without bubble memory, which fails
#: at *build* time even though the spec validates.
MEMORY_POOL: Tuple[float, ...] = (3.0, 4.0, 6.0)


@dataclass(frozen=True)
class FuzzBudget:
    """Size/complexity ceiling for generated scenarios.

    Every numeric field is a maximum and every pool a superset bound, so
    budgets are partially ordered: the ``deep`` preset dominates
    ``smoke`` field-by-field (the budget-monotonicity tests assert it).
    """

    name: str
    max_tenants: int
    stage_pool: Tuple[int, ...]
    data_parallel_pool: Tuple[int, ...]
    fill_models: Tuple[str, ...]
    max_arrival_rate_per_hour: float
    min_horizon_seconds: float
    max_horizon_seconds: float
    max_faults: int
    allow_elastic: bool = True
    allow_open_loop: bool = True
    allow_fault_model: bool = True

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {self.max_tenants}")
        if not self.stage_pool or not self.fill_models:
            raise ValueError("stage_pool and fill_models must be non-empty")
        if not 0 < self.min_horizon_seconds <= self.max_horizon_seconds:
            raise ValueError(
                f"horizon bounds must satisfy 0 < min <= max, got "
                f"[{self.min_horizon_seconds}, {self.max_horizon_seconds}]"
            )


#: CI-sized preset: small tenant counts and a tight shape pool so the
#: process-wide estimate caches amortize across a whole campaign.
SMOKE_BUDGET = FuzzBudget(
    name="smoke",
    max_tenants=3,
    stage_pool=(2, 3, 4),
    data_parallel_pool=(1, 2),
    fill_models=("bert-base", "efficientnet"),
    max_arrival_rate_per_hour=240.0,
    min_horizon_seconds=300.0,
    max_horizon_seconds=1800.0,
    max_faults=4,
)

#: Overnight preset: more tenants, deeper pipelines, longer horizons.
DEEP_BUDGET = FuzzBudget(
    name="deep",
    max_tenants=6,
    stage_pool=(2, 3, 4, 6, 8),
    data_parallel_pool=(1, 2, 4),
    fill_models=("bert-base", "efficientnet", "bert-large", "swin-large"),
    max_arrival_rate_per_hour=480.0,
    min_horizon_seconds=300.0,
    max_horizon_seconds=7200.0,
    max_faults=10,
)

register_fuzz_budget(SMOKE_BUDGET)
register_fuzz_budget(DEEP_BUDGET)


def resolve_budget(budget: Union[str, FuzzBudget]) -> FuzzBudget:
    """A :class:`FuzzBudget` from a preset name or an instance."""
    if isinstance(budget, FuzzBudget):
        return budget
    return fuzz_budgets.get(budget)


def spec_complexity(raw: Mapping[str, Any]) -> Tuple[int, int, int, float]:
    """A shrink-comparable complexity measure of a raw scenario dict.

    Returns ``(tenants, faults, executors, horizon)``; the shrinker only
    accepts candidates that strictly reduce this tuple's sum-of-parts,
    and the budget tests assert generated specs stay within their
    budget's ceilings.
    """
    tenants = raw.get("tenants") or ()
    executors = 0
    for tenant in tenants:
        parallel = tenant.get("parallel") or {}
        stages = int(parallel.get("pipeline_stages", 16))
        executors += stages * int(tenant.get("devices_per_stage", 1))
    return (
        len(tenants),
        len(raw.get("faults") or ()),
        executors,
        float(raw.get("horizon_seconds", 3600.0)),
    )


class ScenarioFuzzer:
    """Deterministic generator of valid random scenario dicts.

    Parameters
    ----------
    seed:
        Campaign seed; together with the budget name and the spec index
        it fully determines each emitted spec.
    budget:
        A :class:`FuzzBudget` or registered preset name (``"smoke"``,
        ``"deep"``, or anything added via
        :func:`repro.registry.register_fuzz_budget`).
    """

    def __init__(
        self,
        seed: int = 0,
        budget: Union[str, FuzzBudget] = "smoke",
    ) -> None:
        self.seed = int(seed)
        self.budget = resolve_budget(budget)

    def _rng(self, index: int) -> random.Random:
        # String seeding hashes via sha512 (seed version 2): stable across
        # processes and interpreter hash randomization.
        return random.Random(f"repro-fuzz:{self.seed}:{self.budget.name}:{index}")

    def _tenant_dict(
        self, rng: random.Random, index: int, horizon: float
    ) -> Dict[str, Any]:
        budget = self.budget
        stages = rng.choice(budget.stage_pool)
        data_parallel = rng.choice(budget.data_parallel_pool)
        k = rng.randint(1, len(budget.fill_models))
        models = sorted(rng.sample(budget.fill_models, k))
        deadline_fraction = rng.choice((0.0, 0.0, 0.3, 0.6))
        workload: Dict[str, Any] = {
            "arrival_rate_per_hour": round(
                rng.uniform(10.0, budget.max_arrival_rate_per_hour), 1
            ),
            "models": models,
        }
        if deadline_fraction > 0:
            workload["deadline_fraction"] = deadline_fraction
            workload["deadline_slack_factor"] = round(rng.uniform(2.0, 8.0), 1)
        if budget.allow_open_loop and rng.random() < 0.4:
            workload["open_loop"] = True
        tenant: Dict[str, Any] = {
            "name": f"tenant-{index}",
            "model": "gpt-5b",
            "parallel": {
                "tensor_parallel": 1,
                "pipeline_stages": stages,
                "data_parallel": data_parallel,
                "microbatch_size": 2,
                # Divisible by microbatch_size * data_parallel for every
                # pool value, and scales with depth like the shipped specs.
                "global_batch_size": 4 * stages,
            },
            "bubble_free_memory_gib": rng.choice(MEMORY_POOL),
            "workload": workload,
        }
        if budget.allow_elastic and rng.random() < 0.4:
            shape = rng.random()
            join_at: Optional[float] = None
            leave_at: Optional[float] = None
            if shape < 0.4:
                join_at = round(rng.uniform(0.0, horizon * 0.5), 1)
            elif shape < 0.7:
                leave_at = round(rng.uniform(horizon * 0.3, horizon), 1)
            else:
                join_at = round(rng.uniform(0.0, horizon * 0.4), 1)
                leave_at = round(rng.uniform(join_at + 1.0, horizon), 1)
            if join_at is not None:
                tenant["join_at"] = join_at
            if leave_at is not None:
                tenant["leave_at"] = leave_at
                tenant["leave_mode"] = rng.choice(("drain", "requeue"))
        return tenant

    def spec_dict(self, index: int = 0) -> Dict[str, Any]:
        """The raw scenario dict for one ``(seed, budget, index)`` triple."""
        rng = self._rng(index)
        budget = self.budget
        horizon = float(
            round(rng.uniform(budget.min_horizon_seconds, budget.max_horizon_seconds))
        )
        num_tenants = rng.randint(1, budget.max_tenants)
        tenants = [self._tenant_dict(rng, i, horizon) for i in range(num_tenants)]
        raw: Dict[str, Any] = {
            "name": f"fuzz-{self.seed}-{index}",
            "description": (
                f"generated by ScenarioFuzzer(seed={self.seed}, "
                f"budget={budget.name!r}) at index {index}"
            ),
            "horizon_seconds": horizon,
            "policy": rng.choice(POLICY_POOL),
            "seed": rng.randrange(2**16),
            "tenants": tenants,
        }
        if any(t["workload"].get("deadline_fraction") for t in tenants):
            if rng.random() < 0.5:
                raw["preemption"] = "deadline"
        num_faults = rng.randint(0, budget.max_faults)
        faults = []
        for _ in range(num_faults):
            tenant = rng.choice(tenants)
            parallel = tenant["parallel"]
            executors = parallel["pipeline_stages"] * tenant.get(
                "devices_per_stage", 1
            )
            fail_at = round(rng.uniform(0.0, horizon), 1)
            fault: Dict[str, Any] = {
                "tenant": tenant["name"],
                "executor": rng.randrange(executors),
                "fail_at": fail_at,
            }
            if rng.random() < 0.7:
                fault["recover_at"] = round(
                    fail_at + rng.uniform(1.0, max(2.0, horizon / 4)), 1
                )
            faults.append(fault)
        if faults:
            raw["faults"] = faults
        if budget.allow_fault_model and rng.random() < 0.25:
            raw["fault_model"] = {
                "name": "periodic-waves",
                "waves": rng.randint(2, 6),
                "downtime_fraction": rng.choice((1.0 / 16.0, 1.0 / 8.0)),
            }
        return raw

    def spec(self, index: int = 0) -> ScenarioSpec:
        """The validated :class:`ScenarioSpec` for one index."""
        return ScenarioSpec.from_dict(self.spec_dict(index))

    def specs(self, count: int, *, start: int = 0) -> Iterator[Dict[str, Any]]:
        """Yield ``count`` raw scenario dicts starting at ``start``."""
        for index in range(start, start + count):
            yield self.spec_dict(index)
