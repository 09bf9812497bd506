"""The `repro bench` performance harness.

Runs sized one-tenant and multi-tenant simulator workloads (see
:mod:`repro.bench.workloads`), measures wall-clock time and processed
events, and writes a machine-readable ``BENCH_<size>.json`` so performance
can be tracked across PRs.

Each case can also be run in *baseline* mode (``--baseline``): the
schedulers' memoised processing times, views and sweep prunings are
disabled (``use_cache=False``), and estimates come from scheduler-private
per-executor memos instead of the process-wide shared caches -- the
pre-optimization semantics, where every executor pays its own plan-search
warm-up and every dispatch sweep rebuilds every job view.  (The baseline
still benefits from this PR's faster plan construction, so the reported
speedup *understates* the gap to the true pre-PR code path.)  The harness
asserts that both modes produce identical simulation results (same
digest) and reports the speedup.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.executor import clear_shared_caches
from repro.core.policies import (
    compose_policies,
    deadline_preemption_rule,
    sjf_policy,
    slack_policy,
)
from repro.core.scheduler import FillJob
from repro.core.system import MAIN_TENANT
from repro.sim.kernel import FaultSpec
from repro.sim.multi_tenant import MultiTenantSimulator, Tenant
from repro.utils import plancache
from repro.bench.workloads import (
    SIZES,
    BenchSize,
    arrival_window_seconds,
    build_bench_jobs,
    build_bench_system,
    build_churn_faults,
    build_multi_tenant,
)


@dataclass(frozen=True)
class CaseTiming:
    """Measured outcome of one benchmark case in one mode.

    ``events_by_kind`` breaks ``events_processed`` down per
    :class:`~repro.sim.events.EventKind` value, so the BENCH trajectory
    distinguishes arrival/completion work from fault/churn work;
    ``timings_by_kind`` carries the kernel's wall-clock handler seconds
    per kind, and ``plan_cache`` the persistent plan-cache hit/miss
    counters of the run (all zeros when the disk cache is disabled).
    Neither extra block feeds the ``result_digest``, which hashes only
    the simulation outcome.
    """

    setup_seconds: float
    run_seconds: float
    events_processed: int
    jobs_submitted: int
    jobs_completed: int
    result_digest: str
    events_by_kind: Dict[str, int] = field(default_factory=dict)
    timings_by_kind: Dict[str, float] = field(default_factory=dict)
    plan_cache: Dict[str, int] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        if self.run_seconds <= 0:
            return 0.0
        return self.events_processed / self.run_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "setup_seconds": round(self.setup_seconds, 4),
            "run_seconds": round(self.run_seconds, 4),
            "events_processed": self.events_processed,
            "events_by_kind": dict(self.events_by_kind),
            "timings_by_kind": {
                kind: round(seconds, 4) for kind, seconds in self.timings_by_kind.items()
            },
            "plan_cache": dict(self.plan_cache),
            "events_per_second": round(self.events_per_second, 2),
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "result_digest": self.result_digest,
        }


@dataclass
class BenchCase:
    """One named workload of a benchmark size."""

    name: str
    size: BenchSize
    multi_tenant: bool
    preemption: bool
    churn: bool = False
    num_executors: int = field(init=False)

    def __post_init__(self) -> None:
        per_tenant = self.size.executors_per_tenant
        self.num_executors = (
            per_tenant * self.size.num_tenants if self.multi_tenant else per_tenant
        )


def cases_for(size: BenchSize) -> List[BenchCase]:
    """The workloads `repro bench` runs for one size."""
    cases = [
        BenchCase("single_tenant", size, multi_tenant=False, preemption=False),
        BenchCase("multi_tenant", size, multi_tenant=True, preemption=False),
        BenchCase("multi_tenant_preempt", size, multi_tenant=True, preemption=True),
    ]
    if size.churn:
        cases.append(
            BenchCase(
                "multi_tenant_churn", size, multi_tenant=True, preemption=False, churn=True
            )
        )
    return cases


def _digest(payload: Any) -> str:
    """Stable short digest of a JSON-serialisable result summary."""
    import hashlib

    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(
    case: BenchCase,
    *,
    use_cache: bool = True,
    seed: int = 0,
) -> CaseTiming:
    """Build and run one benchmark case, cold (shared caches cleared).

    The setup phase (model/system construction plus workload generation)
    is timed separately from the simulation run; first-touch plan searches
    happen inside the run, exactly as they do in a real scenario run.
    """
    clear_shared_caches()
    plancache.reset_stats()
    t0 = time.perf_counter()
    extra_jobs: List[FillJob] = []
    faults: List[FaultSpec] = []
    policy = sjf_policy
    if case.multi_tenant:
        deadline_fraction = 0.3 if case.preemption else 0.0
        tenants = build_multi_tenant(
            case.size,
            deadline_fraction=deadline_fraction,
            seed=seed,
            churn=case.churn,
        )
        if case.churn:
            faults = build_churn_faults(case.size)
        if case.preemption:
            policy = compose_policies((1_000.0, slack_policy), (1.0, sjf_policy))
    else:
        tenants = [Tenant(MAIN_TENANT, build_bench_system(case.size))]
        extra_jobs = build_bench_jobs(
            case.size, num_executors=case.num_executors, seed=seed
        )
    simulator = MultiTenantSimulator(
        tenants,
        policy=policy,
        preemption_rule=deadline_preemption_rule if case.preemption else None,
        use_cache=use_cache,
    )
    horizon = arrival_window_seconds(case.size, case.num_executors)
    t1 = time.perf_counter()
    result = simulator.run(
        extra_jobs=extra_jobs, faults=faults, horizon_seconds=horizon
    )
    t2 = time.perf_counter()
    agg = result.aggregate
    return CaseTiming(
        setup_seconds=t1 - t0,
        run_seconds=t2 - t1,
        events_processed=result.events_processed,
        jobs_submitted=agg.jobs_submitted,
        jobs_completed=agg.jobs_completed,
        # Digest the full result (per-tenant sections included), so a cache
        # bug that only moves work between tenants while aggregates tie
        # still flips `identical_results`.
        result_digest=_digest(result.to_dict()),
        events_by_kind=dict(result.events_by_kind),
        timings_by_kind=dict(result.timings_by_kind),
        plan_cache=plancache.stats(),
    )


#: The sharded-sweep measurement case (see :func:`run_sweep_case`):
#: sweeping the big tenant's microbatch size changes its bubble cycle,
#: so every grid point pays a fresh Algorithm-1 plan search when cold --
#: exactly the work the shared plan-cache service amortises across a
#: fleet.  Values are valid divisors of the tenant's per-replica batch.
_SWEEP_PARAMETER = "tenants.0.parallel.microbatch_size"
_SWEEP_VALUES = {"smoke": [2, 4], "small": [1, 2, 4]}
_SWEEP_VALUES_DEFAULT = [1, 2, 4, 8]
_SWEEP_HORIZON = {"smoke": 600.0}
_SWEEP_HORIZON_DEFAULT = 900.0
_SWEEP_SHARDS = 2


def _sweep_scenario_doc(horizon_seconds: float) -> Dict[str, Any]:
    """The fixed two-tenant scenario the sharded-sweep case measures.

    The shape mirrors ``scenarios/multi_tenant.yaml`` (the paper's
    headline 40B@8K job next to the 5B@64 physical-cluster job) with a
    bench-sized horizon; generation is inline so the bench is runnable
    from any working directory.
    """
    return {
        "name": "bench-sharded-sweep",
        "horizon_seconds": horizon_seconds,
        "policy": "sjf",
        "seed": 0,
        "tenants": [
            {
                "name": "llm-40b-8k",
                "model": "gpt-40b",
                "schedule": "gpipe",
                "parallel": {
                    "tensor_parallel": 8,
                    "pipeline_stages": 16,
                    "data_parallel": 64,
                    "microbatch_size": 2,
                    "global_batch_size": 1024,
                },
                "workload": {"arrival_rate_per_hour": 250},
            },
            {
                "name": "llm-5b-64",
                "model": "gpt-5b",
                "schedule": "gpipe",
                "parallel": {
                    "tensor_parallel": 1,
                    "pipeline_stages": 16,
                    "data_parallel": 4,
                    "microbatch_size": 2,
                    "global_batch_size": 64,
                },
                "workload": {"arrival_rate_per_hour": 120},
            },
        ],
    }


def run_sweep_case(
    size_name: str, *, seed: int = 0, progress=None
) -> Dict[str, Any]:
    """Measure sharded-sweep throughput against a shared plan cache.

    Two phases over the identical grid:

    1. **single-process cold** -- one unsharded sweep against an empty
       cache; its write-through puts warm the (in-process, ephemeral)
       ``cache-serve`` service.
    2. **sharded warm** -- each of :data:`_SWEEP_SHARDS` shards runs with
       a *fresh* local cache directory and cleared in-process memos, so
       every plan lookup must read through to the warm service.  Shards
       run sequentially and their wall-clock is *summed*, which is the
       conservative single-core accounting: a real fleet overlaps them.

    Reports points/sec for both phases, the cache-tier hit counters
    (``remote_hits``/``remote_misses``/``remote_errors``) proving where
    the plans came from, and ``identical_results`` -- the merged shard
    partials (via :func:`repro.dist.merge_sweep_payloads`) must be
    byte-identical to the single-process payload.
    """
    import tempfile

    from repro.api import Experiment
    from repro.dist import PlanCacheServer, merge_sweep_payloads

    values = _SWEEP_VALUES.get(size_name, _SWEEP_VALUES_DEFAULT)
    horizon = _SWEEP_HORIZON.get(size_name, _SWEEP_HORIZON_DEFAULT)
    doc = _sweep_scenario_doc(horizon)
    doc["seed"] = int(seed)
    exp = Experiment.from_dict(doc)

    # The bench owns the global plan-cache config for the measurement;
    # restore the caller's tiers afterwards.
    saved = (plancache.cache_dir(), plancache.is_enabled(), plancache.remote_url())

    def _phase_stats() -> Dict[str, int]:
        stats = plancache.stats()
        return {
            key: stats[key]
            for key in ("hits", "misses", "writes", "remote_hits",
                        "remote_misses", "remote_errors")
        }

    try:
        with PlanCacheServer() as server, tempfile.TemporaryDirectory() as root:
            if progress is not None:
                progress(
                    f"  sharded_sweep: {len(values)} points x "
                    f"{_SWEEP_SHARDS} shards via {server.url}"
                )
            clear_shared_caches()
            plancache.configure(f"{root}/cold", remote_url=server.url)
            plancache.reset_stats()
            t0 = time.perf_counter()
            cold = exp.sweep(
                parameter=_SWEEP_PARAMETER, values=values, workers=1
            )
            cold_seconds = time.perf_counter() - t0
            cold_stats = _phase_stats()

            shard_seconds: List[float] = []
            partials: List[Dict[str, Any]] = []
            warm_stats = {key: 0 for key in cold_stats}
            for index in range(_SWEEP_SHARDS):
                clear_shared_caches()
                plancache.configure(
                    f"{root}/shard{index}", remote_url=server.url
                )
                plancache.reset_stats()
                t0 = time.perf_counter()
                partial = exp.sweep(
                    parameter=_SWEEP_PARAMETER,
                    values=values,
                    workers=1,
                    shards=_SWEEP_SHARDS,
                    shard_index=index,
                )
                shard_seconds.append(time.perf_counter() - t0)
                for key, count in _phase_stats().items():
                    warm_stats[key] += count
                partials.append(partial.to_dict())
            merged = merge_sweep_payloads(partials)
            identical = json.dumps(merged, sort_keys=True) == json.dumps(
                cold.to_dict(), sort_keys=True
            )
            server_stats = server.stats()
    finally:
        saved_dir, saved_enabled, saved_url = saved
        plancache.configure(saved_dir, enabled=saved_enabled, remote_url=saved_url)

    warm_seconds = sum(shard_seconds)
    return {
        "name": "sharded_sweep",
        "scenario": doc["name"],
        "parameter": _SWEEP_PARAMETER,
        "num_points": len(values),
        "shards": _SWEEP_SHARDS,
        "single_process_cold": {
            "seconds": round(cold_seconds, 4),
            "points_per_second": round(len(values) / cold_seconds, 4)
            if cold_seconds > 0
            else None,
            "plan_cache": cold_stats,
        },
        "sharded_warm": {
            "seconds": round(warm_seconds, 4),
            "per_shard_seconds": [round(s, 4) for s in shard_seconds],
            "points_per_second": round(len(values) / warm_seconds, 4)
            if warm_seconds > 0
            else None,
            "plan_cache": warm_stats,
        },
        "speedup": round(cold_seconds / warm_seconds, 2)
        if warm_seconds > 0
        else None,
        "identical_results": identical,
        "result_digest": cold.digest(),
        "cache_server": server_stats,
    }


def run_bench(
    size_name: str,
    *,
    baseline: bool = False,
    seed: int = 0,
    sweep_case: bool = False,
    progress=None,
) -> Dict[str, Any]:
    """Run every case of one benchmark size; returns the JSON payload.

    With ``baseline=True`` each case is additionally run in the
    brute-force (``use_cache=False``) mode and the payload carries the
    measured speedup plus an ``identical_results`` flag comparing the two
    modes' result digests.
    """
    try:
        size = SIZES[size_name]
    except KeyError:
        raise KeyError(f"unknown bench size {size_name!r}; known: {sorted(SIZES)}") from None

    case_payloads: List[Dict[str, Any]] = []
    for case in cases_for(size):
        if progress is not None:
            progress(f"  {case.name}: {size.num_jobs} jobs, {case.num_executors} executors")
        optimized = run_case(case, use_cache=True, seed=seed)
        entry: Dict[str, Any] = {
            "name": case.name,
            "num_jobs": size.num_jobs,
            "num_executors": case.num_executors,
            "preemption": case.preemption,
            "optimized": optimized.to_dict(),
        }
        if baseline:
            if progress is not None:
                progress(f"  {case.name}: baseline (no-cache) run ...")
            brute = run_case(case, use_cache=False, seed=seed)
            entry["baseline"] = brute.to_dict()
            entry["speedup"] = (
                round(brute.run_seconds / optimized.run_seconds, 2)
                if optimized.run_seconds > 0
                else None
            )
            entry["identical_results"] = (
                brute.result_digest == optimized.result_digest
            )
        case_payloads.append(entry)

    payload = {
        "schema": "repro-bench/v1",
        # Mirrors repro.api.results.SCHEMA_VERSION so every CLI JSON
        # payload carries the same version marker.
        "schema_version": 1,
        "size": size.name,
        "num_jobs": size.num_jobs,
        "created_unix": int(time.time()),
        # Environment block: enough to interpret absolute numbers when
        # BENCH files from different machines/configurations meet.
        # ``kernel_backend`` is always "heapq"; schema v1 keeps the key.
        "kernel_backend": "heapq",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cases": case_payloads,
    }
    if sweep_case:
        payload["sweep_case"] = run_sweep_case(
            size.name, seed=seed, progress=progress
        )
    return payload


def write_bench_json(payload: Dict[str, Any], output: Optional[str] = None) -> Path:
    """Write the payload to ``BENCH_<size>.json`` (or ``output``)."""
    path = Path(output) if output else Path(f"BENCH_{payload['size']}.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
