"""The Fill Job Executor.

One executor runs per device.  Given the device's repeating bubble cycle it

1. evaluates the fill job under candidate execution configurations (batch
   size, CPU offloading, activation checkpointing), discarding those whose
   device footprint exceeds the bubbles' usable free memory (the check
   that keeps a fill job out of the main job's memory),
2. runs the Fill Job Execution Plan Algorithm (Algorithm 1) on the
   surviving configurations in descending order of their throughput bound,
   stopping at the first whose bound cannot reach the best plan so far, and
   keeps the one with the highest effective throughput, and
3. exposes the throughput/recovered-FLOPs estimates the scheduler and the
   cluster simulator use to place jobs and advance time.

Fill jobs executing inside bubbles are slower than in exclusive execution
for three reasons the paper calls out (Section 6.2): scarce memory limits
the batch size / forces offloading, execution is interrupted at every
bubble end, and each bubble restarts with cold caches.  The first two come
out of the profile and the plan; the third is modelled by
:meth:`repro.models.efficiency.EfficiencyModel.bubble_efficiency`.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.config import PipeFillConfig
from repro.core.plan import (
    ExecutionPlan,
    PackedPlan,
    PlanError,
    pack_fill_job,
)
from repro.hardware.device import DeviceSpec, V100_16GB
from repro.models.base import ModelSpec
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.models.profiles import (
    ClassProfiles,
    ModelProfile,
    cached_profile,
    class_profiles,
    clear_profile_cache,
)
from repro.pipeline.bubbles import BubbleCycle
from repro.utils import plancache
from repro.utils.validation import check_positive

# -- shared estimate caches ----------------------------------------------------
#
# An estimate depends only on (bubble cycle, device, PipeFill config,
# efficiency model, model, job type) -- never on scheduler state -- so
# executors constructed with identical inputs (every device of a stage, every
# run over the same system) can share one memo instead of each re-running the
# Algorithm-1 plan search.  Cycle, device and config are frozen dataclasses
# keyed by value.  The efficiency model holds dicts and the model spec would
# be expensive to hash on the estimate hot path, so both are keyed by
# identity: the efficiency id is resolved once per executor and pinned, and
# every cached entry stores the model spec it was computed for (the strong
# reference keeps that id from ever being reused, so two *different* specs --
# even ones sharing a registry name -- can never collide, while the
# registry's one-canonical-spec-per-name behaviour still shares entries
# across runs).  Profiles do not depend on the cycle; they live in the one
# process-wide profile memo of :mod:`repro.models.profiles`, one entry per job
# class on a device, and a search reads its class's entry once.

#: One cached estimate: the model it was computed for plus the result.
_EstimateEntry = Tuple[ModelSpec, Optional["FillExecutionEstimate"]]

_PINNED_EFFICIENCY: Dict[int, EfficiencyModel] = {}
_SHARED_ESTIMATES: Dict[tuple, Dict[Tuple[int, JobType], "_EstimateEntry"]] = {}

#: Crude growth bounds: when this many distinct (cycle, device, config,
#: efficiency) namespaces accumulate (a long-lived process iterating many
#: systems in one process), the shared map is flushed wholesale; and a
#: single namespace fed distinct spec objects (a non-memoizing model
#: resolver) is cleared once it holds this many entries.  Executors
#: constructed earlier keep their (now orphaned) namespace dicts and stay
#: correct; only future sharing restarts cold.
_MAX_SHARED_NAMESPACES = 128
_MAX_NAMESPACE_ENTRIES = 4096

#: Relative slack on the configuration search's throughput bound; it covers
#: the float rounding of the up to ~10^4-term sums behind an estimate.
_BOUND_MARGIN = 1e-9

# -- persistent plan-cache records ---------------------------------------------
#
# A disk entry (:mod:`repro.utils.plancache`) holds the data the simulator
# reads, never objects: the job class, the chosen configuration's fields and
# the five floats below, or ``null`` when no configuration fits.  A record is
# validated against the requesting executor before it becomes an estimate.

#: The estimate's floats, in constructor order.
_RECORD_FLOATS = (
    "samples_per_cycle",
    "flops_per_cycle",
    "used_bubble_seconds_per_cycle",
    "cycle_period",
    "isolated_samples_per_second",
)
_RECORD_KEYS = frozenset(("model", "job_type", "exec_config") + _RECORD_FLOATS)
#: ``ExecutionConfig``'s fields and their exact JSON types (``int``/``bool``).
_CONFIG_TYPES = typing.get_type_hints(ExecutionConfig)
#: The configurations a default search can choose, per job type.
_CANDIDATES = {job_type: frozenset(candidate_configs(job_type)) for job_type in JobType}


def _non_negative_float(value: Any) -> bool:
    """A finite ``float`` with a clear sign bit (so ``-0.0`` is rejected)."""
    return (
        type(value) is float
        and math.isfinite(value)
        and math.copysign(1.0, value) == 1.0
    )


def _record(estimate: Optional["FillExecutionEstimate"]) -> Optional[Dict[str, Any]]:
    """The plan-cache record of a search result (``None`` stays ``None``)."""
    if estimate is None:
        return None
    record: Dict[str, Any] = {name: getattr(estimate, name) for name in _RECORD_FLOATS}
    record["model"] = estimate.model_name
    record["job_type"] = estimate.job_type.value
    config = estimate.exec_config  # flat: its fields are ints and bools
    record["exec_config"] = {name: getattr(config, name) for name in _CONFIG_TYPES}
    return record


def _efficiency_id(efficiency: EfficiencyModel) -> int:
    # repro: lint-ignore[hash-id] -- identity-memo key; the object is pinned
    # below so the id cannot be reused, and the key is never ordered,
    # serialized or digested.
    key = id(efficiency)
    _PINNED_EFFICIENCY.setdefault(key, efficiency)
    return key


def _flush_if_oversized() -> None:
    if len(_SHARED_ESTIMATES) > _MAX_SHARED_NAMESPACES:
        _SHARED_ESTIMATES.clear()
        _PINNED_EFFICIENCY.clear()


def clear_shared_caches() -> None:
    """Drop all process-wide estimate/profile memos and the plan cache's
    view of its log (benchmarks use this to measure cold-start plan-search
    cost; tests use it to simulate a new process)."""
    from repro.models.registry import clear_model_cache

    _SHARED_ESTIMATES.clear()
    _PINNED_EFFICIENCY.clear()
    clear_profile_cache()
    clear_model_cache()
    plancache.close()


@dataclass(frozen=True)
class FillExecutionEstimate:
    """Predicted behaviour of one fill job on one device's bubble cycle.

    All "effective" quantities include the packing and warm-up losses of
    bubble execution; "isolated" quantities describe the same job running
    alone on an exclusive device.
    """

    model_name: str
    job_type: JobType
    #: The execution configuration the search chose.
    exec_config: ExecutionConfig
    samples_per_cycle: float
    flops_per_cycle: float
    used_bubble_seconds_per_cycle: float
    cycle_period: float
    isolated_samples_per_second: float

    # ``profile`` and ``plan`` are detail, not data, and not dataclass
    # fields: equality, hashing and repr see only the values above.  A
    # fresh search attaches the ones it built; an estimate loaded from the
    # persistent plan cache rebuilds them on first access from the inputs of
    # the executor that loaded it, and keeps them.

    def _attach(self, **detail: Any) -> None:
        # Fills the cached properties below (or their rebuild source)
        # without going through the frozen ``__setattr__``.
        self.__dict__.update(detail)

    @functools.cached_property
    def profile(self) -> ModelProfile:
        """The job's profile under :attr:`exec_config` on this device."""
        executor, model = self.__dict__["_source"]
        return cached_profile(
            model, self.job_type, self.exec_config, executor.device, executor.efficiency
        )

    @functools.cached_property
    def plan(self) -> "ExecutionPlan | PackedPlan":
        """The execution plan behind the estimate.

        A lazily-materialized :class:`PackedPlan` from the executor's
        search, or an eager :class:`ExecutionPlan` from
        :func:`repro.verify.reference.reference_estimate` (same API,
        identical metrics).
        """
        executor = self.__dict__["_source"][0]
        return pack_fill_job(self.profile.graph, executor.cycle, executor.config)

    @property
    def effective_samples_per_second(self) -> float:
        """Fill-job throughput per wall-clock second (bubbles only)."""
        if self.cycle_period <= 0:
            return 0.0
        return self.samples_per_cycle / self.cycle_period

    @property
    def recovered_tflops(self) -> float:
        """TFLOP/s over the bubble durations used (Figure 7a's metric)."""
        if self.used_bubble_seconds_per_cycle <= 0:
            return 0.0
        return self.flops_per_cycle / self.used_bubble_seconds_per_cycle / 1e12

    @property
    def recovered_tflops_wallclock(self) -> float:
        """TFLOP/s averaged over wall-clock time (Figure 1/4c's metric)."""
        if self.cycle_period <= 0:
            return 0.0
        return self.flops_per_cycle / self.cycle_period / 1e12

    @property
    def relative_performance(self) -> float:
        """Throughput while filling relative to exclusive execution (Fig. 7b).

        This is the ``P`` in the paper's GPUs-saved estimate ``C * B * P``.
        """
        if self.isolated_samples_per_second <= 0 or self.used_bubble_seconds_per_cycle <= 0:
            return 0.0
        per_bubble_second = self.samples_per_cycle / self.used_bubble_seconds_per_cycle
        return per_bubble_second / self.isolated_samples_per_second

    @property
    def slowdown(self) -> float:
        """Exclusive-to-filled slowdown factor (>= 1)."""
        rel = self.relative_performance
        return float("inf") if rel == 0 else 1.0 / rel

    def processing_time(self, num_samples: float) -> float:
        """Wall-clock seconds to process ``num_samples`` on this device's bubbles."""
        check_positive(num_samples, "num_samples")
        if self.samples_per_cycle <= 0:
            return float("inf")
        cycles = num_samples / self.samples_per_cycle
        return cycles * self.cycle_period

    def flops_for_samples(self, num_samples: float) -> float:
        """FLOPs executed when processing ``num_samples``."""
        if self.samples_per_cycle <= 0:
            return 0.0
        return num_samples * (self.flops_per_cycle / self.samples_per_cycle)


class FillJobExecutor:
    """Per-device fill-job executor.

    Parameters
    ----------
    cycle:
        The device's repeating bubble cycle (from the instrumented engine,
        the analytic main-job model, or a synthetic cycle).
    device:
        The device spec (used for timing and memory capacities).
    config:
        PipeFill tunables.
    efficiency:
        Efficiency model shared with the profiler.
    """

    def __init__(
        self,
        cycle: BubbleCycle,
        *,
        device: DeviceSpec = V100_16GB,
        config: Optional[PipeFillConfig] = None,
        efficiency: EfficiencyModel = DEFAULT_EFFICIENCY,
    ) -> None:
        self.cycle = cycle
        self.device = device
        self.config = config or PipeFillConfig()
        self.efficiency = efficiency
        # Estimates are pure functions of the constructor inputs, so the
        # caches are shared process-wide between executors built with the
        # same (cycle, device, config, efficiency) -- see module docs above.
        _flush_if_oversized()
        eff_id = _efficiency_id(efficiency)
        estimate_key = (cycle, device, self.config, eff_id)
        self._estimate_cache: Dict[Tuple[int, JobType], _EstimateEntry] = (
            _SHARED_ESTIMATES.setdefault(estimate_key, {})
        )
        # The efficiency-weighted usable share of the cycle behind the
        # search's throughput bound (computed on the first search, so
        # construction stays cheap).
        self._bubble_share: Optional[float] = None
        # Content hash of this executor's estimate namespace for the
        # persistent cross-process plan cache (computed lazily: hashing
        # the cycle is pointless when the disk cache is disabled).
        self._disk_namespace: Optional[str] = None

    def _disk_key(self, model: ModelSpec, job_type: JobType) -> tuple:
        if self._disk_namespace is None:
            self._disk_namespace = "-".join(
                (
                    plancache.content_key(self.cycle),
                    plancache.content_key(self.device),
                    plancache.content_key(self.config),
                    plancache.content_key(self.efficiency),
                )
            )
        return (self._disk_namespace, plancache.content_key(model), job_type.value)

    # -- memory ---------------------------------------------------------------

    @property
    def usable_memory_bytes(self) -> float:
        """Free memory (after the safety margin) available in the tightest bubble."""
        return self.config.usable_bubble_memory(self.cycle.min_free_memory_bytes)

    # -- estimation ------------------------------------------------------------

    def _throughput_bound(self, profile: ModelProfile) -> float:
        """Upper bound on the effective samples/s of any plan of ``profile``.

        A plan spanning ``n`` cycles visits each plannable bubble at most
        ``n`` times and packs at most its usable seconds ``U_i`` per visit,
        each at a bubble efficiency of at most ``eta(max U)``
        (``bubble_efficiency`` is non-decreasing).  With batch size ``b``,
        graph duration ``T`` and cycle period ``P`` its effective samples/s
        is therefore at most ``sum(U) * eta(max U) * b / (T * P)``: the
        exclusive throughput ``b / T`` scaled by the efficiency-weighted
        usable share of the cycle.  Infinite when there is nothing to bound
        (no plannable bubble, a zero period or a zero-duration graph).
        """
        if self._bubble_share is None:
            usable = [
                self.config.usable_bubble_seconds(b.duration)
                for b in self.cycle.fillable_bubbles
            ]
            usable = [u for u in usable if u > 0.0]
            period = self.cycle.period
            self._bubble_share = (
                sum(usable) * self.efficiency.bubble_efficiency(max(usable)) / period
                if usable and period > 0
                else math.inf
            )
        duration = profile.graph.total_duration
        if duration <= 0:
            return math.inf
        return self._bubble_share * profile.config.batch_size / duration

    def _evaluate_config(
        self,
        model: ModelSpec,
        job_type: JobType,
        profile: ModelProfile,
        isolated_samples_per_second: float,
    ) -> Optional[FillExecutionEstimate]:
        """Run Algorithm 1 on one configuration (``None`` when it cannot plan).

        Uses :func:`~repro.core.plan.pack_fill_job` over the graph's node
        tuples: the plan is identical to the scalar
        :func:`~repro.core.plan.plan_fill_job`'s, with node tuples
        materialized lazily.  The reference search keeps the scalar
        planner, so the differential oracles and golden digests prove the
        two packers bit-identical.
        """
        try:
            plan = pack_fill_job(profile.graph, self.cycle, self.config)
        except PlanError:
            return None
        return self._estimate_from_plan(
            model, job_type, profile, isolated_samples_per_second, plan
        )

    def _estimate_from_plan(
        self,
        model: ModelSpec,
        job_type: JobType,
        profile: ModelProfile,
        isolated_samples_per_second: float,
        plan: "ExecutionPlan | PackedPlan",
    ) -> FillExecutionEstimate:
        """The estimate of one configuration's plan on this device."""
        num_cycles = max(plan.num_cycles, 1)
        effective_work = 0.0
        used_bubble = 0.0
        bubble_durations = {i: b.duration for i, b in enumerate(plan.bubbles)}
        for bubble_index, duration in plan.nonempty_visits():
            effective_work += duration * self.efficiency.bubble_efficiency(duration)
            used_bubble += bubble_durations[bubble_index]
        # Convert completed node-time back into samples and FLOPs via the
        # steady-state per-iteration totals.
        iterations_completed = effective_work / profile.graph.total_duration
        samples = iterations_completed * profile.config.batch_size
        flops = iterations_completed * profile.graph.total_flops
        estimate = FillExecutionEstimate(
            model_name=model.name,
            job_type=job_type,
            exec_config=profile.config,
            samples_per_cycle=samples / num_cycles,
            flops_per_cycle=flops / num_cycles,
            used_bubble_seconds_per_cycle=used_bubble / num_cycles,
            cycle_period=self.cycle.period,
            isolated_samples_per_second=isolated_samples_per_second,
        )
        estimate._attach(profile=profile, plan=plan)
        return estimate

    def _best_first_search(
        self,
        model: ModelSpec,
        job_type: JobType,
        job_class: ClassProfiles,
        profiles: Sequence[ModelProfile],
    ) -> Optional[FillExecutionEstimate]:
        """The fast search: Algorithm 1 in descending throughput-bound order.

        ``profiles`` are the configurations to search: ``job_class``'s
        own, unless ``build_estimate`` got an explicit list.  Every estimate
        is measured against ``job_class``'s isolated best.

        Every profile that fits in memory is ranked by its margined bound
        ``UB * (1 + _BOUND_MARGIN)`` (:meth:`_throughput_bound`), highest
        first and, at equal bounds, in ``profiles`` order.  The best is
        replaced on a greater value, or on an equal value at an earlier
        position.  The search stops at the first configuration whose
        margined bound is below the best value, and skips one whose bound
        only equals it from a later position: no plan exceeds its margined
        bound, and every later configuration has a bound no larger (at an
        equal bound, a later position), so neither step can drop the
        configuration the exhaustive in-order search
        (:func:`repro.verify.reference.reference_estimate`) picks.
        """
        usable_memory = self.usable_memory_bytes
        ranked = []
        for index, profile in enumerate(profiles):
            if profile.device_footprint_bytes <= usable_memory:
                ranked.append((-self._throughput_bound(profile), index, profile))
        ranked.sort()  # indexes are unique, so profiles are never compared
        isolated = (
            0.0 if job_class.isolated is None else job_class.isolated.throughput_samples_per_s
        )
        best: Optional[FillExecutionEstimate] = None
        best_value = 0.0
        best_index = 0
        for neg_bound, index, profile in ranked:
            if best is not None:
                reach = -neg_bound * (1.0 + _BOUND_MARGIN)
                if reach < best_value:
                    break
                if reach == best_value and index > best_index:
                    continue
            estimate = self._evaluate_config(model, job_type, profile, isolated)
            if estimate is None:
                continue
            value = estimate.effective_samples_per_second
            if (
                best is None
                or value > best_value
                or (value == best_value and index < best_index)
            ):
                best, best_value, best_index = estimate, value, index
        return best

    def _from_record(
        self, model: ModelSpec, job_type: JobType, record: Any
    ) -> Optional[FillExecutionEstimate]:
        """Turn a plan-cache record back into an estimate, or raise.

        The record must be one this executor's search could have produced
        for ``(model, job_type)``: the same class, a default candidate
        configuration with exactly typed fields, finite non-negative
        floats, and this cycle's period bit for bit.  Anything else raises
        ``ValueError``, which :func:`repro.utils.plancache.get` counts as a
        corrupt entry.
        """
        if record is None:
            return None
        if type(record) is not dict or record.keys() != _RECORD_KEYS:
            raise ValueError("not an estimate record")
        if record["model"] != model.name or record["job_type"] != job_type.value:
            raise ValueError("record belongs to another job class")
        raw_config = record["exec_config"]
        if (
            type(raw_config) is not dict
            or raw_config.keys() != _CONFIG_TYPES.keys()
            or any(type(raw_config[k]) is not t for k, t in _CONFIG_TYPES.items())
        ):
            raise ValueError("malformed execution config")
        exec_config = ExecutionConfig(**raw_config)
        if exec_config not in _CANDIDATES[job_type]:
            raise ValueError(f"{exec_config.describe()} is not a candidate config")
        values = [record[name] for name in _RECORD_FLOATS]
        if not all(_non_negative_float(v) for v in values):
            raise ValueError("estimate values must be finite non-negative floats")
        if record["cycle_period"] != self.cycle.period:
            raise ValueError("record was computed for another cycle period")
        estimate = FillExecutionEstimate(model.name, job_type, exec_config, *values)
        estimate._attach(_source=(self, model))
        return estimate

    def build_estimate(
        self,
        model: ModelSpec,
        job_type: JobType,
        *,
        configs: Optional[Sequence[ExecutionConfig]] = None,
    ) -> Optional[FillExecutionEstimate]:
        """Pick the best execution configuration for a fill job on this device.

        Returns ``None`` when no configuration fits the bubbles (the
        scheduler then places the job elsewhere or rejects it).  Of the
        configurations with the highest effective throughput, the first in
        ``configs`` wins; :meth:`_best_first_search` finds it.  A search
        over the default candidates is memoised (and persisted when the
        plan cache is on); an explicit ``configs`` list always searches.
        """
        if configs is not None:
            job_class = class_profiles(model, job_type, self.device, self.efficiency)
            profiles = [
                cached_profile(model, job_type, config, self.device, self.efficiency)
                for config in configs
            ]
            return self._best_first_search(model, job_type, job_class, profiles)
        # repro: lint-ignore[hash-id] -- identity-memo cache key; the entry
        # pins the spec and the key is never ordered or serialized.
        key = (id(model), job_type)
        entry = self._estimate_cache.get(key)
        # Entries pin their spec, so a hit is always the same object.
        if entry is not None and entry[0] is model:
            return entry[1]
        disk_key = None
        if plancache.is_enabled():
            # The persistent cross-process cache: keyed by the same pure
            # inputs as the in-process memo, so a sweep worker or a second
            # `repro run` loads the plan search instead of re-running it.
            # Records carry the floats bit-exactly, so a disk hit can never
            # change simulation results.
            disk_key = self._disk_key(model, job_type)
            hit, value = plancache.get(
                disk_key, functools.partial(self._from_record, model, job_type)
            )
            if hit:
                if len(self._estimate_cache) >= _MAX_NAMESPACE_ENTRIES:
                    self._estimate_cache.clear()
                self._estimate_cache[key] = (model, value)
                return value
        job_class = class_profiles(model, job_type, self.device, self.efficiency)
        best = self._best_first_search(model, job_type, job_class, job_class.profiles)
        if len(self._estimate_cache) >= _MAX_NAMESPACE_ENTRIES:
            self._estimate_cache.clear()
        self._estimate_cache[key] = (model, best)
        if disk_key is not None:
            plancache.put(disk_key, _record(best))
        return best
