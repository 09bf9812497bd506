"""Join the model distribution and the cluster trace into a fill-job stream.

This is step 3 of Section 5.3: every surviving trace job is mapped to one of
the Table 1 models (sampled from the model-hub distribution), assigned a job
type (training or batch inference with equal probability for models under
700M parameters; inference otherwise), and converted from GPU-hours to a
sample count by dividing by the model's maximum isolated single-GPU
throughput.  The result is a list of
:class:`~repro.core.scheduler.FillJob` objects ready for the scheduler.

For long-horizon (or unbounded) runs, :class:`ArrivalProcess` provides the
same job mix as a *streaming* iterator instead of a materialized list: the
simulation kernel pulls one arrival at a time and schedules the next
arrival event lazily, so the trace never has to be materialized up front
(per-job scheduler records still accumulate as arrivals are served).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro import registry
from repro.core.scheduler import FillJob
from repro.hardware.device import DeviceSpec, V100_16GB
from repro.models.configs import JobType
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.models.profiles import isolated_throughput
from repro.models.registry import build_model
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive
from repro.workloads.fill_jobs import FILL_JOB_CATEGORIES, category_for_model
from repro.workloads.model_hub import ModelHubDistribution, default_distribution
from repro.workloads.trace import TraceFilter, TraceGenerator, TraceJob


@dataclass
class FillJobTraceBuilder:
    """Builds fill-job traces from (synthetic) cluster-trace jobs.

    Parameters
    ----------
    distribution:
        Sampling distribution over the Table 1 fill-job models.
    device:
        Device used to compute each model's isolated throughput (the
        GPU-hours -> samples conversion factor).
    trace_filter:
        GPU-time cap and QoS filtering applied to the raw trace.
    deadline_fraction:
        Fraction of jobs given a deadline (arrival + slack_factor x ideal
        processing time); the paper's deadline-aware policies need some.
    job_type:
        Force every job to this type: each job is still drawn as usual, so
        ids, arrival times and models match the unforced trace, but its
        GPU time is converted with the forced type's throughput, and jobs
        whose model does not support the type are dropped.
    """

    distribution: Optional[ModelHubDistribution] = None
    device: DeviceSpec = V100_16GB
    efficiency: EfficiencyModel = DEFAULT_EFFICIENCY
    trace_filter: TraceFilter = field(default_factory=TraceFilter)
    deadline_fraction: float = 0.0
    deadline_slack_factor: float = 4.0
    seed: RngLike = 0
    job_type: Optional[JobType] = None

    def __post_init__(self) -> None:
        check_fraction(self.deadline_fraction, "deadline_fraction")
        check_positive(self.deadline_slack_factor, "deadline_slack_factor")
        if self.distribution is None:
            self.distribution = default_distribution(self.seed)

    # -- helpers ---------------------------------------------------------------

    def _isolated_throughput(self, model_name: str, job_type: JobType) -> float:
        # One class lookup in the shared profile memo: each job class is
        # profiled once per process, not once per builder or per job.
        return isolated_throughput(
            build_model(model_name), job_type, self.device, self.efficiency
        )

    def _job_type_for(self, model_name: str, rng) -> JobType:
        category = category_for_model(model_name)
        types = category.job_types()
        if len(types) == 1:
            return types[0]
        return JobType.TRAINING if rng.random() < 0.5 else JobType.BATCH_INFERENCE

    # -- conversion --------------------------------------------------------------

    def from_trace_jobs(
        self, trace_jobs: Sequence[TraceJob], *, rng: RngLike = None
    ) -> List[FillJob]:
        """Convert filtered trace jobs into fill jobs."""
        gen = ensure_rng(rng if rng is not None else self.seed)
        surviving = self.trace_filter.apply(trace_jobs)
        fill_jobs: List[FillJob] = []
        assert self.distribution is not None
        for trace_job in surviving:
            model_name = self.distribution.sample(gen)
            job_type = self._job_type_for(model_name, gen)
            has_deadline = gen.random() < self.deadline_fraction
            if self.job_type is not None:
                # After every draw, so a forced type leaves the stream as is.
                if self.job_type not in category_for_model(model_name).job_types():
                    continue
                job_type = self.job_type
            throughput = self._isolated_throughput(model_name, job_type)
            num_samples = max(1.0, trace_job.gpu_seconds * throughput)
            deadline = None
            if has_deadline:
                ideal = num_samples / throughput
                deadline = trace_job.arrival_time + self.deadline_slack_factor * ideal
            fill_jobs.append(
                FillJob(
                    job_id=f"fill-{trace_job.job_id}",
                    model_name=model_name,
                    job_type=job_type,
                    num_samples=num_samples,
                    arrival_time=trace_job.arrival_time,
                    deadline=deadline,
                )
            )
        return fill_jobs

    def generate(
        self,
        duration_seconds: float,
        *,
        trace_generator: Optional[TraceGenerator] = None,
        rng: RngLike = None,
    ) -> List[FillJob]:
        """Generate a fresh synthetic trace and convert it to fill jobs."""
        trace_generator = trace_generator or TraceGenerator(seed=self.seed)
        gen = ensure_rng(rng if rng is not None else self.seed)
        trace_jobs = trace_generator.generate(duration_seconds, rng=gen)
        return self.from_trace_jobs(trace_jobs, rng=gen)


def build_fill_job_trace(
    duration_seconds: float,
    *,
    arrival_rate_per_hour: float = 120.0,
    models: Optional[Sequence[str]] = None,
    job_type: Optional[JobType] = None,
    deadline_fraction: float = 0.0,
    deadline_slack_factor: float = 4.0,
    seed: RngLike = 0,
) -> List[FillJob]:
    """Convenience builder used by examples and experiments.

    ``models`` restricts the mix to specific Table 1 models (uniform over
    them); ``job_type`` forces all jobs to one type (e.g. the "BERT
    inference only" workload of Figure 4c); ``deadline_slack_factor``
    controls how loose the generated deadlines are relative to each job's
    ideal exclusive-GPU processing time.
    """
    check_positive(duration_seconds, "duration_seconds")
    distribution = None
    if models is not None:
        unknown = set(models) - set(FILL_JOB_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown fill-job models: {sorted(unknown)}")
        probs = {name: 1.0 / len(models) for name in models}
        distribution = ModelHubDistribution(probabilities=probs)
    builder = FillJobTraceBuilder(
        distribution=distribution,
        deadline_fraction=deadline_fraction,
        deadline_slack_factor=deadline_slack_factor,
        seed=seed,
        job_type=job_type,
    )
    trace_generator = TraceGenerator(arrival_rate_per_hour=arrival_rate_per_hour, seed=seed)
    return builder.generate(duration_seconds, trace_generator=trace_generator, rng=seed)


@dataclass
class ArrivalProcess:
    """A streaming (open-loop) fill-job arrival source.

    Where :func:`build_fill_job_trace` materializes every job of a run up
    front, an ``ArrivalProcess`` yields jobs one at a time with
    exponentially-distributed inter-arrival gaps (a homogeneous Poisson
    process), so the simulation kernel can schedule the *next* arrival
    event lazily: the pending-event footprint stays constant however long
    the horizon, and no trace is ever held in memory whole.  (Jobs that
    have *arrived* still get scheduler records, so total memory grows
    with the number of served arrivals, as in any run.)
    Each job draws a log-normal exclusive-GPU duration (the synthetic
    trace's service-time model, capped at the paper's 1-GPU-hour
    simulation filter), a Table 1 model from the hub distribution (or a
    uniform mix over ``models``) and converts GPU-seconds to samples
    through the model's isolated throughput -- the exact conversion the
    closed-loop trace pipeline applies.

    Iterating the process always restarts it from ``start_time`` with the
    same seed, so repeated runs of one scenario are deterministic.

    Parameters
    ----------
    name:
        Tenant tag and job-id prefix (ids are ``"<name>/open-<i>"``).
    end_time:
        Stop yielding at this simulation time; ``None`` streams forever
        (the simulator's horizon must then bound the run).
    max_gpu_seconds:
        GPU-time cap per job (the trace filter's simulation cap).
    """

    name: str = ""
    arrival_rate_per_hour: float = 120.0
    models: Optional[Sequence[str]] = None
    job_type: Optional[JobType] = None
    deadline_fraction: float = 0.0
    deadline_slack_factor: float = 4.0
    start_time: float = 0.0
    end_time: Optional[float] = None
    seed: RngLike = 0
    device: DeviceSpec = V100_16GB
    efficiency: EfficiencyModel = DEFAULT_EFFICIENCY
    service_time_median: float = 330.0
    service_time_sigma: float = 2.45
    max_gpu_seconds: float = TraceFilter.SIMULATION_CAP_SECONDS

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate_per_hour, "arrival_rate_per_hour")
        check_fraction(self.deadline_fraction, "deadline_fraction")
        check_positive(self.deadline_slack_factor, "deadline_slack_factor")
        check_positive(self.service_time_median, "service_time_median")
        check_positive(self.max_gpu_seconds, "max_gpu_seconds")
        if self.models is not None:
            unknown = set(self.models) - set(FILL_JOB_CATEGORIES)
            if unknown:
                raise ValueError(f"unknown fill-job models: {sorted(unknown)}")
        if self.job_type is not None:
            # Without at least one compatible model the stream would spin
            # forever discarding draws instead of ever yielding a job.
            candidates = self.models if self.models is not None else FILL_JOB_CATEGORIES
            if not any(
                self.job_type in category_for_model(name).job_types()
                for name in candidates
            ):
                raise ValueError(
                    f"no model in {sorted(candidates)} supports job_type "
                    f"{self.job_type.value!r}"
                )
        # A Generator object would advance across iterations and break the
        # restart guarantee; freeze it into a fixed integer seed once.
        if isinstance(self.seed, np.random.Generator):
            self.seed = int(self.seed.integers(0, 2**63 - 1))

    # -- helpers ---------------------------------------------------------------

    def _distribution(self) -> ModelHubDistribution:
        if self.models is None:
            return default_distribution(self.seed)
        probs = {name: 1.0 / len(self.models) for name in self.models}
        return ModelHubDistribution(probabilities=probs)

    def _isolated_throughput(self, model_name: str, job_type: JobType) -> float:
        return isolated_throughput(
            build_model(model_name), job_type, self.device, self.efficiency
        )

    def _draw_gpu_seconds(self, gen) -> float:
        """One log-normal GPU-time draw, truncated at ``max_gpu_seconds``."""
        for _ in range(64):
            value = float(
                self.service_time_median
                * math.exp(self.service_time_sigma * gen.standard_normal())
            )
            if value <= self.max_gpu_seconds:
                return value
        return self.max_gpu_seconds  # pathological parameters: clamp

    # -- the stream --------------------------------------------------------------

    def __iter__(self) -> Iterator[FillJob]:
        gen = ensure_rng(self.seed)
        distribution = self._distribution()
        rate_per_second = self.arrival_rate_per_hour / 3_600.0
        prefix = f"{self.name}/" if self.name else ""
        t = self.start_time
        index = 0
        while True:
            t += float(gen.exponential(1.0 / rate_per_second))
            if self.end_time is not None and t >= self.end_time:
                return
            model_name = distribution.sample(gen)
            category = category_for_model(model_name)
            if self.job_type is not None:
                if self.job_type not in category.job_types():
                    continue  # the closed-loop path drops these too
                job_type = self.job_type
            else:
                types = category.job_types()
                job_type = (
                    types[0]
                    if len(types) == 1
                    else (
                        JobType.TRAINING
                        if gen.random() < 0.5
                        else JobType.BATCH_INFERENCE
                    )
                )
            throughput = self._isolated_throughput(model_name, job_type)
            gpu_seconds = self._draw_gpu_seconds(gen)
            num_samples = max(1.0, gpu_seconds * throughput)
            deadline = None
            if gen.random() < self.deadline_fraction:
                ideal = num_samples / throughput
                deadline = t + self.deadline_slack_factor * ideal
            yield FillJob(
                job_id=f"{prefix}open-{index}",
                model_name=model_name,
                job_type=job_type,
                num_samples=num_samples,
                arrival_time=t,
                deadline=deadline,
                tenant=self.name or None,
            )
            index += 1


# The shipped open-loop source: a homogeneous Poisson process over the
# synthetic-trace job mix.  Scenario workload blocks select arrival
# processes by registered name (``arrival_process: poisson`` is the
# default); plugins may register alternatives (bursty, diurnal, replay).
registry.register_arrival_process("poisson", ArrivalProcess)


@dataclass(frozen=True)
class TenantWorkloadSpec:
    """The fill-job arrival stream one tenant contributes to the backlog.

    Parameters mirror :func:`build_fill_job_trace`; every tenant gets an
    independent (but deterministic) random stream derived from the base
    seed, and its job ids are prefixed with the tenant name so streams can
    be merged without collisions.  ``name`` may be left empty while the
    spec travels inside a scenario tenant block (which carries the name)
    but must be set before :func:`build_tenant_fill_job_traces`.

    With ``open_loop=True`` the tenant's stream is not materialized at
    all: :func:`~repro.sim.scenario.build_tenants` wires an arrival
    process into the tenant instead, and the simulator pulls arrivals
    lazily (required for long-horizon runs).  ``arrival_process`` names
    the source's registered factory (:data:`repro.registry.
    arrival_processes`); the shipped default is ``"poisson"``.
    """

    name: str = ""
    arrival_rate_per_hour: float = 120.0
    models: Optional[Sequence[str]] = None
    job_type: Optional[JobType] = None
    deadline_fraction: float = 0.0
    deadline_slack_factor: float = 4.0
    seed: Optional[int] = None
    open_loop: bool = False
    arrival_process: str = "poisson"

    def build_arrival_process(
        self, *, seed: int, end_time: Optional[float] = None
    ) -> Iterable[FillJob]:
        """The open-loop source equivalent to this spec's parameters.

        The factory comes from the arrival-process registry, so a tenant
        block saying ``arrival_process: my-bursty`` streams jobs from a
        plugin-registered source with the exact same call contract.
        """
        if not self.name:
            raise ValueError("an arrival process needs a non-empty tenant name")
        factory = registry.arrival_processes.get(self.arrival_process)
        return factory(
            name=self.name,
            arrival_rate_per_hour=self.arrival_rate_per_hour,
            models=self.models,
            job_type=self.job_type,
            deadline_fraction=self.deadline_fraction,
            deadline_slack_factor=self.deadline_slack_factor,
            seed=self.seed if self.seed is not None else seed,
            end_time=end_time,
        )


def build_tenant_fill_job_traces(
    duration_seconds: float,
    specs: Sequence[TenantWorkloadSpec],
    *,
    seed: int = 0,
) -> Dict[str, List[FillJob]]:
    """Generate one tenant-tagged fill-job stream per spec.

    Returns ``{tenant_name: jobs}``; each job carries ``tenant`` and a
    ``"<tenant>/"``-prefixed id.  Specs without an explicit seed derive one
    from the base ``seed`` and their position, so adding a tenant does not
    perturb the other tenants' streams.
    """
    names = [spec.name for spec in specs]
    if not all(names):
        raise ValueError("every tenant workload spec needs a non-empty name")
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    streams: Dict[str, List[FillJob]] = {}
    for index, spec in enumerate(specs):
        tenant_seed = spec.seed if spec.seed is not None else seed + 7919 * (index + 1)
        jobs = build_fill_job_trace(
            duration_seconds,
            arrival_rate_per_hour=spec.arrival_rate_per_hour,
            models=spec.models,
            job_type=spec.job_type,
            deadline_fraction=spec.deadline_fraction,
            deadline_slack_factor=spec.deadline_slack_factor,
            seed=tenant_seed,
        )
        streams[spec.name] = [
            replace(job, job_id=f"{spec.name}/{job.job_id}", tenant=spec.name)
            for job in jobs
        ]
    return streams
