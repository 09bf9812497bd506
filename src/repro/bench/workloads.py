"""Sized synthetic workloads for the performance benchmark harness.

Each benchmark *size* fixes a number of fill jobs and a cluster shape
(number of executors, i.e. representative devices).  Workload generation is
deterministic, cheap (no trace machinery) and sized so the cluster runs at
high-but-stable load: arrivals are spread over a window matched to the
cluster's approximate service capacity, which keeps the backlog realistic
instead of unboundedly growing or trivially empty.

The generated jobs use the shipped Table 1 fill-job models and the same
GPU-seconds -> samples conversion as the trace pipeline, so benchmark runs
exercise exactly the code paths of real scenario runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import registry

from repro.core.scheduler import FillJob
from repro.core.system import PipeFillSystem
from repro.hardware.device import DeviceSpec, V100_16GB
from repro.models.configs import JobType
from repro.models.profiles import isolated_throughput
from repro.models.registry import build_model
from repro.pipeline.parallelism import ParallelConfig
from repro.sim.kernel import FaultSpec
from repro.sim.multi_tenant import Tenant
from repro.workloads.fill_jobs import category_for_model

#: Mean exclusive-GPU seconds of a generated fill job (log-uniform draw
#: between ``_MIN_GPU_SECONDS`` and ``_MAX_GPU_SECONDS``).
_MIN_GPU_SECONDS = 30.0
_MAX_GPU_SECONDS = 600.0
#: Approximate slowdown of bubble execution vs exclusive execution, used
#: only to size the arrival window.  Jobs only run during bubbles, so the
#: wall-clock slowdown compounds the in-bubble slowdown (Section 6.2's
#: 2-3x) with the bubble fraction of the cycle.
_ASSUMED_SLOWDOWN = 6.0
#: Target utilization of the arrival stream relative to estimated capacity.
_TARGET_LOAD = 0.85

_BENCH_MODELS: Tuple[str, ...] = ("bert-base", "efficientnet", "bert-large", "swin-large")


@dataclass(frozen=True)
class BenchSize:
    """One benchmark size: job count plus cluster shape.

    ``pipeline_stages * devices_per_stage`` is the executor count of one
    tenant; multi-tenant cases run ``num_tenants`` such main jobs side by
    side over one shared backlog.  ``churn=True`` adds dynamic cluster
    events to the multi-tenant cases (periodic executor
    failures/recoveries plus one tenant joining and leaving mid-window),
    so the bench trajectory tracks fault/churn event throughput alongside
    arrival/completion work.
    """

    name: str
    num_jobs: int
    pipeline_stages: int
    devices_per_stage: int
    num_tenants: int = 2
    churn: bool = False

    @property
    def executors_per_tenant(self) -> int:
        return self.pipeline_stages * self.devices_per_stage


registry.register_bench_size(
    BenchSize("smoke", num_jobs=200, pipeline_stages=8, devices_per_stage=1)
)
registry.register_bench_size(
    BenchSize("small", num_jobs=1_000, pipeline_stages=16, devices_per_stage=1)
)
registry.register_bench_size(
    BenchSize("medium", num_jobs=10_000, pipeline_stages=16, devices_per_stage=4)
)
registry.register_bench_size(
    BenchSize("large", num_jobs=100_000, pipeline_stages=16, devices_per_stage=16)
)
# 512 devices per tenant (1024 in the multi-tenant cases): the scale
# scenarios/xlarge_cluster.yaml runs at, only tractable with the
# incremental candidate indexes.
registry.register_bench_size(
    BenchSize("xlarge", num_jobs=250_000, pipeline_stages=16, devices_per_stage=32)
)
registry.register_bench_size(
    BenchSize(
        "churn",
        num_jobs=5_000,
        pipeline_stages=16,
        devices_per_stage=2,
        num_tenants=3,
        churn=True,
    )
)

#: Live view of the sized workloads `repro bench` knows about; extend with
#: :func:`repro.registry.register_bench_size` (directly or from a plugin).
SIZES: Mapping[str, BenchSize] = registry.bench_sizes.view()

#: Fraction of the arrival window covered by the churn tenant's presence.
_CHURN_JOIN_FRACTION = 0.2
_CHURN_LEAVE_FRACTION = 0.8
#: Failure waves per churn run and the downtime of each failed executor,
#: as a fraction of the arrival window.
_CHURN_FAILURE_WAVES = 12
_CHURN_DOWNTIME_FRACTION = 1.0 / 16.0


def build_bench_system(
    size: BenchSize, *, model: str = "gpt-5b", seed_offset: int = 0
) -> PipeFillSystem:
    """One tenant's main job sized to the benchmark's cluster shape.

    ``seed_offset`` varies the data-parallel width slightly so multiple
    tenants do not end up with byte-identical bubble cycles (which would
    make the shared estimate cache hide all per-tenant planning cost).
    """
    parallel = ParallelConfig(
        tensor_parallel=1,
        pipeline_stages=size.pipeline_stages,
        data_parallel=2 + seed_offset,
        microbatch_size=2,
        global_batch_size=(2 + seed_offset) * size.pipeline_stages * 2,
    )
    return PipeFillSystem(
        build_model(model),
        parallel,
        devices_per_stage=size.devices_per_stage,
    )


def _job_type_for(model_name: str, rng: random.Random) -> JobType:
    types = category_for_model(model_name).job_types()
    if len(types) == 1:
        return types[0]
    return JobType.TRAINING if rng.random() < 0.5 else JobType.BATCH_INFERENCE


def arrival_window_seconds(size: BenchSize, num_executors: int) -> float:
    """Arrival window that loads ``num_executors`` at ``_TARGET_LOAD``."""
    mean_gpu_seconds = math.sqrt(_MIN_GPU_SECONDS * _MAX_GPU_SECONDS)  # log-mean
    mean_fill_seconds = mean_gpu_seconds * _ASSUMED_SLOWDOWN
    service_rate = num_executors / mean_fill_seconds  # jobs per second
    return size.num_jobs / (service_rate * _TARGET_LOAD)


def build_bench_jobs(
    size: BenchSize,
    *,
    num_executors: int,
    deadline_fraction: float = 0.0,
    deadline_slack_factor: float = 6.0,
    seed: int = 0,
    device: DeviceSpec = V100_16GB,
) -> List[FillJob]:
    """Deterministic fill-job stream for one benchmark case.

    Jobs draw a log-uniform exclusive-GPU duration, convert it to samples
    through the model's isolated throughput (the trace pipeline's
    conversion), and arrive uniformly over a window matched to the
    cluster's service capacity.
    """
    rng = random.Random(seed)
    window = arrival_window_seconds(size, num_executors)
    jobs: List[FillJob] = []
    # Each (model, job type) class is priced once per call, not once per job.
    throughputs: Dict[Tuple[str, JobType], float] = {}
    log_lo, log_hi = math.log(_MIN_GPU_SECONDS), math.log(_MAX_GPU_SECONDS)
    for i in range(size.num_jobs):
        model_name = _BENCH_MODELS[i % len(_BENCH_MODELS)]
        job_type = _job_type_for(model_name, rng)
        throughput = throughputs.get((model_name, job_type))
        if throughput is None:
            throughput = isolated_throughput(build_model(model_name), job_type, device)
            throughputs[model_name, job_type] = throughput
        gpu_seconds = math.exp(rng.uniform(log_lo, log_hi))
        num_samples = max(1.0, gpu_seconds * throughput)
        arrival = rng.uniform(0.0, window)
        deadline: Optional[float] = None
        if deadline_fraction > 0.0 and rng.random() < deadline_fraction:
            deadline = arrival + deadline_slack_factor * gpu_seconds * _ASSUMED_SLOWDOWN
        jobs.append(
            FillJob(
                job_id=f"bench-{i}",
                model_name=model_name,
                job_type=job_type,
                num_samples=num_samples,
                arrival_time=arrival,
                deadline=deadline,
            )
        )
    return jobs


def split_jobs_by_tenant(
    jobs: Sequence[FillJob], tenant_names: Sequence[str]
) -> Dict[str, List[FillJob]]:
    """Round-robin the stream across tenants (the submitting side only;
    placement is still the global scheduler's decision)."""
    streams: Dict[str, List[FillJob]] = {name: [] for name in tenant_names}
    for i, job in enumerate(jobs):
        streams[tenant_names[i % len(tenant_names)]].append(job)
    return streams


def build_multi_tenant(
    size: BenchSize,
    *,
    deadline_fraction: float = 0.0,
    seed: int = 0,
    churn: bool = False,
) -> List[Tenant]:
    """The tenants (systems plus per-tenant job streams) for one case.

    With ``churn=True`` (and at least two tenants) the last tenant is
    elastic: it joins a fifth of the way into the arrival window and
    leaves at four fifths with its placed jobs requeued, exercising the
    TENANT_JOIN/TENANT_LEAVE paths under load.
    """
    tenant_names = [f"bench-tenant-{i}" for i in range(size.num_tenants)]
    num_executors = size.executors_per_tenant * size.num_tenants
    jobs = build_bench_jobs(
        size,
        num_executors=num_executors,
        deadline_fraction=deadline_fraction,
        seed=seed,
    )
    streams = split_jobs_by_tenant(jobs, tenant_names)
    window = arrival_window_seconds(size, num_executors)
    tenants = []
    for i, name in enumerate(tenant_names):
        elastic = churn and size.num_tenants > 1 and i == size.num_tenants - 1
        tenants.append(
            Tenant(
                name=name,
                system=build_bench_system(size, seed_offset=i),
                jobs=streams[name],
                join_at=window * _CHURN_JOIN_FRACTION if elastic else None,
                leave_at=window * _CHURN_LEAVE_FRACTION if elastic else None,
                leave_mode="requeue" if elastic else "drain",
            )
        )
    return tenants


def build_churn_faults(size: BenchSize) -> List[FaultSpec]:
    """Deterministic executor failure/recovery schedule for a churn case.

    ``_CHURN_FAILURE_WAVES`` waves spread uniformly over the arrival
    window; wave ``k`` fails one executor of tenant ``k % num_tenants``
    (rotating through that tenant's executors) and recovers it
    ``_CHURN_DOWNTIME_FRACTION`` of the window later.
    """
    num_executors = size.executors_per_tenant * size.num_tenants
    window = arrival_window_seconds(size, num_executors)
    downtime = window * _CHURN_DOWNTIME_FRACTION
    faults: List[FaultSpec] = []
    for wave in range(_CHURN_FAILURE_WAVES):
        tenant_index = wave % size.num_tenants
        executor_index = (wave * 3) % size.executors_per_tenant
        fail_at = window * (wave + 1) / (_CHURN_FAILURE_WAVES + 1)
        faults.append(
            FaultSpec(
                executor_index=executor_index,
                fail_at=fail_at,
                recover_at=fail_at + downtime,
                tenant=f"bench-tenant-{tenant_index}",
            )
        )
    return faults
