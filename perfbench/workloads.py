"""Seeded workload definitions and input generators for the benchmark.

A workload is a cluster *family*: one or more tenant main jobs, a
scheduling policy and optional preemption, a fill-job arrival rate,
optional executor failure waves and an elastic tenant, and a grid of
main-job parallel configurations that the sweep phase runs through
``Experiment.sweep``.

Both phases take their traffic from the program's own generators, so the
simulation phase and the sweep phase see the same mix: fill jobs from
``build_tenant_fill_job_traces`` (the Section 5.3 stream: log-normal job
sizes capped at one GPU-hour, the model-hub mix over all five Table 1
models, Poisson arrivals) and failures from the registered
``periodic-waves`` fault model.  The benchmark chooses only the tenants,
the per-tenant arrival rate and the arrival window.  The program under
test receives ``FillJob`` lists, ``FaultSpec`` lists and a scenario
document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import registry
from repro.core.scheduler import FillJob
from repro.models.configs import JobType
from repro.sim.kernel import FaultSpec
from repro.workloads.generator import TenantWorkloadSpec, build_tenant_fill_job_traces

#: The simulation horizon runs this far past the arrival window, so that
#: most of the stream completes.
HORIZON_FACTOR = 1.25
FAULT_MODEL = "periodic-waves"


@dataclass(frozen=True)
class TenantShape:
    """One main job: model, parallel layout and devices simulated per stage.

    ``join_fraction``/``leave_fraction`` make the tenant elastic: it joins
    and leaves at these fractions of the arrival window.
    """

    name: str
    model: str
    tensor_parallel: int
    pipeline_stages: int
    data_parallel: int
    microbatch_size: int
    global_batch_size: int
    devices_per_stage: int = 1
    join_fraction: Optional[float] = None
    leave_fraction: Optional[float] = None
    leave_mode: str = "drain"

    @property
    def num_executors(self) -> int:
        return self.pipeline_stages * self.devices_per_stage

    def parallel(self) -> Dict[str, int]:
        """The ``parallel`` block of a scenario document."""
        return {
            "tensor_parallel": self.tensor_parallel,
            "pipeline_stages": self.pipeline_stages,
            "data_parallel": self.data_parallel,
            "microbatch_size": self.microbatch_size,
            "global_batch_size": self.global_batch_size,
        }


@dataclass(frozen=True)
class SweepShape:
    """The sweep phase: a grid over tenant 0's parallel configuration.

    Each value is a complete ``parallel`` block (pipeline depth x
    microbatch size), so every grid point brings its own bubble cycles.
    The scenario's own trace generator makes the points' fill jobs at the
    workload's arrival rate over ``horizon_seconds``, which is long enough
    that every tenant's trace holds all eight job classes at any seed;
    a trace missing a class makes the sweep cheaper, so shorter sweeps
    varied with the seed.
    """

    values: Tuple[Tuple[int, int], ...]  # (pipeline_stages, microbatch_size)
    horizon_seconds: float


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    tenants: Tuple[TenantShape, ...]
    policy: str
    preemption: Optional[str]
    #: Fill-job arrivals per hour submitted by each tenant, sized so the
    #: shared backlog stays bounded (``test_backlog_stays_stable``).
    arrival_rate_per_hour: float
    #: Simulated seconds over which the simulation phase's jobs arrive.
    window_seconds: float
    deadline_fraction: float
    failure_waves: int
    sweep: SweepShape

    @property
    def horizon_seconds(self) -> float:
        return self.window_seconds * HORIZON_FACTOR


def _gpt5b(name: str, *, dp: int, devices_per_stage: int, **kw) -> TenantShape:
    """gpt-5b at 16 stages; ``dp`` varies the bubble cycle between tenants."""
    return TenantShape(
        name=name,
        model="gpt-5b",
        tensor_parallel=1,
        pipeline_stages=16,
        data_parallel=dp,
        microbatch_size=2,
        global_batch_size=dp * 32,
        devices_per_stage=devices_per_stage,
        **kw,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="single_tenant_sjf",
            tenants=(_gpt5b("main", dp=4, devices_per_stage=8),),
            policy="sjf",
            preemption=None,
            arrival_rate_per_hour=300.0,
            window_seconds=36 * 3600.0,
            deadline_fraction=0.0,
            failure_waves=0,
            sweep=SweepShape(values=((16, 2), (16, 4)), horizon_seconds=7200.0),
        ),
        Workload(
            name="cluster_deadline_churn",
            tenants=(
                _gpt5b("t0", dp=2, devices_per_stage=2),
                _gpt5b("t1", dp=3, devices_per_stage=2),
                _gpt5b(
                    "t2",
                    dp=4,
                    devices_per_stage=2,
                    join_fraction=0.2,
                    leave_fraction=0.8,
                    leave_mode="requeue",
                ),
            ),
            policy="slack+sjf",
            preemption="deadline",
            arrival_rate_per_hour=70.0,
            window_seconds=30 * 3600.0,
            deadline_fraction=0.3,
            failure_waves=12,
            sweep=SweepShape(values=((16, 2), (16, 4)), horizon_seconds=14400.0),
        ),
        Workload(
            name="config_sweep",
            tenants=(
                TenantShape(
                    name="llm-40b",
                    model="gpt-40b",
                    tensor_parallel=8,
                    pipeline_stages=16,
                    data_parallel=64,
                    microbatch_size=2,
                    global_batch_size=1024,
                ),
                _gpt5b("llm-5b", dp=4, devices_per_stage=1),
            ),
            policy="sjf",
            preemption=None,
            arrival_rate_per_hour=60.0,
            window_seconds=30 * 3600.0,
            deadline_fraction=0.0,
            failure_waves=0,
            sweep=SweepShape(
                values=((16, 2), (16, 4), (32, 2), (32, 4)), horizon_seconds=14400.0
            ),
        ),
    )
}


def _specs(workload: Workload) -> List[TenantWorkloadSpec]:
    return [
        TenantWorkloadSpec(
            name=t.name,
            arrival_rate_per_hour=workload.arrival_rate_per_hour,
            deadline_fraction=workload.deadline_fraction,
        )
        for t in workload.tenants
    ]


def generate_jobs(workload: Workload, seed: int) -> Dict[str, List[FillJob]]:
    """The simulation phase's fill jobs, one stream per submitting tenant."""
    return build_tenant_fill_job_traces(workload.window_seconds, _specs(workload), seed=int(seed))


def job_classes(streams: Dict[str, Sequence[FillJob]]) -> List[Tuple[str, JobType]]:
    """Distinct ``(model, job type)`` classes the stream submits, sorted."""
    classes = {(job.model_name, job.job_type) for jobs in streams.values() for job in jobs}
    return sorted(classes, key=lambda c: (c[0], c[1].value))


def generate_faults(workload: Workload) -> List[FaultSpec]:
    """Executor failure/recovery waves spread over the arrival window."""
    if workload.failure_waves <= 0:
        return []
    model = registry.fault_models.get(FAULT_MODEL)
    return list(model(workload.tenants, workload.window_seconds, waves=workload.failure_waves))


SWEEP_PARAMETER = "tenants.0.parallel"


def sweep_document(workload: Workload, seed: int) -> Dict:
    """The scenario document the sweep phase hands to ``Experiment``.

    Same tenants, policy, preemption, traffic and churn as the simulation
    phase, with the scenario's own trace generator seeded from ``seed``.
    """
    horizon = workload.sweep.horizon_seconds
    tenants = []
    for t in workload.tenants:
        block: Dict = {
            "name": t.name,
            "model": t.model,
            "parallel": t.parallel(),
            "devices_per_stage": t.devices_per_stage,
            "workload": {
                "arrival_rate_per_hour": workload.arrival_rate_per_hour,
                "deadline_fraction": workload.deadline_fraction,
            },
        }
        if t.join_fraction is not None:
            block["join_at"] = horizon * t.join_fraction
        if t.leave_fraction is not None:
            block["leave_at"] = horizon * t.leave_fraction
            block["leave_mode"] = t.leave_mode
        tenants.append(block)
    doc: Dict = {
        "name": f"perfbench-{workload.name}",
        "horizon_seconds": horizon,
        "policy": workload.policy,
        "seed": int(seed),
        "tenants": tenants,
    }
    if workload.preemption is not None:
        doc["preemption"] = workload.preemption
    if workload.failure_waves > 0:
        doc["fault_model"] = {"name": FAULT_MODEL, "waves": workload.failure_waves}
    return doc


def sweep_values(workload: Workload) -> List[Dict[str, int]]:
    """The grid: tenant 0's ``parallel`` block at each (depth, microbatch)."""
    base = workload.tenants[0]
    values = []
    for stages, microbatch in workload.sweep.values:
        block = base.parallel()
        block["pipeline_stages"] = stages
        block["microbatch_size"] = microbatch
        values.append(block)
    return values
