"""PipeFillSystem: the end-to-end facade.

Wires together the three components of Figure 3 -- the (analytic or
instrumented) pipeline engine supplying bubble cycles, one Fill Job Executor
per simulated device, and the policy-driven Fill Job Scheduler -- and runs a
fill-job trace through the event-driven cluster simulator (a one-tenant
:class:`~repro.sim.multi_tenant.MultiTenantSimulator`), returning the
utilization report the paper's figures are built from.

Imports of :mod:`repro.sim` are done lazily inside methods to keep the
package import graph acyclic (``sim`` depends on ``core`` for the executor
and scheduler).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, TYPE_CHECKING

from repro.core.config import PipeFillConfig
from repro.core.executor import FillJobExecutor
from repro.core.offload import plan_optimizer_offload
from repro.core.policies import SchedulingPolicy, sjf_policy
from repro.core.scheduler import FillJob, FillJobScheduler
from repro.hardware.node import NodeSpec, P3_16XLARGE
from repro.models.base import ModelSpec
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.pipeline.bubbles import BubbleCycle
from repro.pipeline.parallelism import ParallelConfig
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.metrics import UtilizationReport
    from repro.sim.multi_tenant import MultiTenantResult

#: Name of the one tenant :meth:`PipeFillSystem.run` simulates; its
#: scheduler is ``report.simulation.tenants[MAIN_TENANT].scheduler``.
MAIN_TENANT = "main"


@dataclass(frozen=True)
class PipeFillReport:
    """End-to-end result of running PipeFill over a fill-job trace."""

    utilization: "UtilizationReport"
    simulation: "MultiTenantResult"
    cluster_devices: int
    mean_relative_performance: float

    @property
    def gpus_saved(self) -> float:
        """The paper's ``C * B * P`` estimate for the full cluster."""
        from repro.sim.metrics import gpus_saved

        return gpus_saved(
            self.cluster_devices,
            self.utilization.bubble_ratio,
            self.mean_relative_performance,
        )


class PipeFillSystem:
    """A main training job plus PipeFill's executors and scheduler.

    Parameters
    ----------
    main_model:
        The pipeline-parallel LLM being trained (the main job).
    parallel:
        Its tensor/pipeline/data-parallel configuration.
    schedule:
        Pipeline schedule (``"gpipe"`` or ``"1f1b"``).
    config:
        PipeFill tunables (fill fraction, memory margin, offloading).
    node:
        Cluster node type.
    efficiency:
        Shared efficiency model.
    policy:
        Fill-job scheduling policy.
    devices_per_stage:
        Representative devices simulated per pipeline stage.
    bubble_free_memory_bytes:
        Override of the free memory available in bubbles (the paper uses its
        measured 4.5 GB for simulator studies and sweeps it in Figure 10b).
    use_engine:
        When true, derive bubble cycles from the instrumented pipeline
        engine (realistic stage imbalance); otherwise use the analytic
        uniform-stage main-job model, as the paper's simulator does.
    """

    def __init__(
        self,
        main_model: ModelSpec,
        parallel: ParallelConfig,
        *,
        schedule: str = "gpipe",
        config: Optional[PipeFillConfig] = None,
        node: NodeSpec = P3_16XLARGE,
        efficiency: EfficiencyModel = DEFAULT_EFFICIENCY,
        policy: SchedulingPolicy = sjf_policy,
        devices_per_stage: int = 1,
        bubble_free_memory_bytes: Optional[float] = None,
        use_engine: bool = False,
    ) -> None:
        check_positive(devices_per_stage, "devices_per_stage")
        self.main_model = main_model
        self.parallel = parallel
        self.schedule = schedule
        self.config = config or PipeFillConfig()
        self.node = node
        self.efficiency = efficiency
        self.policy = policy
        self.devices_per_stage = devices_per_stage
        self.use_engine = use_engine

        self.main_job = self._build_main_job(bubble_free_memory_bytes)
        self._cycles = self._build_cycles()
        self.executors = self._build_executors()

    # -- construction ------------------------------------------------------------

    def _build_main_job(self, bubble_free_memory_bytes: Optional[float]):
        from repro.sim.mainjob import AnalyticMainJob

        return AnalyticMainJob(
            model=self.main_model,
            parallel=self.parallel,
            schedule=self.schedule,
            node=self.node,
            efficiency=self.efficiency,
            bubble_free_memory_bytes=bubble_free_memory_bytes,
        )

    def _build_cycles(self) -> Dict[int, BubbleCycle]:
        if self.use_engine:
            from repro.pipeline.costs import main_job_costs
            from repro.pipeline.engine import InstrumentedPipelineEngine

            costs = main_job_costs(
                self.main_model, self.parallel, node=self.node, efficiency=self.efficiency
            )
            engine = InstrumentedPipelineEngine(costs, self.schedule)
            cycles = {c.stage_id: c for c in engine.bubble_cycles()}
        else:
            cycles = {c.stage_id: c for c in self.main_job.bubble_cycles()}

        if self.config.offload_main_job:
            cycles = {
                stage: cycle.with_free_memory(
                    cycle.min_free_memory_bytes + self._offload_gain(stage)
                )
                for stage, cycle in cycles.items()
            }
        return cycles

    def _offload_gain(self, stage_id: int) -> float:
        from repro.pipeline.costs import main_job_costs

        costs = main_job_costs(
            self.main_model, self.parallel, node=self.node, efficiency=self.efficiency
        )
        plan = plan_optimizer_offload(costs.stages[stage_id], self.parallel, node=self.node)
        return plan.extra_free_memory_bytes

    def _build_executors(self) -> Dict[int, FillJobExecutor]:
        executors: Dict[int, FillJobExecutor] = {}
        index = 0
        for stage_id in range(self.parallel.pipeline_stages):
            cycle = self._cycles[stage_id]
            for _ in range(self.devices_per_stage):
                executors[index] = FillJobExecutor(
                    cycle,
                    device=self.node.device_spec,
                    config=self.config,
                    efficiency=self.efficiency,
                )
                index += 1
        return executors

    # -- introspection --------------------------------------------------------------

    @property
    def num_simulated_devices(self) -> int:
        """Number of representative devices the simulator will run."""
        return len(self.executors)

    @property
    def cluster_devices(self) -> int:
        """Number of accelerators in the full cluster."""
        return self.parallel.num_devices

    def bubble_cycle(self, stage_id: int) -> BubbleCycle:
        """The (possibly offload-augmented) bubble cycle of a stage."""
        return self._cycles[stage_id]

    # -- running -----------------------------------------------------------------------

    def run(
        self,
        jobs: Iterable[FillJob],
        *,
        horizon_seconds: Optional[float] = None,
    ) -> PipeFillReport:
        """Run a fill-job trace through a one-tenant simulation of this system."""
        from repro.sim.multi_tenant import MultiTenantSimulator, Tenant

        simulator = MultiTenantSimulator([Tenant(MAIN_TENANT, self)], policy=self.policy)
        result = simulator.run(extra_jobs=jobs, horizon_seconds=horizon_seconds)
        tenant = result.tenants[MAIN_TENANT]
        return PipeFillReport(
            # The aggregate also counts jobs still waiting in the backlog or
            # rejected before placement, which the tenant's records never hold.
            utilization=replace(tenant.utilization, fill_metrics=result.aggregate),
            simulation=result,
            cluster_devices=self.cluster_devices,
            mean_relative_performance=self._mean_relative_performance(tenant.scheduler),
        )

    @staticmethod
    def _mean_relative_performance(scheduler: FillJobScheduler) -> float:
        """Average fill-job relative performance ``P`` over executed jobs."""
        values = []
        for record in scheduler.completed_records():
            assert record.assigned_executor is not None
            estimate = scheduler.estimate_for(record.job, record.assigned_executor)
            if estimate is not None:
                values.append(estimate.relative_performance)
        if not values:
            return 0.0
        return float(sum(values) / len(values))
