"""Event-driven cluster simulator for large-scale PipeFill experiments.

The paper evaluates scales of 1K-16K GPUs in an event-driven simulator
seeded with profiles of the real main job; this package is that simulator.
:mod:`repro.sim.mainjob` provides the uniform-stage analytic main-job model
used to seed it, :mod:`repro.sim.multi_tenant` runs fill-job arrivals and
completions over the devices' bubble cycles, and :mod:`repro.sim.metrics`
aggregates the utilization / JCT / makespan numbers the figures report.

There is one simulator, :class:`~repro.sim.multi_tenant.MultiTenantSimulator`:
the paper's setting of one pipeline-parallel main job is a one-tenant run
(:meth:`repro.core.system.PipeFillSystem.run`), and beyond the paper it
simulates N concurrent main jobs sharing one global fill-job backlog
(routed by :class:`~repro.core.global_scheduler.GlobalScheduler`) with
dynamic cluster events (executor failures, elastic tenants, open-loop
arrivals).  :mod:`repro.sim.kernel` hosts the discrete-event loop it
configures, and :mod:`repro.sim.scenario` loads declarative YAML/JSON
scenario specs that the ``python -m repro`` CLI runs, sweeps and validates.
"""

from repro.sim.events import (
    STALE_COMPLETION_EPSILON,
    Event,
    EventKind,
    EventQueue,
)
from repro.sim.kernel import FaultSpec, KernelStats, OpenLoopArrivals, SimKernel
from repro.sim.mainjob import AnalyticMainJob
from repro.sim.metrics import (
    FillJobMetrics,
    UtilizationReport,
    collect_fill_metrics,
    gpus_saved,
)
from repro.sim.multi_tenant import (
    MultiTenantResult,
    MultiTenantSimulator,
    Tenant,
    TenantResult,
)
from repro.sim.observers import ObserverFanout, RunObserver

__all__ = [
    "STALE_COMPLETION_EPSILON",
    "Event",
    "EventKind",
    "EventQueue",
    "FaultSpec",
    "KernelStats",
    "OpenLoopArrivals",
    "SimKernel",
    "AnalyticMainJob",
    "FillJobMetrics",
    "UtilizationReport",
    "collect_fill_metrics",
    "gpus_saved",
    "MultiTenantResult",
    "MultiTenantSimulator",
    "Tenant",
    "TenantResult",
    "ObserverFanout",
    "RunObserver",
]
