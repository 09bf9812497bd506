"""PipeFill core: bubble-filling planner, executor, offloader and scheduler.

This package is the paper's primary contribution:

* :mod:`repro.core.config` -- system-wide PipeFill tunables (fill fraction,
  memory safety margin, context-switch costs).
* :mod:`repro.core.plan` -- the Fill Job Execution Plan Algorithm
  (Algorithm 1): replicate and greedily pack a fill job's linearised
  computational graph into the repeating cycle of pipeline bubbles.
* :mod:`repro.core.executor` -- the per-device Fill Job Executor: selects an
  execution configuration that fits the bubbles' free memory, builds the
  plan, and estimates achieved throughput / recovered FLOPs.
* :mod:`repro.core.offload` -- main-job optimizer-state offloading to grow
  the free memory available in bubbles.
* :mod:`repro.core.policies` / :mod:`repro.core.scheduler` -- the fill-job
  scheduler with user-defined scoring policies and preemption rules.
* :mod:`repro.core.global_scheduler` -- the cross-tenant routing layer: one
  shared fill-job backlog feeding many main jobs' schedulers.
* :mod:`repro.core.system` -- the PipeFillSystem facade wiring a main job,
  executors and the scheduler together.
"""

from repro.core.config import PipeFillConfig, main_job_overhead_fraction
from repro.core.plan import (
    PlanError,
    GraphPartition,
    ExecutionPlan,
    plan_fill_job,
)
from repro.core.executor import FillJobExecutor, FillExecutionEstimate
from repro.core.offload import OffloadPlan, plan_optimizer_offload
from repro.core.policies import (
    SchedulingPolicy,
    PreemptionRule,
    RunningJobView,
    fifo_policy,
    sjf_policy,
    makespan_policy,
    edf_policy,
    slack_policy,
    deadline_preemption_rule,
    compose_policies,
    POLICIES,
    PREEMPTION_RULES,
    get_policy,
    get_preemption_rule,
)
from repro.core.scheduler import (
    FillJob,
    FillJobState,
    ExecutorState,
    FillJobScheduler,
)
from repro.core.global_scheduler import Assignment, GlobalScheduler
from repro.core.system import PipeFillSystem, PipeFillReport

__all__ = [
    "PipeFillConfig",
    "main_job_overhead_fraction",
    "PlanError",
    "GraphPartition",
    "ExecutionPlan",
    "plan_fill_job",
    "FillJobExecutor",
    "FillExecutionEstimate",
    "OffloadPlan",
    "plan_optimizer_offload",
    "SchedulingPolicy",
    "PreemptionRule",
    "RunningJobView",
    "fifo_policy",
    "sjf_policy",
    "makespan_policy",
    "edf_policy",
    "slack_policy",
    "deadline_preemption_rule",
    "compose_policies",
    "POLICIES",
    "PREEMPTION_RULES",
    "get_policy",
    "get_preemption_rule",
    "FillJob",
    "FillJobState",
    "ExecutorState",
    "FillJobScheduler",
    "Assignment",
    "GlobalScheduler",
    "PipeFillSystem",
    "PipeFillReport",
]
