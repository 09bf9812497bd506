"""Figure 7: fill-job characterisation.

* **7a** -- recovered GPU TFLOP/s (FLOPs divided by the bubble durations
  used) for each fill-job model and job type, compared against the ~60
  TFLOP/s the main job sustains while executing.
* **7b** -- slowdown of each fill-job type relative to exclusive execution
  on a dedicated GPU.
"""

from __future__ import annotations

from typing import Optional

from repro.core.executor import FillJobExecutor
from repro.experiments.common import main_job_model, make_40b_parallel
from repro.models.configs import JobType
from repro.models.registry import build_model
from repro.sim.mainjob import AnalyticMainJob
from repro.utils.tables import Table
from repro.workloads.fill_jobs import FILL_JOB_CATEGORIES, category_for_model

#: GPU count whose bubble cycle the characterisation uses (the 8K setting).
DEFAULT_GPU_COUNT = 8192

#: Stage whose bubble cycle is used (a middle stage).
DEFAULT_STAGE = 8


def run_fig7(
    *,
    num_gpus: int = DEFAULT_GPU_COUNT,
    stage_id: int = DEFAULT_STAGE,
    executor: Optional[FillJobExecutor] = None,
) -> Table:
    """Per-model, per-job-type recovered TFLOPS and slowdown."""
    if executor is None:
        main_job = AnalyticMainJob(
            model=main_job_model("gpt-40b"), parallel=make_40b_parallel(num_gpus)
        )
        executor = FillJobExecutor(main_job.bubble_cycle(stage_id))

    table = Table(
        columns=[
            "model",
            "job type",
            "recovered TFLOPS (7a)",
            "relative performance (7b)",
            "slowdown (7b)",
            "execution config",
        ],
        title="Figure 7: fill-job characterisation in the 8K-GPU bubble cycle",
        formats={
            "recovered TFLOPS (7a)": ".2f",
            "relative performance (7b)": ".3f",
            "slowdown (7b)": ".2f",
        },
    )
    for name in sorted(FILL_JOB_CATEGORIES):
        model = build_model(name)
        for job_type in category_for_model(name).job_types():
            estimate = executor.build_estimate(model, job_type)
            if estimate is None:
                table.add_row(name, job_type.value, None, None, None, "does not fit")
                continue
            table.add_row(
                name,
                job_type.value,
                estimate.recovered_tflops,
                estimate.relative_performance,
                estimate.slowdown,
                estimate.exec_config.describe(),
            )
    return table
