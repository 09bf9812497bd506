#!/usr/bin/env python
"""Quickstart: fill the bubbles of an 8K-GPU LLM training job.

This walks through the full PipeFill pipeline on the paper's headline
setting (the 40B-parameter LLM scaled to 8K GPUs, ~65% pipeline bubbles):

1. describe the main job's 3D-parallel configuration,
2. derive each pipeline stage's bubble cycle,
3. ask a Fill Job Executor how well a BERT-base batch-inference job would
   run inside those bubbles,
4. run a two-hour synthetic fill-job trace through the scheduler and the
   event-driven simulator, and
5. print the per-GPU utilization recovered.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro.core import FillJobExecutor, PipeFillSystem
from repro.models import JobType, build_model
from repro.pipeline import ParallelConfig
from repro.sim import AnalyticMainJob
from repro.utils.units import GIB
from repro.workloads import build_fill_job_trace


def main() -> None:
    # 1. The main job: a 40B-parameter GPT-style LLM with 8-way tensor
    #    parallelism, 16 pipeline stages, and data parallelism chosen so the
    #    job spans 8192 GPUs (64 pipeline replicas, 8 microbatches each).
    main_model = build_model("gpt-40b")
    parallel = ParallelConfig(
        tensor_parallel=8,
        pipeline_stages=16,
        data_parallel=64,
        microbatch_size=2,
        global_batch_size=1024,
    )
    main_job = AnalyticMainJob(model=main_model, parallel=parallel)
    print(f"Main job: {main_model.name} on {parallel.num_devices} GPUs "
          f"({parallel.describe()})")
    print(f"  iteration time : {main_job.iteration_time:.2f} s")
    print(f"  bubble ratio   : {main_job.bubble_ratio:.1%}")
    print(f"  TFLOP/s per GPU: {main_job.tflops_per_device:.1f} (traditional PP)")

    # 2. Each stage's repeating bubble cycle (durations + free memory).
    cycle = main_job.bubble_cycle(stage_id=8)
    print("\nStage 8 bubble cycle:")
    for bubble in cycle:
        print(f"  {bubble.kind.value:12s} {bubble.duration:6.2f} s, "
              f"{bubble.free_memory_bytes / GIB:.1f} GiB free")

    # 3. How well does a BERT-base batch-inference fill job run in there?
    executor = FillJobExecutor(cycle)
    estimate = executor.build_estimate(build_model("bert-base"), JobType.BATCH_INFERENCE)
    assert estimate is not None
    print("\nBERT-base batch inference as a fill job on stage 8:")
    print(f"  chosen configuration : {estimate.exec_config.describe()}")
    print(f"  recovered TFLOP/s     : {estimate.recovered_tflops:.1f} (while filling)")
    print(f"  relative performance  : {estimate.relative_performance:.0%} of an exclusive GPU")

    # 4. Run a synthetic two-hour fill-job trace through the whole system.
    horizon = 2 * 3600.0
    jobs = build_fill_job_trace(horizon, arrival_rate_per_hour=400, seed=0)
    system = PipeFillSystem(main_model, parallel)
    report = system.run(jobs, horizon_seconds=horizon)

    # 5. The headline numbers.
    u = report.utilization
    print(f"\nAfter simulating {len(jobs)} fill jobs for {horizon / 3600:.0f} hours:")
    print(f"  main job TFLOP/s per GPU : {u.main_tflops_per_device:.1f}")
    print(f"  fill jobs TFLOP/s per GPU: {u.fill_tflops_per_device:.1f}")
    print(f"  total TFLOP/s per GPU    : {u.total_tflops_per_device:.1f} "
          f"(+{u.utilization_gain:.0%} over traditional PP)")
    print(f"  main-job slowdown        : {u.main_job_slowdown:.1%}")
    print(f"  GPUs' worth of extra work: {report.gpus_saved:.0f} "
          f"(out of {report.cluster_devices})")


if __name__ == "__main__":
    main()
