"""Pipeline-parallel training substrate.

Implements the parts of Megatron/DeepSpeed-style 3D-parallel training that
PipeFill builds on: parallelism configuration and bubble-fraction math,
layer-to-stage partitioning, per-stage analytical cost models, GPipe and
1F1B schedule generation as explicit instruction streams (including the
*pipeline bubble instruction* PipeFill adds), and an instrumented pipeline
engine that replays a stage's instruction stream to produce its timeline,
memory occupancy and bubble windows.
"""

from repro.pipeline.parallelism import (
    ParallelConfig,
    bubble_fraction,
    microbatches_for_cluster,
)
from repro.pipeline.partition import partition_layers, StagePartition
from repro.pipeline.costs import StageCostModel, MainJobCosts, main_job_costs
from repro.pipeline.instructions import (
    Instruction,
    InstructionKind,
    ForwardPass,
    BackwardPass,
    SendActivation,
    RecvActivation,
    SendGrad,
    RecvGrad,
    ReduceGrads,
    OptimizerStep,
    PipelineBubble,
    BubbleKind,
)
from repro.pipeline.bubbles import Bubble, BubbleCycle
from repro.pipeline.schedules import (
    PipelineSchedule,
    GPipeSchedule,
    OneFOneBSchedule,
    build_schedule,
    SCHEDULES,
)
from repro.pipeline.engine import InstrumentedPipelineEngine, StageTimeline

__all__ = [
    "ParallelConfig",
    "bubble_fraction",
    "microbatches_for_cluster",
    "partition_layers",
    "StagePartition",
    "StageCostModel",
    "MainJobCosts",
    "main_job_costs",
    "Instruction",
    "InstructionKind",
    "ForwardPass",
    "BackwardPass",
    "SendActivation",
    "RecvActivation",
    "SendGrad",
    "RecvGrad",
    "ReduceGrads",
    "OptimizerStep",
    "PipelineBubble",
    "BubbleKind",
    "Bubble",
    "BubbleCycle",
    "PipelineSchedule",
    "GPipeSchedule",
    "OneFOneBSchedule",
    "build_schedule",
    "SCHEDULES",
    "InstrumentedPipelineEngine",
    "StageTimeline",
]
