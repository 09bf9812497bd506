"""Pipeline instruction IR.

Existing pipeline engines (DeepSpeed's ``PipelineEngine``, Megatron's
schedules) execute a per-stage sequence of instructions: forward/backward
compute on specific microbatches, activation/gradient sends and receives,
gradient reduction and the optimizer step.  PipeFill adds one more
instruction -- :class:`PipelineBubble` -- marking where a large bubble is
expected, which the instrumented engine uses to profile bubble durations and
to signal the fill-job executor.

Instructions are plain frozen dataclasses; the engine resolves their
durations through the stage cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class InstructionKind(str, enum.Enum):
    """Discriminator for pipeline instructions."""

    FORWARD = "forward"
    BACKWARD = "backward"
    SEND_ACTIVATION = "send_activation"
    RECV_ACTIVATION = "recv_activation"
    SEND_GRAD = "send_grad"
    RECV_GRAD = "recv_grad"
    REDUCE_GRADS = "reduce_grads"
    OPTIMIZER_STEP = "optimizer_step"
    BUBBLE = "bubble"


class BubbleKind(str, enum.Enum):
    """Which of the schedule's bubbles a bubble instruction marks.

    The paper distinguishes the *fill-drain* bubble (between the drain of
    one minibatch and the fill of the next) from the *fwd-bwd* bubble
    (between pipeline saturation of the forward pass and the arrival of the
    first backward), plus 1F1B's small non-contiguous bubbles which PipeFill
    deliberately does not fill.
    """

    FILL_DRAIN = "fill_drain"
    FWD_BWD = "fwd_bwd"
    NON_CONTIGUOUS = "non_contiguous"


@dataclass(frozen=True)
class Instruction:
    """Base class for all pipeline instructions."""

    kind: InstructionKind


@dataclass(frozen=True)
class ForwardPass(Instruction):
    """Run the stage's forward computation for one microbatch."""

    microbatch: int = 0
    kind: InstructionKind = InstructionKind.FORWARD


@dataclass(frozen=True)
class BackwardPass(Instruction):
    """Run the stage's backward computation for one microbatch."""

    microbatch: int = 0
    kind: InstructionKind = InstructionKind.BACKWARD


@dataclass(frozen=True)
class SendActivation(Instruction):
    """Send a microbatch's output activations to the next stage."""

    microbatch: int = 0
    kind: InstructionKind = InstructionKind.SEND_ACTIVATION


@dataclass(frozen=True)
class RecvActivation(Instruction):
    """Receive a microbatch's input activations from the previous stage."""

    microbatch: int = 0
    kind: InstructionKind = InstructionKind.RECV_ACTIVATION


@dataclass(frozen=True)
class SendGrad(Instruction):
    """Send a microbatch's input gradients to the previous stage."""

    microbatch: int = 0
    kind: InstructionKind = InstructionKind.SEND_GRAD


@dataclass(frozen=True)
class RecvGrad(Instruction):
    """Receive a microbatch's output gradients from the next stage."""

    microbatch: int = 0
    kind: InstructionKind = InstructionKind.RECV_GRAD


@dataclass(frozen=True)
class ReduceGrads(Instruction):
    """Data-parallel all-reduce of the stage's gradients."""

    kind: InstructionKind = InstructionKind.REDUCE_GRADS


@dataclass(frozen=True)
class OptimizerStep(Instruction):
    """Apply the optimizer update for the stage's parameters."""

    kind: InstructionKind = InstructionKind.OPTIMIZER_STEP


@dataclass(frozen=True)
class PipelineBubble(Instruction):
    """PipeFill's pipeline-bubble instruction.

    Marks a point in the schedule where the stage is expected to idle.  The
    instrumented engine's replay attributes the idle window that follows
    it to this bubble, and the fill-job executor fills that window.
    """

    bubble_kind: BubbleKind = BubbleKind.FWD_BWD
    index: int = 0
    expected_duration: Optional[float] = None
    kind: InstructionKind = InstructionKind.BUBBLE
