"""Instrumented pipeline engine.

The engine replays the per-stage instruction streams of a pipeline schedule
against the analytical stage cost model, resolving cross-stage
send/receive dependencies, and records every idle window on every stage.
Idle windows that follow a :class:`~repro.pipeline.instructions.PipelineBubble`
instruction are attributed to that bubble (fill-drain or fwd-bwd); all other
waits are the small non-contiguous gaps that PipeFill does not fill.

This is the "physical" fidelity level of the reproduction: the large-scale
experiments seed the event-driven simulator with bubble cycles produced
here, mirroring how the paper seeds its simulator with profiles collected
from the real DeepSpeed engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pipeline.bubbles import Bubble, BubbleCycle
from repro.pipeline.costs import MainJobCosts, StageCostModel
from repro.pipeline.instructions import (
    BubbleKind,
    Instruction,
    InstructionKind,
    PipelineBubble,
)
from repro.pipeline.schedules import PipelineSchedule, build_schedule

#: Idle windows shorter than this are measurement noise, not bubbles.
_IDLE_EPSILON = 1e-9


@dataclass(frozen=True)
class IdleWindow:
    """One recorded idle period on a stage."""

    iteration: int
    kind: BubbleKind
    start: float
    duration: float


@dataclass
class StageTimeline:
    """Execution record of one stage across the simulated iterations."""

    stage_id: int
    iteration_starts: List[float] = field(default_factory=list)
    idle_windows: List[IdleWindow] = field(default_factory=list)

    def idle_in_iteration(self, iteration: int) -> List[IdleWindow]:
        """Idle windows recorded during ``iteration``."""
        return [w for w in self.idle_windows if w.iteration == iteration]


class InstrumentedPipelineEngine:
    """Replays a pipeline schedule and characterises its bubbles.

    Parameters
    ----------
    costs:
        Resolved main-job cost model (stages, comm times, memory).
    schedule:
        ``"gpipe"`` or ``"1f1b"`` (or an already-built schedule object).
    num_iterations:
        Iterations to replay; bubbles are extracted from the second-to-last
        (steady-state) iteration.
    """

    def __init__(
        self,
        costs: MainJobCosts,
        schedule: str | PipelineSchedule = "gpipe",
        *,
        num_iterations: int = 4,
    ) -> None:
        if num_iterations < 3:
            raise ValueError("need at least 3 iterations to reach steady state")
        self.costs = costs
        if isinstance(schedule, str):
            schedule = build_schedule(
                schedule,
                costs.parallel.pipeline_stages,
                costs.parallel.num_microbatches,
            )
        if schedule.num_stages != costs.parallel.pipeline_stages:
            raise ValueError("schedule stage count does not match the parallel config")
        self.schedule = schedule
        self.num_iterations = num_iterations

    # -- instruction timing ---------------------------------------------------

    def _instruction_duration(self, instr: Instruction, stage_costs: StageCostModel) -> float:
        kind = instr.kind
        if kind is InstructionKind.FORWARD:
            return stage_costs.t_forward
        if kind is InstructionKind.BACKWARD:
            return stage_costs.t_backward
        if kind in (InstructionKind.SEND_ACTIVATION, InstructionKind.SEND_GRAD):
            return stage_costs.t_send_activation
        if kind in (InstructionKind.RECV_ACTIVATION, InstructionKind.RECV_GRAD):
            return 0.0
        if kind is InstructionKind.REDUCE_GRADS:
            return stage_costs.t_grad_reduce
        if kind is InstructionKind.OPTIMIZER_STEP:
            return stage_costs.t_optimizer_step
        if kind is InstructionKind.BUBBLE:
            return 0.0
        raise ValueError(f"unknown instruction kind {kind!r}")  # pragma: no cover

    # -- replay ---------------------------------------------------------------

    def run(self) -> List[StageTimeline]:
        """Replay the schedule and return every stage's timeline.

        A bubble instruction takes no time: it only marks the idle window
        that follows it as that bubble's.  :meth:`bubble_cycles` turns the
        steady-state windows into the cycles the executors fill.
        """
        p = self.schedule.num_stages
        stage_instrs: List[List[Tuple[int, Instruction]]] = []
        for s in range(p):
            per_iter = self.schedule.stage_instructions(s)
            stage_instrs.append(
                [(it, instr) for it in range(self.num_iterations) for instr in per_iter]
            )

        timelines = [StageTimeline(stage_id=s) for s in range(p)]
        clocks = [0.0] * p
        pcs = [0] * p
        pending_bubble: List[Optional[BubbleKind]] = [None] * p
        current_iter = [-1] * p
        send_act_done: Dict[Tuple[int, int, int], float] = {}
        send_grad_done: Dict[Tuple[int, int, int], float] = {}

        def dependency_time(stage: int, iteration: int, instr: Instruction) -> Optional[float]:
            """Completion time of the event this instruction waits on.

            Returns ``None`` when the event has not happened yet (the
            instruction is not ready to execute).
            """
            kind = instr.kind
            if kind is InstructionKind.RECV_ACTIVATION:
                return send_act_done.get((iteration, getattr(instr, "microbatch"), stage - 1))
            if kind is InstructionKind.RECV_GRAD:
                return send_grad_done.get((iteration, getattr(instr, "microbatch"), stage + 1))
            return clocks[stage]

        total = sum(len(instrs) for instrs in stage_instrs)
        executed = 0
        while executed < total:
            progressed = False
            for s in range(p):
                stage_costs = self.costs.stages[s]
                while pcs[s] < len(stage_instrs[s]):
                    iteration, instr = stage_instrs[s][pcs[s]]
                    dep = dependency_time(s, iteration, instr)
                    if dep is None:
                        break
                    timeline = timelines[s]
                    if iteration != current_iter[s]:
                        # First instruction of a new iteration on this stage.
                        while len(timeline.iteration_starts) <= iteration:
                            timeline.iteration_starts.append(clocks[s])
                        current_iter[s] = iteration
                    start = max(clocks[s], dep)
                    idle = start - clocks[s]
                    if idle > _IDLE_EPSILON:
                        kind = pending_bubble[s] or BubbleKind.NON_CONTIGUOUS
                        timeline.idle_windows.append(
                            IdleWindow(iteration=iteration, kind=kind, start=clocks[s], duration=idle)
                        )
                    duration = self._instruction_duration(instr, stage_costs)
                    end = start + duration
                    clocks[s] = end

                    if instr.kind is InstructionKind.SEND_ACTIVATION:
                        send_act_done[(iteration, getattr(instr, "microbatch"), s)] = end
                    elif instr.kind is InstructionKind.SEND_GRAD:
                        send_grad_done[(iteration, getattr(instr, "microbatch"), s)] = end

                    if instr.kind is InstructionKind.BUBBLE:
                        assert isinstance(instr, PipelineBubble)
                        pending_bubble[s] = instr.bubble_kind
                    else:
                        pending_bubble[s] = None

                    pcs[s] += 1
                    executed += 1
                    progressed = True
            if not progressed:
                raise RuntimeError(
                    "pipeline replay deadlocked; the schedule's send/recv pairs are inconsistent"
                )
        return timelines

    # -- analysis -------------------------------------------------------------

    @property
    def steady_iteration(self) -> int:
        """Index of the iteration used for steady-state measurements."""
        return self.num_iterations - 2

    def _steady_period(self, timelines: Sequence[StageTimeline]) -> float:
        it = self.steady_iteration
        periods = [
            t.iteration_starts[it + 1] - t.iteration_starts[it]
            for t in timelines
            if len(t.iteration_starts) > it + 1
        ]
        return max(periods)

    def bubble_cycle(self, stage_id: int, timelines: Optional[Sequence[StageTimeline]] = None) -> BubbleCycle:
        """Extract the steady-state bubble cycle of ``stage_id``.

        The cycle contains one :class:`Bubble` per idle window of the
        steady-state iteration, annotated with the free memory the cost
        model predicts for the stage's devices during bubbles.
        """
        if timelines is None:
            timelines = self.run()
        timeline = timelines[stage_id]
        it = self.steady_iteration
        period = self._steady_period(timelines)
        free_mem = self.costs.stages[stage_id].bubble_free_memory_bytes
        iteration_start = timeline.iteration_starts[it]
        bubbles = []
        for index, window in enumerate(timeline.idle_in_iteration(it)):
            bubbles.append(
                Bubble(
                    kind=window.kind,
                    stage_id=stage_id,
                    index=index,
                    duration=window.duration,
                    free_memory_bytes=free_mem,
                    start_offset=max(0.0, window.start - iteration_start),
                )
            )
        return BubbleCycle(stage_id=stage_id, bubbles=tuple(bubbles), period=period)

    def bubble_cycles(self) -> List[BubbleCycle]:
        """Bubble cycles of every stage, from a single replay."""
        timelines = self.run()
        return [self.bubble_cycle(s, timelines) for s in range(self.schedule.num_stages)]
