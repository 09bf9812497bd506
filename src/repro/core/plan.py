"""Fill Job Execution Plan Algorithm (Algorithm 1 of the paper).

Given the repeating cycle of pipeline bubbles on a device (durations ``B``
and free-memory capacities ``M``) and a fill job's linearised computational
graph ``F`` (per-node durations and memory requirements), the planner

1. replicates the graph as many times as fit in one cycle's total bubble
   time (each replica is one training/inference iteration of the fill job),
   and
2. greedily packs the resulting node sequence into consecutive bubbles,
   never exceeding a bubble's usable duration or free memory, wrapping
   around the cycle as needed.

The output is an :class:`ExecutionPlan`: the list of
:class:`GraphPartition` objects (one per bubble visit) the executor will
run, plus the derived throughput/packing metrics used by the executor and
the scheduler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.config import PipeFillConfig
from repro.models.base import ComputationalGraph, GraphNode
from repro.pipeline.bubbles import Bubble, BubbleCycle


class PlanError(ValueError):
    """Raised when a fill job cannot be planned onto a bubble cycle.

    Typical causes: a graph node needs more memory than any bubble offers,
    or a node's duration exceeds every bubble's usable duration.
    """


@dataclass(frozen=True)
class GraphPartition:
    """The chunk of the fill job's graph assigned to one bubble visit."""

    bubble_index: int
    cycle_index: int
    nodes: Tuple[GraphNode, ...]

    @property
    def duration(self) -> float:
        """Planned execution time of the partition (sum of node durations)."""
        return sum(node.duration for node in self.nodes)

    @property
    def memory_bytes(self) -> float:
        """Peak memory requirement of the partition."""
        return max((node.memory_bytes for node in self.nodes), default=0.0)

    @property
    def flops(self) -> float:
        """FLOPs executed by the partition."""
        return sum(node.flops for node in self.nodes)

    @property
    def is_empty(self) -> bool:
        """True when the bubble visit carries no work (skipped bubble)."""
        return not self.nodes


@dataclass(frozen=True)
class ExecutionPlan:
    """Result of Algorithm 1 for one fill-job iteration bundle.

    Attributes
    ----------
    partitions:
        Graph partitions in execution order; ``partitions[i]`` runs in
        bubble ``i mod len(bubbles)`` of cycle ``i // len(bubbles)``.
    bubbles:
        The fillable bubbles of the cycle the plan was built against.
    iterations:
        Number of fill-job iterations replicated into the plan (Algorithm 1
        lines 3-7).
    graph_duration:
        Exclusive-execution duration of a single fill-job iteration.
    cycle_period:
        The main job's iteration period (the cycle repeats with this period).
    """

    partitions: Tuple[GraphPartition, ...]
    bubbles: Tuple[Bubble, ...]
    iterations: int
    graph_duration: float
    cycle_period: float

    @property
    def num_cycles(self) -> int:
        """Number of bubble cycles (main-job iterations) the plan spans."""
        if not self.partitions:
            return 0
        return self.partitions[-1].cycle_index + 1

    @property
    def planned_work_seconds(self) -> float:
        """Total packed node time across the plan."""
        return sum(p.duration for p in self.partitions)

    @property
    def planned_flops(self) -> float:
        """Total FLOPs packed into the plan."""
        return sum(p.flops for p in self.partitions)

    @property
    def used_bubble_seconds(self) -> float:
        """Bubble time the plan occupies (non-empty bubble visits count fully used portions)."""
        return self.planned_work_seconds

    @property
    def wall_clock_seconds(self) -> float:
        """Wall-clock time from the first bubble to the last partition's bubble."""
        return self.num_cycles * self.cycle_period

    @property
    def packing_efficiency(self) -> float:
        """Fraction of the spanned cycles' fillable bubble time actually packed."""
        available = self.num_cycles * sum(b.duration for b in self.bubbles)
        if available <= 0:
            return 0.0
        return self.planned_work_seconds / available

    def partitions_in_cycle(self, cycle_index: int) -> List[GraphPartition]:
        """Partitions executed during one bubble cycle."""
        return [p for p in self.partitions if p.cycle_index == cycle_index]

    def nonempty_visits(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(bubble_index, duration)`` per non-empty partition, in order."""
        for partition in self.partitions:
            if not partition.is_empty:
                yield partition.bubble_index, partition.duration


def _replication_count(
    graph_duration: float, total_usable_bubble: float
) -> int:
    """Algorithm 1 lines 3-7: how many iterations to bundle into one plan.

    The graph is replicated while the total duration plus one more replica
    still fits under the cycle's total bubble time, i.e. the largest ``k``
    with ``k * dur(F) < sum(B)`` (and at least one replica).
    """
    if graph_duration <= 0:
        raise PlanError("fill-job graph has zero duration")
    # Jump straight below the fixpoint, then settle with the exact loop
    # condition: any start ``s >= 1`` with ``s * dur < sum(B)`` reaches the
    # same count as starting from 1, and the jump keeps this O(1) even when
    # thousands of replicas fit.
    count = max(1, int(total_usable_bubble / graph_duration) - 2)
    if count * graph_duration >= total_usable_bubble:
        count = 1
    while (count + 1) * graph_duration < total_usable_bubble:
        count += 1
    return count


def plan_fill_job(
    graph: ComputationalGraph,
    cycle: BubbleCycle,
    config: Optional[PipeFillConfig] = None,
    *,
    max_cycles: int = 10_000,
) -> ExecutionPlan:
    """Run Algorithm 1: pack ``graph`` onto the bubble cycle of a device.

    Parameters
    ----------
    graph:
        The fill job's linearised computational graph under a specific
        execution configuration (from :func:`repro.models.profiles.profile_model`).
    cycle:
        The device's repeating bubble cycle.
    config:
        PipeFill tunables (fill fraction, memory safety margin, ...).
    max_cycles:
        Safety bound on the number of bubble cycles a single plan may span.

    Raises
    ------
    PlanError
        If some node can never be placed (too large for every bubble's
        usable duration or memory), or the cycle has no fillable bubbles.
    """
    config = config or PipeFillConfig()
    bubbles = tuple(
        b
        for b in cycle.fillable_bubbles
        if config.usable_bubble_seconds(b.duration) > 0.0
    )
    if not bubbles:
        raise PlanError(
            f"bubble cycle of stage {cycle.stage_id} has no fillable bubbles "
            f"longer than {config.min_fill_bubble_seconds}s"
        )

    usable_durations = [config.usable_bubble_seconds(b.duration) for b in bubbles]
    usable_memory = [config.usable_bubble_memory(b.free_memory_bytes) for b in bubbles]
    total_usable = sum(usable_durations)

    # Feasibility: every node must fit in at least one bubble.
    for node in graph.nodes:
        fits = any(
            node.duration <= usable_durations[i] and node.memory_bytes <= usable_memory[i]
            for i in range(len(bubbles))
        )
        if not fits:
            raise PlanError(
                f"graph node {node.name!r} (duration {node.duration:.4f}s, "
                f"memory {node.memory_bytes:.3e} B) does not fit in any bubble of "
                f"stage {cycle.stage_id}'s cycle"
            )

    iterations = _replication_count(graph.total_duration, total_usable)
    replicated = ComputationalGraph.concatenate([graph] * iterations)

    partitions: List[GraphPartition] = []
    nodes = replicated.nodes
    num_nodes = len(nodes)
    next_node = 0  # index of the first not-yet-packed node
    bubble_idx = 0
    empty_streak = 0
    while next_node < num_nodes:
        cycle_index = bubble_idx // len(bubbles)
        if cycle_index >= max_cycles:
            raise PlanError(
                f"plan exceeded {max_cycles} bubble cycles; the fill job is too "
                "large for this bubble cycle"
            )
        i = bubble_idx % len(bubbles)
        capacity = usable_durations[i]
        mem_cap = usable_memory[i]
        start = next_node
        packed_duration = 0.0
        while (
            next_node < num_nodes
            and packed_duration + nodes[next_node].duration <= capacity
            and nodes[next_node].memory_bytes <= mem_cap
        ):
            packed_duration += nodes[next_node].duration
            next_node += 1
        partition = GraphPartition(
            bubble_index=i, cycle_index=cycle_index, nodes=nodes[start:next_node]
        )
        partitions.append(partition)
        if partition.is_empty:
            empty_streak += 1
            if empty_streak >= len(bubbles):
                # A full cycle went by without placing anything; the
                # feasibility pre-check should make this unreachable, but
                # guard against pathological inputs anyway.
                raise PlanError(
                    "no progress packing the fill job; a node does not fit any bubble"
                )
        else:
            empty_streak = 0
        bubble_idx += 1

    return ExecutionPlan(
        partitions=tuple(partitions),
        bubbles=bubbles,
        iterations=iterations,
        graph_duration=graph.total_duration,
        cycle_period=cycle.period,
    )


# -- the executor's packer -----------------------------------------------------
#
# plan_fill_job above is the reference implementation: it materializes the
# replicated graph (every node cloned and renamed per iteration) and packs it
# node by node.  Cloning hundreds of thousands of GraphNodes only to sum their
# durations would dominate a cold plan search, so pack_fill_job below runs the
# *same* Algorithm-1 loop over the base graph's node duration and memory
# tuples, without the replicated graph:
#
# * Replicated node ``k`` is base node ``k % n``: a visit reads the durations
#   from ``next_node % n`` on, wrapping around the graph (``itertools.cycle``).
# * Each visit takes one ``itertools.accumulate`` running sum and stops at the
#   first sum above the bubble's usable seconds (after cutting the visit before
#   the first node the bubble's memory cannot hold, if any).  The sums run left
#   to right from the visit's first node, so each is bit-for-bit the scalar
#   loop's ``packed_duration + nodes[j].duration`` (restarted at 0.0 per visit)
#   and the last one kept equals ``GraphPartition.duration``'s ``sum()``.
# * Nodes are never cloned: the result is a :class:`PackedPlan` that records
#   only per-visit (node count, packed duration) and materializes real
#   ``GraphPartition`` tuples -- with the exact ``iter{i}/{name}`` clone names
#   ``ComputationalGraph.concatenate`` would have produced -- on first access.
#
# The reference search (repro.verify.reference) keeps calling plan_fill_job,
# so the differential oracles and the golden-digest suite prove the two paths
# bit-identical end-to-end.


class PackedPlan:
    """An :class:`ExecutionPlan` computed without materializing its nodes.

    Duck-types the plan API consumed by the executor and the tests
    (``partitions``, ``bubbles``, ``num_cycles``, the derived metrics).  It
    keeps one node count and one packed duration per bubble visit, as lists;
    ``partitions`` builds the real :class:`GraphPartition` tuple lazily on
    first access, so estimate construction never pays for node clones it
    does not read.
    """

    __slots__ = (
        "bubbles",
        "iterations",
        "graph_duration",
        "cycle_period",
        "_graph",
        "_visit_counts",
        "_visit_durations",
        "_partitions",
    )

    def __init__(
        self,
        *,
        graph: ComputationalGraph,
        bubbles: Tuple[Bubble, ...],
        iterations: int,
        cycle_period: float,
        visit_counts: List[int],
        visit_durations: List[float],
    ) -> None:
        self.bubbles = bubbles
        self.iterations = iterations
        self.graph_duration = graph.total_duration
        self.cycle_period = cycle_period
        self._graph = graph
        self._visit_counts = visit_counts
        self._visit_durations = visit_durations
        self._partitions: Optional[Tuple[GraphPartition, ...]] = None

    # -- lazy materialization --------------------------------------------------

    @property
    def partitions(self) -> Tuple[GraphPartition, ...]:
        """The real partition tuple (built on first access)."""
        if self._partitions is None:
            base = self._graph.nodes
            n = len(base)
            num_bubbles = len(self.bubbles)
            parts: List[GraphPartition] = []
            node_idx = 0
            for k, count in enumerate(self._visit_counts):
                nodes = []
                for _ in range(count):
                    iteration, j = divmod(node_idx, n)
                    node = base[j]
                    nodes.append(node.renamed(f"iter{iteration}/{node.name}"))
                    node_idx += 1
                parts.append(
                    GraphPartition(
                        bubble_index=k % num_bubbles,
                        cycle_index=k // num_bubbles,
                        nodes=tuple(nodes),
                    )
                )
            self._partitions = tuple(parts)
        return self._partitions

    def nonempty_visits(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(bubble_index, packed_duration)`` per non-empty visit.

        The packed duration is bit-identical to the corresponding
        ``GraphPartition.duration`` (same left-to-right float additions),
        which is what lets the executor consume the plan without
        materializing it.
        """
        num_bubbles = len(self.bubbles)
        visits = zip(self._visit_counts, self._visit_durations)
        for k, (count, duration) in enumerate(visits):
            if count:
                yield k % num_bubbles, duration

    # -- the ExecutionPlan metric API -------------------------------------------

    @property
    def num_cycles(self) -> int:
        if not self._visit_counts:
            return 0
        return (len(self._visit_counts) - 1) // len(self.bubbles) + 1

    @property
    def planned_work_seconds(self) -> float:
        # The sequential sum reproduces ExecutionPlan.planned_work_seconds'
        # addition order exactly.
        return sum(self._visit_durations)

    @property
    def planned_flops(self) -> float:
        return sum(p.flops for p in self.partitions)

    @property
    def used_bubble_seconds(self) -> float:
        return self.planned_work_seconds

    @property
    def wall_clock_seconds(self) -> float:
        return self.num_cycles * self.cycle_period

    @property
    def packing_efficiency(self) -> float:
        available = self.num_cycles * sum(b.duration for b in self.bubbles)
        if available <= 0:
            return 0.0
        return self.planned_work_seconds / available

    def partitions_in_cycle(self, cycle_index: int) -> List[GraphPartition]:
        return [p for p in self.partitions if p.cycle_index == cycle_index]


def pack_fill_job(
    graph: ComputationalGraph,
    cycle: BubbleCycle,
    config: Optional[PipeFillConfig] = None,
    *,
    max_cycles: int = 10_000,
) -> PackedPlan:
    """:func:`plan_fill_job` over the graph's node tuples: same plan, nodes
    materialized lazily.

    Raises exactly the :class:`PlanError`\\ s the scalar path raises, with
    the same messages, so the two are interchangeable to callers.
    """
    config = config or PipeFillConfig()
    bubbles: List[Bubble] = []
    capacities: List[Tuple[float, float]] = []  # (usable seconds, usable bytes)
    for bubble in cycle.bubbles:
        if bubble.fillable:
            seconds = config.usable_bubble_seconds(bubble.duration)
            if seconds > 0.0:
                bubbles.append(bubble)
                capacities.append(
                    (seconds, config.usable_bubble_memory(bubble.free_memory_bytes))
                )
    if not bubbles:
        raise PlanError(
            f"bubble cycle of stage {cycle.stage_id} has no fillable bubbles "
            f"longer than {config.min_fill_bubble_seconds}s"
        )

    durations = graph.node_durations
    memories = graph.node_memory_bytes
    peak_memory = graph.peak_memory_bytes
    # Feasibility: every node must fit in at least one bubble.  A bubble that
    # holds the longest node and the largest one holds them all; only without
    # one is each node checked, and the first that fits nowhere is reported,
    # like the scalar pre-check.
    longest = max(durations)
    if not any(longest <= s and peak_memory <= m for s, m in capacities):
        for node in graph.nodes:
            if not any(
                node.duration <= s and node.memory_bytes <= m for s, m in capacities
            ):
                raise PlanError(
                    f"graph node {node.name!r} (duration {node.duration:.4f}s, "
                    f"memory {node.memory_bytes:.3e} B) does not fit in any bubble of "
                    f"stage {cycle.stage_id}'s cycle"
                )

    iterations = _replication_count(
        graph.total_duration, sum(s for s, _ in capacities)
    )
    n = len(durations)
    num_nodes = n * iterations
    num_bubbles = len(capacities)
    visit_counts: List[int] = []
    visit_durations: List[float] = []
    next_node = 0  # index of the first not-yet-packed replicated node
    bubble_idx = 0
    empty_streak = 0
    while next_node < num_nodes:
        if bubble_idx // num_bubbles >= max_cycles:
            raise PlanError(
                f"plan exceeded {max_cycles} bubble cycles; the fill job is too "
                "large for this bubble cycle"
            )
        capacity, mem_cap = capacities[bubble_idx % num_bubbles]
        j = next_node % n
        limit = num_nodes - next_node
        if peak_memory > mem_cap:
            # The visit ends before the first node this bubble's memory cannot
            # hold; one exists, so the walk stops within n nodes.
            fitting = 0
            while memories[(j + fitting) % n] <= mem_cap:
                fitting += 1
            limit = min(limit, fitting)
        count = 0
        packed = 0.0
        sums = itertools.accumulate(
            itertools.islice(itertools.cycle(durations), j, j + limit)
        )
        for total in sums:
            if total > capacity:
                break
            count += 1
            packed = total
        visit_counts.append(count)
        visit_durations.append(packed)
        next_node += count
        if count:
            empty_streak = 0
        else:
            empty_streak += 1
            if empty_streak >= num_bubbles:
                raise PlanError(
                    "no progress packing the fill job; a node does not fit any bubble"
                )
        bubble_idx += 1
    return PackedPlan(
        graph=graph,
        bubbles=tuple(bubbles),
        iterations=iterations,
        cycle_period=cycle.period,
        visit_counts=visit_counts,
        visit_durations=visit_durations,
    )
