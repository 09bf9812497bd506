"""Core model abstractions: layers, models and computational graphs.

A :class:`ModelSpec` is an ordered list of :class:`LayerSpec` objects, each
describing one coarse-grained unit of the network (a transformer block, a
convolution stage, an embedding, ...).  Layer specs carry *per-sample*
forward FLOPs and activation bytes at the model's reference input size;
everything batch- or configuration-dependent is computed downstream in
:mod:`repro.models.profiles`.

The fill-job executor operates on a *computational graph*: a linearised
sequence of :class:`GraphNode` objects with sequential dependencies (the
paper's Algorithm 1 linearises the graph the same way).  A training job's
graph contains forward nodes followed by backward nodes in reverse layer
order plus an optimizer-step node; an inference job's graph contains only
forward nodes.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, List, Optional, Sequence

from repro.utils.validation import check_non_negative, check_positive


class LayerKind(str, enum.Enum):
    """Coarse operator class of a layer.

    The efficiency model assigns each kind a base fraction-of-peak
    throughput (matmul-dominated kinds run near the device's achievable
    MFU, memory-bound kinds far below it).
    """

    EMBEDDING = "embedding"
    ATTENTION = "attention"
    WINDOW_ATTENTION = "window_attention"
    MLP = "mlp"
    TRANSFORMER_BLOCK = "transformer_block"
    CONV = "conv"
    NORM = "norm"
    POOL = "pool"
    CLASSIFIER = "classifier"
    LM_HEAD = "lm_head"
    OPTIMIZER = "optimizer"


@dataclass(frozen=True)
class LayerSpec:
    """One coarse-grained layer of a model.

    Parameters
    ----------
    name:
        Unique layer name within the model (``"block_17"``).
    kind:
        Operator class, drives the efficiency model.
    param_count:
        Number of learnable parameters in this layer.
    fwd_flops_per_sample:
        Forward-pass FLOPs for one sample at the model's reference input
        size (sequence length or image resolution).
    activation_bytes_per_sample:
        Bytes of activations this layer must keep live *per sample* for the
        backward pass (the stored-activation footprint, not transient
        workspace).
    output_bytes_per_sample:
        Bytes of the layer's output tensor per sample (what must stay
        resident even during inference to feed the next layer).
    kernel_efficiency:
        Multiplier in ``(0, 1]`` on the kind's base efficiency; models
        poorly-optimised operators (e.g. the paper notes Swin's shifted
        window attention is not well optimised in their stack).
    """

    name: str
    kind: LayerKind
    param_count: float
    fwd_flops_per_sample: float
    activation_bytes_per_sample: float
    output_bytes_per_sample: float
    kernel_efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.param_count, "param_count")
        check_non_negative(self.fwd_flops_per_sample, "fwd_flops_per_sample")
        check_non_negative(self.activation_bytes_per_sample, "activation_bytes_per_sample")
        check_non_negative(self.output_bytes_per_sample, "output_bytes_per_sample")
        if not 0.0 < self.kernel_efficiency <= 1.0:
            raise ValueError(
                f"kernel_efficiency must be in (0, 1], got {self.kernel_efficiency}"
            )

    @property
    def bwd_flops_per_sample(self) -> float:
        """Backward-pass FLOPs: the standard 2x forward estimate."""
        return 2.0 * self.fwd_flops_per_sample

    def scaled(self, *, flops_scale: float = 1.0, param_scale: float = 1.0) -> "LayerSpec":
        """Return a copy with scaled FLOPs / parameters (for model sweeps)."""
        return replace(
            self,
            param_count=self.param_count * param_scale,
            fwd_flops_per_sample=self.fwd_flops_per_sample * flops_scale,
            activation_bytes_per_sample=self.activation_bytes_per_sample * flops_scale,
            output_bytes_per_sample=self.output_bytes_per_sample * flops_scale,
        )


@dataclass(frozen=True)
class ModelSpec:
    """An ordered collection of layers plus model-wide metadata.

    Parameters
    ----------
    name:
        Model identifier used by the registry (``"bert-base"``).
    layers:
        Layers in forward execution order.
    dtype_bytes:
        Bytes per parameter / activation element (2 for fp16).
    family:
        Free-form architecture family tag (``"transformer"``, ``"cnn"``).
    reference_seq_len:
        Sequence length (transformers) used when the per-sample numbers in
        the layers were computed; informational.
    reference_image_size:
        Image resolution (CNNs / ViTs) used for the per-sample numbers.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    dtype_bytes: int = 2
    family: str = "transformer"
    reference_seq_len: Optional[int] = None
    reference_image_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a model must have at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"layer names must be unique in model {self.name!r}")
        check_positive(self.dtype_bytes, "dtype_bytes")

    # -- aggregate quantities ----------------------------------------------

    @property
    def param_count(self) -> float:
        """Total learnable parameters."""
        return sum(layer.param_count for layer in self.layers)

    @property
    def param_bytes(self) -> float:
        """Bytes of the (fp16) parameter tensor set."""
        return self.param_count * self.dtype_bytes

    @property
    def fwd_flops_per_sample(self) -> float:
        """Total forward FLOPs for one sample."""
        return sum(layer.fwd_flops_per_sample for layer in self.layers)

    @property
    def bwd_flops_per_sample(self) -> float:
        """Total backward FLOPs for one sample."""
        return sum(layer.bwd_flops_per_sample for layer in self.layers)

    @property
    def train_flops_per_sample(self) -> float:
        """Forward + backward FLOPs for one sample."""
        return self.fwd_flops_per_sample + self.bwd_flops_per_sample

    @property
    def activation_bytes_per_sample(self) -> float:
        """Total stored-activation bytes per sample (no checkpointing)."""
        return sum(layer.activation_bytes_per_sample for layer in self.layers)

    @property
    def num_layers(self) -> int:
        """Number of coarse layers."""
        return len(self.layers)

    def layer(self, name: str) -> LayerSpec:
        """Return the layer with the given name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in model {self.name!r}")

    def sublayers(self, start: int, stop: int) -> "ModelSpec":
        """Return a model containing layers ``[start, stop)`` (for pipeline stages)."""
        if not 0 <= start < stop <= len(self.layers):
            raise ValueError(
                f"invalid layer range [{start}, {stop}) for model with {len(self.layers)} layers"
            )
        return replace(
            self,
            name=f"{self.name}[{start}:{stop}]",
            layers=self.layers[start:stop],
        )


class NodeRole(str, enum.Enum):
    """Role of a node inside a fill job's linearised computational graph."""

    FORWARD = "forward"
    BACKWARD = "backward"
    OPTIMIZER_STEP = "optimizer_step"


@dataclass(frozen=True)
class GraphNode:
    """One schedulable unit of a fill job's computational graph.

    ``duration`` and ``memory_bytes`` are fully resolved for a specific
    execution configuration and device (they come out of
    :func:`repro.models.profiles.profile_model`), so Algorithm 1 only needs
    to compare them against bubble durations and free-memory capacities.
    """

    name: str
    role: NodeRole
    duration: float
    memory_bytes: float
    flops: float
    layer_name: Optional[str] = None

    def __post_init__(self) -> None:
        check_non_negative(self.duration, "duration")
        check_non_negative(self.memory_bytes, "memory_bytes")
        check_non_negative(self.flops, "flops")

    def renamed(self, name: str) -> "GraphNode":
        """A copy of this (already-validated) node under a new name.

        Graph replication in Algorithm 1 clones every node once per bundled
        iteration; going through ``dataclasses.replace`` re-runs field
        resolution and ``__post_init__`` validation on values that cannot
        have changed, which made plan construction the simulator's single
        hottest call site.  Constructing the copy directly is ~6x cheaper
        and produces a field-for-field identical node (the field list is
        taken from the dataclass itself, so new fields are never dropped).
        """
        clone = object.__new__(GraphNode)
        set_attr = object.__setattr__
        for field_name in _GRAPH_NODE_FIELDS:
            set_attr(clone, field_name, getattr(self, field_name))
        set_attr(clone, "name", name)
        return clone


#: Field names of :class:`GraphNode`, resolved once for the fast clone path.
_GRAPH_NODE_FIELDS = tuple(f.name for f in fields(GraphNode))


@dataclass(frozen=True)
class ComputationalGraph:
    """A linearised computational graph with sequential dependencies."""

    model_name: str
    nodes: tuple[GraphNode, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a computational graph must have at least one node")

    # The totals are read on every estimate, plan and throughput comparison,
    # and the node tuples on every plan, so each is built once per graph
    # (sums left to right) and kept in the instance dict.  They are not
    # dataclass fields: equality, hashing and repr see only ``model_name``
    # and ``nodes``.

    @functools.cached_property
    def node_durations(self) -> tuple[float, ...]:
        """Every node's duration, in graph order."""
        return tuple(node.duration for node in self.nodes)

    @functools.cached_property
    def node_memory_bytes(self) -> tuple[float, ...]:
        """Every node's memory requirement, in graph order."""
        return tuple(node.memory_bytes for node in self.nodes)

    @functools.cached_property
    def total_duration(self) -> float:
        """Sum of node durations (one iteration's exclusive execution time)."""
        return sum(node.duration for node in self.nodes)

    @functools.cached_property
    def total_flops(self) -> float:
        """Sum of node FLOPs for one iteration."""
        return sum(node.flops for node in self.nodes)

    @property
    def peak_memory_bytes(self) -> float:
        """Largest single-node memory requirement."""
        return max(self.node_memory_bytes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @staticmethod
    def concatenate(graphs: Sequence["ComputationalGraph"]) -> "ComputationalGraph":
        """Concatenate several iterations of the same graph (Algorithm 1, lines 3-7)."""
        if not graphs:
            raise ValueError("need at least one graph to concatenate")
        model_name = graphs[0].model_name
        nodes: List[GraphNode] = []
        for i, graph in enumerate(graphs):
            if graph.model_name != model_name:
                raise ValueError("all graphs must come from the same model")
            for node in graph.nodes:
                nodes.append(node.renamed(f"iter{i}/{node.name}"))
        return ComputationalGraph(model_name=model_name, nodes=tuple(nodes))
