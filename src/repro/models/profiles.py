"""Profile generation: resolve a model + configuration into a computational graph.

A *profile* is what the real PipeFill collects with the PyTorch profiler and
ships to the Fill Job Executor: for every node of the job's computational
graph, its execution time and memory requirement under a specific
configuration (batch size, offloading, checkpointing).  Here the profile is
produced analytically from the layer specs, the execution configuration and
the device spec.

The resulting :class:`ModelProfile` carries a linearised
:class:`~repro.models.base.ComputationalGraph` (forward nodes, then backward
nodes in reverse order, then an optimizer step for training jobs) that
Algorithm 1 packs into pipeline bubbles.  Profiles are pure, so readers
take them from one process-wide memo (:func:`cached_profile`); only the
brute-force :func:`repro.verify.reference.reference_estimate` calls
:func:`profile_model` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.device import DeviceSpec, V100_16GB
from repro.models.base import (
    ComputationalGraph,
    GraphNode,
    LayerKind,
    LayerSpec,
    ModelSpec,
    NodeRole,
)
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel
from repro.models.memory import (
    ADAM_OPTIMIZER_BYTES_PER_PARAM,
    GRAD_BYTES_PER_PARAM,
    footprint,
    layer_state_bytes,
)
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class NodeProfile:
    """Per-node profile entry (kept for introspection / reporting)."""

    node: GraphNode
    layer: Optional[LayerSpec]
    efficiency: float


@dataclass(frozen=True)
class ModelProfile:
    """A fill job's computational graph resolved for one configuration.

    Attributes
    ----------
    model:
        The profiled model spec.
    job_type:
        Training or batch inference.
    config:
        The execution configuration the profile was generated for.
    device:
        The device spec used for timing.
    graph:
        Linearised computational graph with resolved durations/memory.
    device_footprint_bytes:
        Device-resident bytes the job holds while executing (model states
        under the configuration plus the iteration's activation working set).
    host_footprint_bytes:
        Host bytes consumed by offloaded state.
    """

    model: ModelSpec
    job_type: JobType
    config: ExecutionConfig
    device: DeviceSpec
    graph: ComputationalGraph
    device_footprint_bytes: float
    host_footprint_bytes: float

    @property
    def iteration_time(self) -> float:
        """Exclusive-execution time of one iteration (all graph nodes)."""
        return self.graph.total_duration

    @property
    def iteration_flops(self) -> float:
        """FLOPs of one iteration."""
        return self.graph.total_flops

    @property
    def samples_per_iteration(self) -> int:
        """Samples processed per iteration (the configured batch size)."""
        return self.config.batch_size

    @property
    def throughput_samples_per_s(self) -> float:
        """Exclusive-execution throughput in samples/s."""
        return self.config.batch_size / self.iteration_time

    @property
    def effective_tflops(self) -> float:
        """Sustained TFLOP/s during exclusive execution."""
        return self.iteration_flops / self.iteration_time / 1e12

    def fits_memory(self, memory_bytes: float) -> bool:
        """True if the device-resident footprint fits in ``memory_bytes``."""
        return self.device_footprint_bytes <= memory_bytes


def _layer_efficiency(
    layer: LayerSpec, batch_size: int, efficiency_model: EfficiencyModel
) -> float:
    return max(efficiency_model.layer_efficiency(layer, batch_size), 1e-4)


def _forward_duration(
    layer: LayerSpec,
    batch_size: int,
    device: DeviceSpec,
    config: ExecutionConfig,
    efficiency_model: EfficiencyModel,
) -> float:
    eff = _layer_efficiency(layer, batch_size, efficiency_model)
    compute = batch_size * layer.fwd_flops_per_sample / (device.peak_flops * eff)
    compute += device.kernel_launch_overhead
    transfer = 0.0
    if config.offload_params:
        # The layer's fp16 parameters must be streamed in from host memory;
        # prefetching overlaps the transfer with the previous layer, so the
        # layer pays the maximum of compute and transfer.
        transfer = max(
            transfer,
            layer.param_count * 2.0 / device.host_link_bandwidth + device.host_link_latency,
        )
    if config.offload_activations:
        transfer = max(
            transfer,
            batch_size
            * layer.activation_bytes_per_sample
            / device.host_link_bandwidth,
        )
    return max(compute, transfer)


def _backward_duration(
    layer: LayerSpec,
    batch_size: int,
    device: DeviceSpec,
    config: ExecutionConfig,
    efficiency_model: EfficiencyModel,
) -> float:
    eff = _layer_efficiency(layer, batch_size, efficiency_model)
    flops = batch_size * layer.bwd_flops_per_sample
    if config.activation_checkpointing:
        # Recomputation adds one forward pass to the backward.
        flops += batch_size * layer.fwd_flops_per_sample
    compute = flops / (device.peak_flops * eff) + device.kernel_launch_overhead
    transfer = 0.0
    if config.offload_params:
        transfer = max(
            transfer,
            layer.param_count * 2.0 / device.host_link_bandwidth + device.host_link_latency,
        )
    if config.offload_optimizer:
        # Gradients stream to the host as they are produced.
        transfer = max(
            transfer,
            layer.param_count * GRAD_BYTES_PER_PARAM / device.host_link_bandwidth,
        )
    if config.offload_activations:
        transfer = max(
            transfer,
            batch_size
            * layer.activation_bytes_per_sample
            / device.host_link_bandwidth,
        )
    return max(compute, transfer)


def _backward_flops(layer: LayerSpec, batch_size: int, config: ExecutionConfig) -> float:
    flops = batch_size * layer.bwd_flops_per_sample
    if config.activation_checkpointing:
        flops += batch_size * layer.fwd_flops_per_sample
    return flops


def _optimizer_step(
    model: ModelSpec,
    device: DeviceSpec,
    config: ExecutionConfig,
    efficiency_model: EfficiencyModel,
) -> GraphNode:
    # Adam applies a handful of elementwise ops per parameter.
    flops = 10.0 * model.param_count
    if config.offload_optimizer:
        # ZeRO-Offload runs the optimizer on the host: the step is bounded by
        # moving fp16 gradients down and updated fp16 parameters back up.
        traffic = model.param_count * (GRAD_BYTES_PER_PARAM + 2.0)
        duration = traffic / device.host_link_bandwidth + 2.0 * device.host_link_latency
        memory = model.param_bytes  # fp16 params being refreshed in place
    else:
        eff = efficiency_model.base_efficiency.get(LayerKind.OPTIMIZER, 0.04)
        duration = flops / (device.peak_flops * eff) + device.kernel_launch_overhead
        memory = model.param_count * (2.0 + GRAD_BYTES_PER_PARAM + ADAM_OPTIMIZER_BYTES_PER_PARAM)
    return GraphNode(
        name="optimizer_step",
        role=NodeRole.OPTIMIZER_STEP,
        duration=duration,
        memory_bytes=memory,
        flops=flops,
    )


def profile_model(
    model: ModelSpec,
    job_type: JobType,
    config: ExecutionConfig,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> ModelProfile:
    """Resolve ``model`` under ``config`` into a :class:`ModelProfile`.

    The produced graph is linear: forward nodes in layer order, then (for
    training jobs) backward nodes in reverse order and a final optimizer
    step.  Node ``memory_bytes`` is the device memory that must be free to
    run that node: the configuration's resident footprint plus the node's
    own working set, so that Algorithm 1's per-bubble memory check is
    equivalent to "does this configuration fit in this bubble".
    """
    fp = footprint(model, config, job_type)
    batch = config.batch_size

    nodes: List[GraphNode] = []
    resident = fp.device_bytes

    for layer in model.layers:
        duration = _forward_duration(layer, batch, device, config, efficiency_model)
        working = batch * layer.output_bytes_per_sample + layer_state_bytes(
            layer, job_type, config
        )
        nodes.append(
            GraphNode(
                name=f"fwd/{layer.name}",
                role=NodeRole.FORWARD,
                duration=duration,
                memory_bytes=min(resident, max(working, 0.25 * resident)),
                flops=batch * layer.fwd_flops_per_sample,
                layer_name=layer.name,
            )
        )

    if job_type.is_training:
        for layer in reversed(model.layers):
            duration = _backward_duration(layer, batch, device, config, efficiency_model)
            working = batch * layer.activation_bytes_per_sample + layer_state_bytes(
                layer, job_type, config
            )
            nodes.append(
                GraphNode(
                    name=f"bwd/{layer.name}",
                    role=NodeRole.BACKWARD,
                    duration=duration,
                    memory_bytes=min(resident, max(working, 0.25 * resident)),
                    flops=_backward_flops(layer, batch, config),
                    layer_name=layer.name,
                )
            )
        nodes.append(_optimizer_step(model, device, config, efficiency_model))

    graph = ComputationalGraph(model_name=model.name, nodes=tuple(nodes))
    return ModelProfile(
        model=model,
        job_type=job_type,
        config=config,
        device=device,
        graph=graph,
        device_footprint_bytes=fp.device_bytes,
        host_footprint_bytes=fp.host_bytes,
    )


# -- the shared profile memo ---------------------------------------------------
#
# A profile is a pure function of (model, job type, config, device, efficiency
# model).  The executors' plan searches, their isolated-throughput reference
# and every trace generator's GPU-hours -> samples conversion ask for the same
# few hundred profiles, so one process-wide memo serves them all.  Job type,
# config and device are frozen values keyed by value.  A model spec would be
# expensive to hash (every layer) and an efficiency model holds dicts, so both
# are keyed by identity, and every entry pins the two objects it was computed
# for: while the entry lives neither id can be reused, so two *different*
# specs -- even ones sharing a registry name -- never share a profile.
# ``repro.core.executor.clear_shared_caches()`` empties the memo.

#: One memo entry: the pinned model and efficiency model, then the profile.
_ProfileEntry = Tuple[ModelSpec, EfficiencyModel, ModelProfile]

_PROFILES: Dict[tuple, _ProfileEntry] = {}

#: Entry bound: a process profiling this many distinct inputs (many models,
#: devices or spec objects) flushes the memo wholesale and refills it.
_MAX_PROFILES = 4096


def cached_profile(
    model: ModelSpec,
    job_type: JobType,
    config: ExecutionConfig,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> ModelProfile:
    """:func:`profile_model` read through the process-wide profile memo."""
    # Identity-memo key: the entry pins both objects, and the key is never
    # ordered, serialized or digested.
    key = (id(model), job_type, config, device, id(efficiency_model))
    entry = _PROFILES.get(key)
    if entry is not None and entry[0] is model and entry[1] is efficiency_model:
        return entry[2]
    profile = profile_model(model, job_type, config, device, efficiency_model)
    if len(_PROFILES) >= _MAX_PROFILES:
        _PROFILES.clear()
    _PROFILES[key] = (model, efficiency_model, profile)
    return profile


def clear_profile_cache() -> None:
    """Empty the profile memo (``clear_shared_caches()`` calls this)."""
    _PROFILES.clear()


def best_profile(
    model: ModelSpec,
    job_type: JobType,
    *,
    memory_limit_bytes: float,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
    configs: Optional[Sequence[ExecutionConfig]] = None,
) -> Optional[ModelProfile]:
    """Pick the configuration with the highest throughput that fits in memory.

    Returns ``None`` when no candidate configuration fits (the job cannot be
    used as a fill job on this device / bubble).  Profiles are read through
    the shared profile memo (:func:`cached_profile`).
    """
    check_positive(memory_limit_bytes, "memory_limit_bytes")
    if configs is None:
        configs = candidate_configs(job_type)
    best: Optional[ModelProfile] = None
    best_throughput = 0.0
    for config in configs:
        profile = cached_profile(model, job_type, config, device, efficiency_model)
        if not profile.fits_memory(memory_limit_bytes):
            continue
        throughput = profile.throughput_samples_per_s
        if best is None or throughput > best_throughput:
            best, best_throughput = profile, throughput
    return best


def isolated_throughput(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> float:
    """Max samples/s of the job when it owns an entire device (no main job).

    This is the reference point used both to convert trace GPU-hours into
    sample counts (Section 5.3) and to compute fill-job slowdown (Figure 7b).
    """
    profile = best_profile(
        model,
        job_type,
        memory_limit_bytes=device.usable_memory_bytes,
        device=device,
        efficiency_model=efficiency_model,
    )
    if profile is None:
        raise ValueError(
            f"model {model.name!r} does not fit on an exclusive {device.name}"
        )
    return profile.throughput_samples_per_s


def isolated_tflops(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> float:
    """Sustained TFLOP/s of the job when it owns an entire device."""
    profile = best_profile(
        model,
        job_type,
        memory_limit_bytes=device.usable_memory_bytes,
        device=device,
        efficiency_model=efficiency_model,
    )
    if profile is None:
        raise ValueError(
            f"model {model.name!r} does not fit on an exclusive {device.name}"
        )
    return profile.effective_tflops
