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
take them from one process-wide memo with one entry per job class on a
device (:func:`class_profiles`): every default candidate's profile and the
isolated best.  Only the brute-force
:func:`repro.verify.reference.reference_estimate` calls
:func:`profile_model` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
# and every trace generator's GPU-hours -> samples conversion read a job
# class's default candidates together, so the one process-wide memo holds one
# entry per job class on a device: every default candidate's profile, in
# ``candidate_configs`` order, and the isolated best.  A reader makes one
# lookup where it would make 16-36 per-configuration ones.  Job type and
# device are frozen values keyed by value.  A model spec would be expensive to
# hash (every layer) and an efficiency model holds dicts, so both are keyed by
# identity, and every entry pins the two objects it was computed for: while
# the entry lives neither id can be reused, so two *different* specs -- even
# ones sharing a registry name -- never share a profile.
# ``repro.core.executor.clear_shared_caches()`` empties the memo.


@dataclass(frozen=True)
class ClassProfiles:
    """One job class's entry in the profile memo, for one device.

    ``profiles`` holds every default candidate's profile, in
    ``candidate_configs(job_type)`` order.  ``isolated`` is the first of the
    highest-throughput ones that fit the whole device
    (``device.usable_memory_bytes``), or ``None`` when none fits.
    """

    profiles: Tuple[ModelProfile, ...]
    isolated: Optional[ModelProfile]


#: One memo entry: the pinned model and efficiency model, then the class.
_ClassEntry = Tuple[ModelSpec, EfficiencyModel, ClassProfiles]

_CLASSES: Dict[tuple, _ClassEntry] = {}

#: Each default candidate's position in its job type's candidate list.
_CANDIDATE_INDEX = {
    job_type: {config: i for i, config in enumerate(candidate_configs(job_type))}
    for job_type in JobType
}

#: Class bound: a process profiling this many distinct classes (many models,
#: devices or spec objects) flushes the memo wholesale and refills it.  The
#: memo then holds at most 4,096 profiles (113 classes of 36 candidates).
_MAX_CLASSES = 4096 // max(len(index) for index in _CANDIDATE_INDEX.values())


def _fastest_fitting(
    profiles: Iterable[ModelProfile], memory_limit_bytes: float
) -> Optional[ModelProfile]:
    """The first of the highest-throughput profiles that fit in
    ``memory_limit_bytes`` (``None`` when none fits)."""
    best: Optional[ModelProfile] = None
    best_throughput = 0.0
    for profile in profiles:
        if not profile.fits_memory(memory_limit_bytes):
            continue
        throughput = profile.throughput_samples_per_s
        if best is None or throughput > best_throughput:
            best, best_throughput = profile, throughput
    return best


def class_profiles(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> ClassProfiles:
    """The job class's memo entry; the first call profiles every default candidate."""
    # Identity-memo key: the entry pins both objects, and the key is never
    # ordered, serialized or digested.
    key = (id(model), job_type, device, id(efficiency_model))
    entry = _CLASSES.get(key)
    if entry is not None and entry[0] is model and entry[1] is efficiency_model:
        return entry[2]
    profiles = tuple(
        profile_model(model, job_type, config, device, efficiency_model)
        for config in candidate_configs(job_type)
    )
    result = ClassProfiles(profiles, _fastest_fitting(profiles, device.usable_memory_bytes))
    if len(_CLASSES) >= _MAX_CLASSES:
        _CLASSES.clear()
    _CLASSES[key] = (model, efficiency_model, result)
    return result


def cached_profile(
    model: ModelSpec,
    job_type: JobType,
    config: ExecutionConfig,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> ModelProfile:
    """:func:`profile_model` read through the profile memo.

    A default candidate's profile comes from its class entry
    (:func:`class_profiles`); any other configuration is profiled afresh
    and not memoised.
    """
    index = _CANDIDATE_INDEX[job_type].get(config)
    if index is None:
        return profile_model(model, job_type, config, device, efficiency_model)
    return class_profiles(model, job_type, device, efficiency_model).profiles[index]


def clear_profile_cache() -> None:
    """Empty the profile memo (``clear_shared_caches()`` calls this)."""
    _CLASSES.clear()


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
    used as a fill job on this device / bubble).  Of equal throughputs the
    first configuration wins.  Profiles are read through the profile memo:
    the default candidates' from their class entry (:func:`class_profiles`).
    """
    check_positive(memory_limit_bytes, "memory_limit_bytes")
    profiles: Iterable[ModelProfile]
    if configs is None:
        profiles = class_profiles(model, job_type, device, efficiency_model).profiles
    else:
        profiles = (
            cached_profile(model, job_type, config, device, efficiency_model)
            for config in configs
        )
    return _fastest_fitting(profiles, memory_limit_bytes)


def isolated_throughput(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> float:
    """Max samples/s of the job when it owns an entire device (no main job).

    This is the reference point used both to convert trace GPU-hours into
    sample counts (Section 5.3) and to compute fill-job slowdown (Figure 7b).
    It reads the class entry's isolated best (:func:`class_profiles`).
    """
    profile = class_profiles(model, job_type, device, efficiency_model).isolated
    if profile is None:
        raise ValueError(f"model {model.name!r} does not fit on an exclusive {device.name}")
    return profile.throughput_samples_per_s


def isolated_tflops(
    model: ModelSpec,
    job_type: JobType,
    device: DeviceSpec = V100_16GB,
    efficiency_model: EfficiencyModel = DEFAULT_EFFICIENCY,
) -> float:
    """Sustained TFLOP/s of the job when it owns an entire device."""
    profile = class_profiles(model, job_type, device, efficiency_model).isolated
    if profile is None:
        raise ValueError(f"model {model.name!r} does not fit on an exclusive {device.name}")
    return profile.effective_tflops
