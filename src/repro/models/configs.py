"""Fill-job execution configurations.

The Fill Job Executor evaluates a fill job under several *configurations*:
different batch sizes and different execution techniques (ZeRO-Offload /
ZeRO-Infinity style CPU offloading of optimizer states, gradients, and
parameters; activation checkpointing).  Each configuration yields a profile
(per-node duration and memory), and the executor picks the configuration
whose Algorithm-1 plan packs the most throughput into the bubble cycle.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence

from repro.utils.validation import check_positive


class JobType(str, enum.Enum):
    """Category of a deep-learning job (the paper only fills these two)."""

    TRAINING = "training"
    BATCH_INFERENCE = "batch_inference"

    @property
    def is_training(self) -> bool:
        """True for training jobs."""
        return self is JobType.TRAINING


#: Batch sizes the executor considers for batch-inference fill jobs.
DEFAULT_INFERENCE_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Batch sizes the executor considers for training fill jobs.
DEFAULT_TRAINING_BATCH_SIZES: tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ExecutionConfig:
    """One way of executing a fill job.

    Parameters
    ----------
    batch_size:
        Per-iteration (micro)batch size.
    offload_optimizer:
        Keep optimizer states in host memory (ZeRO-Offload).  Training only.
    offload_params:
        Stream parameters from host memory layer by layer (ZeRO-Infinity).
    offload_activations:
        Keep stored activations in host memory between forward and backward.
        Training only.
    activation_checkpointing:
        Recompute activations during the backward pass instead of storing
        them (adds one extra forward).  Training only.
    """

    batch_size: int
    offload_optimizer: bool = False
    offload_params: bool = False
    offload_activations: bool = False
    activation_checkpointing: bool = False

    def __post_init__(self) -> None:
        check_positive(self.batch_size, "batch_size")

    @property
    def offloads_anything(self) -> bool:
        """True if any state is kept in host memory."""
        return self.offload_optimizer or self.offload_params or self.offload_activations

    def describe(self) -> str:
        """Short human-readable tag, e.g. ``"bs=16+ckpt+opt-offload"``."""
        parts = [f"bs={self.batch_size}"]
        if self.activation_checkpointing:
            parts.append("ckpt")
        if self.offload_optimizer:
            parts.append("opt-offload")
        if self.offload_params:
            parts.append("param-offload")
        if self.offload_activations:
            parts.append("act-offload")
        return "+".join(parts)

    def with_batch_size(self, batch_size: int) -> "ExecutionConfig":
        """Return a copy with a different batch size."""
        return replace(self, batch_size=batch_size)


def candidate_configs(
    job_type: JobType,
    *,
    batch_sizes: Sequence[int] | None = None,
    allow_offloading: bool = True,
    allow_checkpointing: bool = True,
) -> List[ExecutionConfig]:
    """Enumerate the execution configurations the executor should evaluate.

    Inference jobs only vary the batch size and (optionally) parameter
    offloading; training jobs additionally consider activation checkpointing
    and optimizer/activation offloading, mirroring the ZeRO-Offload /
    ZeRO-Infinity options the paper's implementation exposes.
    """
    if batch_sizes is None and allow_offloading and allow_checkpointing:
        # Every plan search and isolated-throughput lookup asks for the
        # defaults, so they are enumerated once per job type.
        return list(_DEFAULT_CANDIDATES[job_type])
    return _enumerate_configs(job_type, batch_sizes, allow_offloading, allow_checkpointing)


def _enumerate_configs(
    job_type: JobType,
    batch_sizes: Sequence[int] | None,
    allow_offloading: bool,
    allow_checkpointing: bool,
) -> List[ExecutionConfig]:
    if batch_sizes is None:
        batch_sizes = (
            DEFAULT_TRAINING_BATCH_SIZES
            if job_type.is_training
            else DEFAULT_INFERENCE_BATCH_SIZES
        )
    for bs in batch_sizes:
        check_positive(bs, "batch size")

    configs: List[ExecutionConfig] = []
    if job_type is JobType.BATCH_INFERENCE:
        offload_options: Iterable[bool] = (False, True) if allow_offloading else (False,)
        for bs, offload_params in itertools.product(batch_sizes, offload_options):
            configs.append(ExecutionConfig(batch_size=bs, offload_params=offload_params))
        return configs

    ckpt_options = (False, True) if allow_checkpointing else (False,)
    offload_options = (False, True) if allow_offloading else (False,)
    for bs, ckpt, off_opt, off_act in itertools.product(
        batch_sizes, ckpt_options, offload_options, offload_options
    ):
        # Offloading activations is pointless when they are being recomputed.
        if ckpt and off_act:
            continue
        configs.append(
            ExecutionConfig(
                batch_size=bs,
                activation_checkpointing=ckpt,
                offload_optimizer=off_opt,
                offload_activations=off_act,
            )
        )
    return configs


_DEFAULT_CANDIDATES = {
    job_type: tuple(_enumerate_configs(job_type, None, True, True)) for job_type in JobType
}
