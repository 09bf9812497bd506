"""Accelerator device specifications.

The paper's experiments run on NVIDIA V100-16GB GPUs (125 TFLOP/s peak
half-precision tensor-core throughput, 16 GiB HBM2, ~900 GB/s memory
bandwidth, PCIe gen3 to the host).  :class:`DeviceSpec` captures the static
characteristics that the analytical cost model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.utils.units import GIB, GB, TERA
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of an accelerator.

    Parameters
    ----------
    name:
        Human readable identifier (``"V100-16GB"``).
    memory_bytes:
        Usable HBM capacity in bytes.
    peak_flops:
        Peak dense half-precision throughput in FLOP/s.
    memory_bandwidth:
        HBM bandwidth in bytes/s.
    host_link_bandwidth:
        Device <-> host (CPU) bandwidth in bytes/s (PCIe or NVLink-C2C),
        used by CPU-offloading cost models.
    host_link_latency:
        One-way latency of the host link in seconds.
    reserved_bytes:
        Memory permanently claimed by the runtime context (CUDA context,
        NCCL buffers); not usable by either the main job or fill jobs.
    kernel_launch_overhead:
        Fixed per-kernel launch overhead in seconds; used to model the poor
        efficiency of very small fill-job batches.
    """

    name: str
    memory_bytes: float
    peak_flops: float
    memory_bandwidth: float
    host_link_bandwidth: float
    host_link_latency: float = 5e-6
    reserved_bytes: float = 0.75 * GIB
    kernel_launch_overhead: float = 8e-6

    def __post_init__(self) -> None:
        check_positive(self.memory_bytes, "memory_bytes")
        check_positive(self.peak_flops, "peak_flops")
        check_positive(self.memory_bandwidth, "memory_bandwidth")
        check_positive(self.host_link_bandwidth, "host_link_bandwidth")
        if self.reserved_bytes < 0 or self.reserved_bytes >= self.memory_bytes:
            raise ValueError(
                "reserved_bytes must be in [0, memory_bytes), got "
                f"{self.reserved_bytes!r} for capacity {self.memory_bytes!r}"
            )

    @property
    def usable_memory_bytes(self) -> float:
        """HBM capacity available to user allocations (capacity - reserved)."""
        return self.memory_bytes - self.reserved_bytes

    @property
    def peak_tflops(self) -> float:
        """Peak throughput in TFLOP/s."""
        return self.peak_flops / TERA

    def scaled(self, *, memory_scale: float = 1.0, compute_scale: float = 1.0) -> "DeviceSpec":
        """Return a derived spec with scaled memory and/or compute.

        Useful for what-if studies (e.g. exploring future devices with more
        HBM, as the paper speculates for NVLink-C2C systems).
        """
        check_positive(memory_scale, "memory_scale")
        check_positive(compute_scale, "compute_scale")
        return replace(
            self,
            name=f"{self.name}-x{memory_scale:g}mem-x{compute_scale:g}flops",
            memory_bytes=self.memory_bytes * memory_scale,
            peak_flops=self.peak_flops * compute_scale,
            memory_bandwidth=self.memory_bandwidth * compute_scale,
        )


#: NVIDIA Tesla V100 with 16 GiB HBM2 -- the paper's physical testbed GPU.
V100_16GB = DeviceSpec(
    name="V100-16GB",
    memory_bytes=16 * GIB,
    peak_flops=125 * TERA,
    memory_bandwidth=900 * GB,
    host_link_bandwidth=12 * GB,  # effective PCIe gen3 x16
)

#: NVIDIA A100 40 GiB (SXM) -- used in what-if sensitivity studies.
A100_40GB = DeviceSpec(
    name="A100-40GB",
    memory_bytes=40 * GIB,
    peak_flops=312 * TERA,
    memory_bandwidth=1_555 * GB,
    host_link_bandwidth=25 * GB,  # effective PCIe gen4 x16
)

#: NVIDIA A100 80 GiB (SXM).
A100_80GB = DeviceSpec(
    name="A100-80GB",
    memory_bytes=80 * GIB,
    peak_flops=312 * TERA,
    memory_bandwidth=2_039 * GB,
    host_link_bandwidth=25 * GB,
)

#: AWS Trainium (trn1) accelerator, modelled at the NeuronCore-pair level.
TRAINIUM1 = DeviceSpec(
    name="Trainium1",
    memory_bytes=32 * GIB,
    peak_flops=190 * TERA,
    memory_bandwidth=820 * GB,
    host_link_bandwidth=25 * GB,
)

DEVICE_SPECS: Dict[str, DeviceSpec] = {
    spec.name: spec for spec in (V100_16GB, A100_40GB, A100_80GB, TRAINIUM1)
}


def device_spec(name: str) -> DeviceSpec:
    """Look up a built-in :class:`DeviceSpec` by name."""
    try:
        return DEVICE_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown device spec {name!r}; known: {sorted(DEVICE_SPECS)}"
        ) from None
