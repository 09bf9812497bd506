"""Compute-node specifications: accelerators, host memory and links.

A node corresponds to one machine in the paper's cluster (an AWS
p3.16xlarge: 8x V100-16GB connected by NVLink 2.0, 480 GiB of host DRAM, a
25 Gbps network interface).  A node spec names the intra-node link used by
tensor parallelism, the host link used by CPU offloading, and the network
link used by pipeline sends/receives and data-parallel all-reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hardware.device import DeviceSpec, V100_16GB, A100_40GB
from repro.hardware.interconnect import (
    ETHERNET_25G,
    EFA_400G,
    LinkSpec,
    NVLINK2,
    NVLINK3,
    PCIE3_X16,
    PCIE4_X16,
)
from repro.utils.units import GIB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a multi-accelerator machine."""

    name: str
    device_spec: DeviceSpec
    devices_per_node: int
    host_memory_bytes: float
    intra_node_link: LinkSpec
    host_link: LinkSpec
    network_link: LinkSpec

    def __post_init__(self) -> None:
        check_positive(self.devices_per_node, "devices_per_node")
        check_positive(self.host_memory_bytes, "host_memory_bytes")


#: AWS p3.16xlarge: the paper's physical-cluster node type.
P3_16XLARGE = NodeSpec(
    name="p3.16xlarge",
    device_spec=V100_16GB,
    devices_per_node=8,
    host_memory_bytes=480 * GIB,
    intra_node_link=NVLINK2,
    host_link=PCIE3_X16,
    network_link=ETHERNET_25G,
)

#: AWS p4d.24xlarge (A100), used in what-if studies.
P4D_24XLARGE = NodeSpec(
    name="p4d.24xlarge",
    device_spec=A100_40GB,
    devices_per_node=8,
    host_memory_bytes=1_152 * GIB,
    intra_node_link=NVLINK3,
    host_link=PCIE4_X16,
    network_link=EFA_400G,
)

_NODE_SPECS: Dict[str, NodeSpec] = {
    spec.name: spec for spec in (P3_16XLARGE, P4D_24XLARGE)
}


def node_spec(name: str) -> NodeSpec:
    """Look up a built-in :class:`NodeSpec` by name."""
    try:
        return _NODE_SPECS[name]
    except KeyError:
        raise KeyError(f"unknown node spec {name!r}; known: {sorted(_NODE_SPECS)}") from None
