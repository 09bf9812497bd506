"""Simulated accelerator hardware: device, link and node specifications.

This package is the substitute for the paper's physical testbed (AWS
p3.16xlarge nodes with 8x NVIDIA V100-16GB each).  It holds the static
specs the analytical cost models read:

* accelerator compute/memory specs (:mod:`repro.hardware.device`),
* intra-node and inter-node interconnects (:mod:`repro.hardware.interconnect`),
  and
* multi-accelerator node types with host memory for offloading
  (:mod:`repro.hardware.node`).

Memory is never allocated: the simulator compares analytic fill-job
footprints with the free memory of each bubble.
"""

from repro.hardware.device import (
    DeviceSpec,
    V100_16GB,
    A100_40GB,
    A100_80GB,
    TRAINIUM1,
    device_spec,
    DEVICE_SPECS,
)
from repro.hardware.interconnect import (
    Link,
    LinkSpec,
    NVLINK2,
    NVLINK3,
    PCIE3_X16,
    PCIE4_X16,
    ETHERNET_25G,
    ETHERNET_100G,
    EFA_400G,
)
from repro.hardware.node import NodeSpec, P3_16XLARGE, P4D_24XLARGE, node_spec

__all__ = [
    "DeviceSpec",
    "V100_16GB",
    "A100_40GB",
    "A100_80GB",
    "TRAINIUM1",
    "device_spec",
    "DEVICE_SPECS",
    "Link",
    "LinkSpec",
    "NVLINK2",
    "NVLINK3",
    "PCIE3_X16",
    "PCIE4_X16",
    "ETHERNET_25G",
    "ETHERNET_100G",
    "EFA_400G",
    "NodeSpec",
    "P3_16XLARGE",
    "P4D_24XLARGE",
    "node_spec",
]
