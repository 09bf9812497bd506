"""Tests for repro.hardware.node."""

from __future__ import annotations

import pytest

from repro.hardware.node import P3_16XLARGE, P4D_24XLARGE, node_spec


class TestNodeSpec:
    def test_p3_matches_paper(self):
        # p3.16xlarge: 8 V100s, NVLink, 25 Gbps network.
        assert P3_16XLARGE.devices_per_node == 8
        assert P3_16XLARGE.device_spec.name == "V100-16GB"
        assert P3_16XLARGE.network_link.name == "Ethernet-25G"

    def test_lookup(self):
        assert node_spec("p3.16xlarge") is P3_16XLARGE
        with pytest.raises(KeyError):
            node_spec("dgx")

    def test_p4d_has_more_host_memory(self):
        assert P4D_24XLARGE.host_memory_bytes > P3_16XLARGE.host_memory_bytes
