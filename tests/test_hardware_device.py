"""Tests for repro.hardware.device."""

from __future__ import annotations

import pytest

from repro.hardware.device import (
    A100_40GB,
    DEVICE_SPECS,
    DeviceSpec,
    TRAINIUM1,
    V100_16GB,
    device_spec,
)
from repro.utils.units import GIB, TERA


class TestDeviceSpec:
    def test_v100_matches_paper_testbed(self):
        # The paper's GPUs: 16 GB HBM, 125 TFLOP/s peak.
        assert V100_16GB.memory_bytes == 16 * GIB
        assert V100_16GB.peak_tflops == pytest.approx(125.0)

    def test_usable_memory_excludes_reserved(self):
        assert V100_16GB.usable_memory_bytes == pytest.approx(
            V100_16GB.memory_bytes - V100_16GB.reserved_bytes
        )
        assert V100_16GB.usable_memory_bytes < V100_16GB.memory_bytes

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad",
                memory_bytes=0,
                peak_flops=1.0,
                memory_bandwidth=1.0,
                host_link_bandwidth=1.0,
            )

    def test_reserved_must_be_below_capacity(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad",
                memory_bytes=1 * GIB,
                peak_flops=1 * TERA,
                memory_bandwidth=1e9,
                host_link_bandwidth=1e9,
                reserved_bytes=2 * GIB,
            )

    def test_scaled_spec(self):
        bigger = V100_16GB.scaled(memory_scale=2.0)
        assert bigger.memory_bytes == pytest.approx(2 * V100_16GB.memory_bytes)
        assert bigger.peak_flops == pytest.approx(V100_16GB.peak_flops)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            V100_16GB.scaled(memory_scale=0.0)

    def test_registry_lookup(self):
        assert device_spec("V100-16GB") is V100_16GB
        assert "A100-40GB" in DEVICE_SPECS

    def test_registry_unknown(self):
        with pytest.raises(KeyError, match="unknown device spec"):
            device_spec("H100")

    def test_other_specs_sane(self):
        assert A100_40GB.peak_flops > V100_16GB.peak_flops
        assert TRAINIUM1.memory_bytes == 32 * GIB
