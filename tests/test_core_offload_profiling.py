"""Tests for repro.core.offload."""

from __future__ import annotations

import pytest

from repro.core.offload import plan_optimizer_offload


class TestOptimizerOffload:
    def test_offload_frees_memory(self, costs_5b, parallel_5b):
        plan = plan_optimizer_offload(costs_5b.stages[8], parallel_5b)
        assert plan.extra_free_memory_bytes > 0
        assert plan.offloaded_bytes <= plan.offloadable_bytes + 1e-6

    def test_offloadable_is_optimizer_state(self, costs_5b, parallel_5b):
        from repro.models.memory import ADAM_OPTIMIZER_BYTES_PER_PARAM

        stage = costs_5b.stages[8]
        plan = plan_optimizer_offload(stage, parallel_5b)
        assert plan.offloadable_bytes == pytest.approx(
            stage.params_per_device * ADAM_OPTIMIZER_BYTES_PER_PARAM
        )

    def test_transfer_fits_overlap_windows(self, costs_5b, parallel_5b):
        plan = plan_optimizer_offload(costs_5b.stages[8], parallel_5b)
        assert plan.offload_time <= plan.forward_window + 1e-9
        assert plan.onload_time <= max(plan.sync_window, plan.forward_window) + 1e-9

    def test_zero_utilisation_rejected(self, costs_5b, parallel_5b):
        with pytest.raises(ValueError):
            plan_optimizer_offload(costs_5b.stages[0], parallel_5b, overlap_utilisation=1.5)

    def test_host_bytes_bounded_by_offload(self, costs_5b, parallel_5b):
        plan = plan_optimizer_offload(costs_5b.stages[3], parallel_5b)
        assert plan.host_bytes_required == pytest.approx(plan.offloaded_bytes)

    def test_full_offload_flag(self, costs_5b, parallel_5b):
        plan = plan_optimizer_offload(costs_5b.stages[8], parallel_5b)
        assert plan.is_full == (plan.offloaded_bytes >= plan.offloadable_bytes - 1e-6)
