"""Tests for repro.sim.events and repro.sim.metrics."""

from __future__ import annotations

import pytest

from repro.sim.events import EventKind, EventQueue
from repro.sim.metrics import FillJobMetrics, UtilizationReport, gpus_saved


class TestEventQueue:
    def test_ordered_by_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.JOB_ARRIVAL, job_id="b")
        q.push(1.0, EventKind.JOB_ARRIVAL, job_id="a")
        q.push(3.0, EventKind.JOB_COMPLETION, job_id="c")
        assert [q.pop().job_id for _ in range(3)] == ["a", "c", "b"]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, EventKind.JOB_ARRIVAL, job_id="first")
        q.push(1.0, EventKind.JOB_ARRIVAL, job_id="second")
        assert q.pop().job_id == "first"
        assert q.pop().job_id == "second"

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(1.0, EventKind.JOB_ARRIVAL, job_id="a")
        assert q.peek().job_id == "a"
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().peek()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.JOB_ARRIVAL)
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), EventKind.JOB_ARRIVAL)

    def test_bool_and_len(self):
        q = EventQueue()
        assert not q
        q.push(0.0, EventKind.JOB_ARRIVAL)
        assert q and len(q) == 1


class TestMetrics:
    def make_fill_metrics(self, completed=8, submitted=10) -> FillJobMetrics:
        return FillJobMetrics(
            jobs_submitted=submitted,
            jobs_completed=completed,
            jobs_rejected=0,
            total_flops=1e15,
            total_samples=100.0,
            average_jct=10.0,
            makespan=50.0,
            busy_device_seconds=30.0,
        )

    def test_completion_rate(self):
        assert self.make_fill_metrics().completion_rate == pytest.approx(0.8)

    def test_completion_rate_no_jobs(self):
        assert self.make_fill_metrics(completed=0, submitted=0).completion_rate == 0.0

    def test_utilization_report_totals(self):
        report = UtilizationReport(
            num_devices=16,
            horizon_seconds=100.0,
            main_tflops_per_device=20.0,
            fill_tflops_per_device=10.0,
            bubble_ratio=0.65,
            main_job_slowdown=0.01,
        )
        assert report.total_tflops_per_device == pytest.approx(30.0)
        assert report.utilization_gain == pytest.approx(0.5)

    def test_utilization_gain_zero_main(self):
        report = UtilizationReport(
            num_devices=1, horizon_seconds=1.0, main_tflops_per_device=0.0,
            fill_tflops_per_device=5.0, bubble_ratio=0.5, main_job_slowdown=0.0,
        )
        assert report.utilization_gain == 0.0

    def test_invalid_report(self):
        with pytest.raises(ValueError):
            UtilizationReport(
                num_devices=0, horizon_seconds=1.0, main_tflops_per_device=1.0,
                fill_tflops_per_device=1.0, bubble_ratio=0.5, main_job_slowdown=0.0,
            )


class TestGpusSaved:
    def test_paper_example(self):
        """Section 6.2: 8K GPUs at 65% bubbles and ~30-50% relative performance
        saves roughly 1.5K-2.6K GPUs."""
        low = gpus_saved(8192, 0.65, 0.29)
        high = gpus_saved(8192, 0.65, 0.49)
        assert low == pytest.approx(1544, rel=0.01)
        assert high == pytest.approx(2609, rel=0.01)

    def test_formula(self):
        assert gpus_saved(100, 0.5, 0.5) == pytest.approx(25.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gpus_saved(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            gpus_saved(10, 1.5, 0.5)
