"""Utilization and scheduling metrics reported by the simulator.

These are the quantities the paper's figures plot: main-job TFLOP/s per
GPU, fill-job (recovered) TFLOP/s per GPU, their sum, the bubble ratio,
average job completion time, makespan and the derived "GPUs worth of work
saved" estimate ``C * B * P`` from Section 6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.utils.validation import check_fraction, check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduler import FillJobScheduler


@dataclass(frozen=True)
class FillJobMetrics:
    """Aggregate fill-job accounting over a simulation run."""

    jobs_submitted: int
    jobs_completed: int
    jobs_rejected: int
    total_flops: float
    total_samples: float
    average_jct: float
    makespan: float
    busy_device_seconds: float
    deadlines_total: int = 0
    deadlines_met: int = 0
    num_preemptions: int = 0

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted jobs that completed within the horizon."""
        if self.jobs_submitted == 0:
            return 0.0
        return self.jobs_completed / self.jobs_submitted

    @property
    def deadline_hit_rate(self) -> float:
        """Fraction of deadline-carrying jobs that completed in time.

        Jobs still queued or running when the horizon cut the run count as
        misses: a deadline not met by the end of the observation window is
        a miss from the submitter's point of view.
        """
        if self.deadlines_total == 0:
            return 0.0
        return self.deadlines_met / self.deadlines_total

    @staticmethod
    def merge(parts: Sequence["FillJobMetrics"]) -> "FillJobMetrics":
        """Aggregate per-tenant metrics into cluster-wide totals.

        Counters and FLOPs/samples/busy-seconds add up; the average JCT is
        weighted by each part's completed-job count; the makespan is the
        latest completion anywhere.
        """
        if not parts:
            return FillJobMetrics(0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        completed = sum(p.jobs_completed for p in parts)
        jct = (
            sum(p.average_jct * p.jobs_completed for p in parts) / completed
            if completed
            else 0.0
        )
        return FillJobMetrics(
            jobs_submitted=sum(p.jobs_submitted for p in parts),
            jobs_completed=completed,
            jobs_rejected=sum(p.jobs_rejected for p in parts),
            total_flops=sum(p.total_flops for p in parts),
            total_samples=sum(p.total_samples for p in parts),
            average_jct=jct,
            makespan=max(p.makespan for p in parts),
            busy_device_seconds=sum(p.busy_device_seconds for p in parts),
            deadlines_total=sum(p.deadlines_total for p in parts),
            deadlines_met=sum(p.deadlines_met for p in parts),
            num_preemptions=sum(p.num_preemptions for p in parts),
        )


def fill_metrics_dict(metrics: FillJobMetrics) -> dict:
    """JSON shape of one :class:`FillJobMetrics`: fields plus derived rates.

    The single serialization of fill metrics in a
    :class:`~repro.sim.multi_tenant.MultiTenantResult` payload, shared by
    its aggregate and per-tenant sections so the two cannot drift.
    """
    from dataclasses import asdict

    d = asdict(metrics)
    d["completion_rate"] = metrics.completion_rate
    d["deadline_hit_rate"] = metrics.deadline_hit_rate
    return d


@dataclass(frozen=True)
class UtilizationReport:
    """Per-GPU utilization breakdown of a PipeFill run."""

    num_devices: int
    horizon_seconds: float
    main_tflops_per_device: float
    fill_tflops_per_device: float
    bubble_ratio: float
    main_job_slowdown: float
    fill_metrics: Optional[FillJobMetrics] = None

    def __post_init__(self) -> None:
        check_positive(self.num_devices, "num_devices")
        check_positive(self.horizon_seconds, "horizon_seconds")
        check_non_negative(self.main_tflops_per_device, "main_tflops_per_device")
        check_non_negative(self.fill_tflops_per_device, "fill_tflops_per_device")
        check_fraction(self.bubble_ratio, "bubble_ratio")
        check_non_negative(self.main_job_slowdown, "main_job_slowdown")

    @property
    def total_tflops_per_device(self) -> float:
        """Aggregate (main + fill) TFLOP/s per GPU -- the paper's headline metric."""
        return self.main_tflops_per_device + self.fill_tflops_per_device

    @property
    def utilization_gain(self) -> float:
        """Relative increase in per-GPU TFLOP/s over the main job alone."""
        if self.main_tflops_per_device == 0:
            return 0.0
        return self.fill_tflops_per_device / self.main_tflops_per_device


def collect_fill_metrics(
    scheduler: "FillJobScheduler", horizon: float
) -> FillJobMetrics:
    """Aggregate a scheduler's job records into :class:`FillJobMetrics`.

    Completed jobs contribute their banked FLOPs / samples / busy time in
    full; the job running on each executor when the horizon cuts the run
    contributes the pro-rated progress of its current segment on top of
    whatever earlier (preempted) segments already banked; preempted jobs
    still waiting in a queue contribute only their banked progress.

    The per-tenant accounting of
    :class:`~repro.sim.multi_tenant.MultiTenantSimulator`; its aggregate
    merges these over tenants.
    """
    from repro.core.scheduler import FillJobState

    check_positive(horizon, "horizon")
    total_flops = 0.0
    total_samples = 0.0
    busy_seconds = 0.0
    completed = 0
    deadlines_total = 0
    deadlines_met = 0
    preemptions = 0
    for record in scheduler.records.values():
        job = record.job
        preemptions += record.num_preemptions
        if job.deadline is not None:
            deadlines_total += 1
        if record.state is FillJobState.COMPLETED:
            completed += 1
            # A job that migrated in from a departed tenant banked part of
            # its progress on that tenant's devices; attribute only the
            # locally-supplied share here (the ``*_imported`` markers; the
            # aggregate re-adds the migrated share exactly once).
            total_flops += record.flops_executed - record.flops_imported
            total_samples += job.num_samples - record.samples_imported
            busy_seconds += record.busy_banked_seconds - record.busy_imported_seconds
            if record.met_deadline:
                deadlines_met += 1
        elif record.state is FillJobState.RUNNING and record.start_time is not None:
            # Pro-rate the progress of the segment cut off by the horizon.
            assert record.assigned_executor is not None
            scheduled_end = scheduler.executors[record.assigned_executor].busy_until
            segment_duration = scheduled_end - record.start_time
            segment_flops = record.flops_executed - record.flops_banked
            fraction = 0.0
            if segment_duration > 0:
                fraction = max(
                    0.0, min(1.0, (horizon - record.start_time) / segment_duration)
                )
            total_flops += (
                record.flops_banked + fraction * segment_flops - record.flops_imported
            )
            samples_done = job.num_samples - record.samples_remaining
            total_samples += (
                samples_done
                + fraction * record.samples_remaining
                - record.samples_imported
            )
            busy_seconds += (
                record.busy_banked_seconds
                - record.busy_imported_seconds
                + max(0.0, min(horizon, scheduled_end) - record.start_time)
            )
        else:
            # Queued: only earlier preempted segments count, minus whatever
            # was banked on a previous host's devices before migrating in.
            total_flops += record.flops_banked - record.flops_imported
            total_samples += (
                job.num_samples - record.samples_remaining - record.samples_imported
            )
            busy_seconds += record.busy_banked_seconds - record.busy_imported_seconds
    return FillJobMetrics(
        jobs_submitted=len(scheduler.records),
        jobs_completed=completed,
        # A job that fits no executor never reaches a tenant: the global
        # scheduler rejects it, and the simulator's aggregate counts it.
        jobs_rejected=0,
        total_flops=total_flops,
        total_samples=total_samples,
        average_jct=scheduler.average_jct(),
        makespan=scheduler.makespan(),
        busy_device_seconds=busy_seconds,
        deadlines_total=deadlines_total,
        deadlines_met=deadlines_met,
        num_preemptions=preemptions,
    )


def gpus_saved(
    num_devices: int, bubble_ratio: float, relative_performance: float
) -> float:
    """The paper's GPUs-saved estimate ``C * B * P`` (Section 6.2).

    ``C`` GPUs running a main job with bubble ratio ``B``, filled by jobs
    that achieve fraction ``P`` of their exclusive-GPU throughput while
    filling, complete ``C * B * P`` exclusive GPUs' worth of extra work.
    """
    check_positive(num_devices, "num_devices")
    check_fraction(bubble_ratio, "bubble_ratio")
    check_non_negative(relative_performance, "relative_performance")
    return num_devices * bubble_ratio * relative_performance
