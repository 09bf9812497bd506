"""Device-efficiency model: maps layer work onto achievable throughput.

The analytical cost model converts FLOPs into time through an *efficiency*
(fraction of the device's peak throughput, i.e. model FLOPs utilisation).
Efficiency depends on:

* the operator class (dense matmul-heavy blocks run near the achievable
  MFU, memory-bound ops far below it),
* the batch size (small batches under-utilise the device; fill jobs are
  frequently batch-limited by the scarce free memory inside bubbles),
* per-layer kernel quality (the paper notes Swin's shifted-window attention
  is poorly optimised in their stack),
* cold-start effects: a fill job resumes from scratch at every bubble, so
  the first execution in a bubble pays a warm-up penalty.

The constants below are calibrated so that (i) the 40B main job sustains
roughly 60 TFLOP/s per V100 while it is executing (the figure quoted in
Section 6.2 of the paper), and (ii) fill jobs land in the 5-35 TFLOP/s
range with the orderings reported in Figure 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.models.base import LayerKind, LayerSpec
from repro.utils.validation import check_fraction, check_positive

#: Base fraction-of-peak efficiency for each operator class at large batch.
_DEFAULT_BASE_EFFICIENCY: Dict[LayerKind, float] = {
    LayerKind.EMBEDDING: 0.15,
    LayerKind.ATTENTION: 0.42,
    LayerKind.WINDOW_ATTENTION: 0.22,
    LayerKind.MLP: 0.55,
    LayerKind.TRANSFORMER_BLOCK: 0.50,
    LayerKind.CONV: 0.38,
    LayerKind.NORM: 0.05,
    LayerKind.POOL: 0.05,
    LayerKind.CLASSIFIER: 0.35,
    LayerKind.LM_HEAD: 0.45,
    LayerKind.OPTIMIZER: 0.04,
}

#: Batch size at which each operator class reaches half of its asymptotic
#: efficiency.  Convolutions over small images need large batches to fill
#: the device; big transformer blocks saturate almost immediately because a
#: single sample already carries thousands of tokens.
_DEFAULT_HALF_SATURATION_BATCH: Dict[LayerKind, float] = {
    LayerKind.EMBEDDING: 4.0,
    LayerKind.ATTENTION: 2.0,
    LayerKind.WINDOW_ATTENTION: 3.0,
    LayerKind.MLP: 2.0,
    LayerKind.TRANSFORMER_BLOCK: 1.5,
    LayerKind.CONV: 12.0,
    LayerKind.NORM: 8.0,
    LayerKind.POOL: 8.0,
    LayerKind.CLASSIFIER: 4.0,
    LayerKind.LM_HEAD: 2.0,
    LayerKind.OPTIMIZER: 1.0,
}


@dataclass(frozen=True)
class EfficiencyModel:
    """Maps (layer kind, batch size) to a fraction of device peak FLOP/s.

    Parameters
    ----------
    base_efficiency:
        Asymptotic (large-batch) efficiency per operator class.
    half_saturation_batch:
        Batch size at which a class reaches half its asymptotic efficiency;
        efficiency follows ``b / (b + b_half)``.
    cold_start_seconds:
        Fixed warm-up cost paid the first time a fill job runs inside a
        bubble (cold instruction/L2 caches, stream re-priming).  Applied per
        graph partition by the executor, not per layer.
    main_job_efficiency:
        Efficiency of the main LLM training job while it is actively
        computing (per-GPU MFU); the paper measures ~60 TFLOP/s on a 125
        TFLOP/s V100, i.e. 0.48.
    cold_efficiency:
        Fraction of steady-state throughput a fill job achieves immediately
        after being context-switched into a bubble (cold caches, cold
        allocator, un-primed streams).  Section 6.2 of the paper attributes
        most of the fill-job slowdown to running "a single iteration of a
        subset of the model, which is not enough to warmup the GPU caches".
    warmup_tau_seconds:
        Time constant of the exponential ramp from ``cold_efficiency`` back
        to steady state during uninterrupted execution.  Bubbles are O(1 s),
        far shorter than the ramp, which is why fill jobs retain only
        ~30-40% of their exclusive throughput while filling.
    """

    base_efficiency: Mapping[LayerKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_BASE_EFFICIENCY)
    )
    half_saturation_batch: Mapping[LayerKind, float] = field(
        default_factory=lambda: dict(_DEFAULT_HALF_SATURATION_BATCH)
    )
    cold_start_seconds: float = 0.004
    main_job_efficiency: float = 0.48
    cold_efficiency: float = 0.40
    warmup_tau_seconds: float = 4.0

    def __post_init__(self) -> None:
        for kind, value in self.base_efficiency.items():
            check_fraction(value, f"base_efficiency[{kind}]")
        for kind, value in self.half_saturation_batch.items():
            check_positive(value, f"half_saturation_batch[{kind}]")
        check_fraction(self.main_job_efficiency, "main_job_efficiency")
        check_fraction(self.cold_efficiency, "cold_efficiency")
        check_positive(self.warmup_tau_seconds, "warmup_tau_seconds")
        if self.cold_start_seconds < 0:
            raise ValueError("cold_start_seconds must be >= 0")

    def batch_saturation(self, kind: LayerKind, batch_size: int) -> float:
        """Fraction of asymptotic efficiency reached at ``batch_size``."""
        check_positive(batch_size, "batch_size")
        b_half = self.half_saturation_batch.get(kind, 4.0)
        return batch_size / (batch_size + b_half)

    def layer_efficiency(self, layer: LayerSpec, batch_size: int) -> float:
        """Achievable fraction of peak FLOP/s for a layer at a batch size."""
        base = self.base_efficiency.get(layer.kind, 0.3)
        return base * layer.kernel_efficiency * self.batch_saturation(layer.kind, batch_size)

    def bubble_efficiency(self, run_duration: float) -> float:
        """Average fraction of steady-state throughput over a bubble run.

        A fill job context-switched into a bubble starts at
        ``cold_efficiency`` and ramps exponentially toward steady state with
        time constant ``warmup_tau_seconds``.  The average over a run of
        length ``run_duration`` is::

            1 - (1 - cold) * (tau / d) * (1 - exp(-d / tau))

        which tends to ``cold_efficiency`` for very short runs and to 1 for
        runs much longer than ``tau`` (e.g. exclusive execution).

        Contract: the result is non-decreasing in ``run_duration`` for every
        valid ``cold_efficiency`` in [0, 1] (``TestEfficiencyProperties``
        checks it).  The executor's configuration search relies on it to
        bound a plan's throughput by the efficiency of its longest bubble
        and skip plans that cannot win.
        """
        if run_duration < 0:
            raise ValueError(f"run_duration must be >= 0, got {run_duration}")
        tau = self.warmup_tau_seconds
        if run_duration < 1e-9 * tau:
            # The ramp has no time to act; avoid the 0/0 in the closed form.
            return self.cold_efficiency
        ratio = tau / run_duration
        ramp = -math.expm1(-run_duration / tau)
        return 1.0 - (1.0 - self.cold_efficiency) * ratio * ramp


#: Shared default efficiency model used throughout the library.
DEFAULT_EFFICIENCY = EfficiencyModel()
