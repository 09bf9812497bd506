"""PipeFill reproduction library.

``repro`` is a from-scratch, simulation-based reproduction of *PipeFill:
Using GPUs During Bubbles in Pipeline-parallel LLM Training* (MLSys 2025).

The package is organised in layers:

* :mod:`repro.hardware` -- accelerator, interconnect and node specs (static
  numbers for the cost models; nothing is allocated).
* :mod:`repro.models` -- analytical model zoo (transformer LLM main jobs and
  the five fill-job architectures) with per-layer FLOPs / memory accounting.
* :mod:`repro.pipeline` -- pipeline-parallel substrate: stage partitioning,
  GPipe / 1F1B schedules, and an instrumented pipeline engine.
* :mod:`repro.core` -- the PipeFill contribution: the fill-job execution
  planner (Algorithm 1), the per-device executor, main-job offloading, the
  policy-driven fill-job scheduler, and the cross-tenant
  :class:`~repro.core.global_scheduler.GlobalScheduler`.
* :mod:`repro.sim` -- the event-driven cluster simulator used for the
  large-scale experiments, its multi-tenant extension, and declarative
  scenario specs.
* :mod:`repro.workloads` -- fill-job categories, the synthetic model-hub
  distribution, Alibaba-style trace generation and per-tenant arrival
  streams.
* :mod:`repro.experiments` -- one harness per paper table/figure.
* :mod:`repro.api` -- the stable public library API: the
  :class:`~repro.api.Experiment` facade, typed results with a versioned
  JSON schema, and streaming run observers.  **Embed through this.**
* :mod:`repro.registry` -- unified plugin registries (policies,
  preemption rules, arrival processes, fault models) with
  ``repro.plugins`` entry-point discovery.
* :mod:`repro.cli` -- the ``python -m repro run|sweep|report`` command
  line, a thin shell over :mod:`repro.api`.
"""

from repro._version import __version__

__all__ = ["__version__"]
