"""``repro.dist`` -- sweep sharding and partial-result merging.

Sweeps run process-parallel on one box; this package splits one grid
across many processes or machines:

* :mod:`repro.dist.sharding` -- deterministic, content-keyed partition of
  a validated sweep grid: ``shard(point_key, num_shards)`` assigns every
  grid point to exactly one shard, so ``Experiment.sweep(shards=N,
  shard_index=i)`` / ``repro sweep --shard i/N`` can run disjoint slices
  of one grid on many workers or machines with no coordinator.
* :mod:`repro.dist.merge` -- recombine the shards' partial
  :class:`~repro.api.SweepResult` payloads (or their journals) into one
  schema-v1 sweep payload that is bit-identical to an unsharded run;
  grid-digest mismatches are refused and overlapping/missing shards are
  reported (``repro merge``).

Machines share plan searches through files, not a service: the plan
cache (:mod:`repro.utils.plancache`) is one append-only log per cache
directory, and copying or concatenating logs into another machine's
``<cache-dir>/estimates/`` serves their plans there (see
``docs/distributed.md``).
"""

from repro.dist.merge import (
    MergeError,
    journal_to_partial_payload,
    load_partial,
    merge_sweep_payloads,
)
from repro.dist.sharding import shard, shard_keys

__all__ = [
    "MergeError",
    "journal_to_partial_payload",
    "load_partial",
    "merge_sweep_payloads",
    "shard",
    "shard_keys",
]
