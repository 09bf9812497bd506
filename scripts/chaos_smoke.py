#!/usr/bin/env python
"""Chaos smoke: the crash-safe sweep runtime proves itself end to end.

Runs one small sweep five ways and asserts the supervised runtime's
core guarantees (docs/robustness.md) hold on a real scenario:

1. a clean run (the reference digest);
2. a run where every worker is SIGKILL'd on its first attempt — the
   retries must recover it to a bit-identical digest;
3. a run interrupted mid-sweep, then resumed from its journal — the
   merged result must also be bit-identical, and the journal must show
   the resume re-ran only the missing points;
4. a run whose failures exhaust their retries — it must degrade to
   structured failures in a schema-valid payload, not abort;
5. a run over a warm plan cache whose entries get truncated — the
   corrupt entries must be quarantined and recomputed, and the digest
   must not move.

Used by the CI ``chaos-smoke`` job and runnable locally:

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import (  # noqa: E402
    ChaosPlan,
    Experiment,
    SweepInterrupted,
    validate_sweep_payload,
)
from repro.core.executor import clear_shared_caches  # noqa: E402
from repro.exec import reset_chaos_state  # noqa: E402
from repro.utils import plancache  # noqa: E402

SCENARIO = "scenarios/smoke.yaml"
GRID = dict(parameter="policy", values=["sjf", "fifo"])


def main() -> int:
    exp = Experiment.from_yaml(SCENARIO)

    print("[1/5] clean reference sweep")
    reference = exp.sweep(workers=1, **GRID)
    assert reference.ok, "clean run must succeed"
    print(f"      digest {reference.digest()}")

    print("[2/5] SIGKILL every first attempt; retries must recover")
    killed = exp.sweep(
        workers=2,
        backoff_seconds=0.01,
        chaos=ChaosPlan.build("kill", max_attempt=1),
        **GRID,
    )
    assert killed.ok, f"kill-chaos run failed: {killed.failures}"
    assert all(p.attempts == 2 for p in killed.points), (
        f"expected every point to need 2 attempts, got "
        f"{[p.attempts for p in killed.points]}"
    )
    assert killed.digest() == reference.digest(), (
        f"kill-chaos digest {killed.digest()} != clean {reference.digest()}"
    )
    print(f"      digest {killed.digest()} (bit-identical, attempts=2 each)")

    print("[3/5] interrupt mid-sweep, then resume from the journal")
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as journals:
        reset_chaos_state()
        try:
            exp.sweep(
                workers=1,
                journal_dir=journals,
                chaos=ChaosPlan.build("interrupt", {"after_points": 1}),
                **GRID,
            )
            raise AssertionError("interrupt chaos did not interrupt the sweep")
        except SweepInterrupted as interrupt:
            print(f"      interrupted: {interrupt}")
            assert interrupt.completed == 1 and interrupt.total == 2
            sweep_id = interrupt.sweep_id
            journal_path = interrupt.journal_path
        resumed = exp.sweep(
            workers=1, journal_dir=journals, resume=sweep_id, **GRID
        )
        assert resumed.ok and resumed.resumed_from == sweep_id
        assert resumed.digest() == reference.digest(), (
            f"resumed digest {resumed.digest()} != clean {reference.digest()}"
        )
        records = [
            json.loads(line)["record"]
            for line in open(journal_path, encoding="utf-8")
        ]
        assert records == ["sweep", "point", "point"], (
            f"resume re-ran journaled work: journal records {records}"
        )
        print(f"      digest {resumed.digest()} (bit-identical after resume)")

    print("[4/5] exhausted retries degrade to structured failures")
    broken = exp.sweep(
        workers=2,
        max_retries=1,
        backoff_seconds=0.01,
        chaos=ChaosPlan.build("exception", max_attempt=99),
        **GRID,
    )
    assert not broken.ok and len(broken.failures) == 2
    assert not broken.points
    validate_sweep_payload(broken.to_dict())
    for failure in broken.failures:
        print(f"      {failure.describe()}")
    print("      payload still validates against schema v1")

    print("[5/5] truncated plan-cache entries are quarantined and recomputed")
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-cache-") as cache:
        plancache.configure(cache)
        try:
            clear_shared_caches()
            exp.sweep(workers=1, **GRID)  # warms the cache
            clear_shared_caches()
            plancache.reset_stats()
            truncated = exp.sweep(
                workers=1, chaos=ChaosPlan.build("truncate-cache"), **GRID
            )
            stats = plancache.stats()
        finally:
            plancache.configure(None, enabled=False)
    assert truncated.ok, f"truncate-cache run failed: {truncated.failures}"
    assert stats["quarantined"] >= 1, f"nothing was quarantined: {stats}"
    assert truncated.digest() == reference.digest(), (
        f"truncate-cache digest {truncated.digest()} != clean {reference.digest()}"
    )
    print(
        f"      digest {truncated.digest()} (bit-identical, "
        f"{stats['quarantined']} entries quarantined)"
    )

    print("chaos smoke: all guarantees held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
