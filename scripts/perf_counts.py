#!/usr/bin/env python
"""Ratchet gate for perfbench's traced work counts: fail when one rises.

Compares every metric of unit ``count`` in the result lines of
``perfbench/run.py --seed 0 --trace 1``, saved as
``perfbench-<workload>-trace.json``, with the committed
``perf-counts.json``.  Counts repeat exactly for a given tree and seed,
so unlike a timing this gate cannot fire on host noise.  It fails on a
run that is not ``correct`` or has ``failed`` checks, on a missing
workload or counter, and on any count above its committed value.  A
count that fell is printed; ``--update`` rewrites the file, and a change
that raises a count on purpose does the same and says why in CHANGES.md.

    python scripts/perf_counts.py perfbench-*-trace.json            # gate (CI)
    python scripts/perf_counts.py perfbench-*-trace.json --update   # rewrite
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

COUNTS_PATH = Path(__file__).resolve().parent.parent / "perf-counts.json"
RESULT_NAME = re.compile(r"perfbench-(?P<workload>.+)-trace\.json$")


def load_counts(paths) -> tuple:
    """``({workload: {counter: value}}, [failures])`` of the result files."""
    counts, failures = {}, []
    for path in paths:
        match = RESULT_NAME.search(path.name)
        if match is None:
            failures.append(f"FAIL {path}: not named perfbench-<workload>-trace.json")
            continue
        workload, result = match["workload"], json.loads(path.read_text())
        if result.get("correct") is not True or result.get("failed") != 0:
            failures.append(
                f"FAIL {workload}: correct={result.get('correct')} failed={result.get('failed')}"
            )
        counts[workload] = {
            name: metric["value"]
            for name, metric in sorted(result["metrics"].items())
            if metric["unit"] == "count"
        }
    return counts, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path, help="perfbench-<workload>-trace.json")
    parser.add_argument("--update", action="store_true", help="rewrite perf-counts.json")
    args = parser.parse_args()

    current, failures = load_counts(args.results)
    if args.update:
        if failures:
            print("\n".join(failures + ["refusing to record the counts of failed runs"]))
            return 1
        payload = {"schema_version": 1, "workloads": dict(sorted(current.items()))}
        COUNTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {COUNTS_PATH.name} with {len(current)} workload(s)")
        return 0

    committed = json.loads(COUNTS_PATH.read_text())["workloads"]
    fell = []
    for workload, baseline in sorted(committed.items()):
        if workload not in current:
            failures.append(f"FAIL {workload}: no traced result")
            continue
        for name, limit in baseline.items():
            value = current[workload].get(name)
            if value is None:
                failures.append(f"FAIL {workload} {name}: missing from the result")
            elif value > limit:
                failures.append(f"FAIL {workload} {name}: {limit} -> {value} (+{value - limit})")
            elif value < limit:
                fell.append(f"FELL {workload} {name}: {limit} -> {value} ({value - limit})")
    for line in failures + fell:
        print(line)
    if fell:
        print(f"{len(fell)} count(s) fell; ratchet with --update to lock them in")
    print(f"perf counts: {len(failures)} failure(s), {len(fell)} fell, {len(current)} result(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
