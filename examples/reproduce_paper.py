#!/usr/bin/env python
"""Regenerate every table and figure of the paper and write EXPERIMENTS.md.

Runs the same harnesses the benchmark suite uses (at their default, fuller
settings) and renders the results into ``EXPERIMENTS.md`` next to the
repository root, printing each table and its run time.  The file is
byte-identical to what ``python -m repro report`` writes.  The whole
report takes about 4 s.

Usage::

    python examples/reproduce_paper.py                 # everything
    python examples/reproduce_paper.py "Figure 7"      # a single experiment
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.experiments.report import EXPERIMENTS, write_report

OUTPUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def main(argv: list[str]) -> None:
    only = argv[1:] or None
    known = [entry.experiment_id for entry in EXPERIMENTS]
    if only:
        unknown = [name for name in only if name not in known]
        if unknown:
            raise SystemExit(f"unknown experiments {unknown}; known: {known}")

    results = {}
    for entry in EXPERIMENTS:
        if only and entry.experiment_id not in only:
            continue
        start = time.perf_counter()
        print(f"running {entry.experiment_id} ...", flush=True)
        results[entry.experiment_id] = entry.runner()
        print(f"  done in {time.perf_counter() - start:.1f}s")
        print(results[entry.experiment_id].to_ascii())
        print()

    if not only:
        write_report(results, OUTPUT_PATH)
        print(f"wrote {OUTPUT_PATH}")


if __name__ == "__main__":
    main(sys.argv)
