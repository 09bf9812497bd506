"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single_tenant_sjf --seed 0 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced sequences instead, prints every per-layer
metric and writes every recorded span as Chrome-trace JSON under
``.perfbench/traces/``.  The last line of standard output is the result
object (``correct``, ``attempted``, ``failed``, ``metrics``); a readable
table and any digest mismatches go to standard error.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        trace_path = ROOT / ".perfbench" / "traces" / f"{workload.name}-seed{args.seed}.json"
        check, values = measure.measure_traced(workload, args.seed, ROOT, trace_path)
        units = _units(spec, "per_layer")
    else:
        check, values, samples = measure.measure(workload, args.seed, args.seconds, ROOT)
        units = _units(spec, "end_to_end")
        print(f"samples: {json.dumps(samples)}", file=sys.stderr)
    if set(values) != set(units):
        print(
            f"error: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}",
            file=sys.stderr,
        )
        return 1

    for note in check.notes:
        print(f"check: {note}", file=sys.stderr)
    for name in units:
        print(f"{name:42s} {values[name]:>16.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
