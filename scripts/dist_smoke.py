#!/usr/bin/env python
"""Dist smoke: a sharded sweep and a shared plan log, end to end.

Runs the scaling-out loop (docs/distributed.md) the way two machines
would, every stage in a separate OS process:

1. run the two shards of a 2-way sharded sweep as parallel ``repro
   sweep --shard i/2`` processes, each with a cold private
   ``--cache-dir`` (one per "machine");
2. concatenate the shards' plan-cache logs into a third cache
   directory, as ``cat`` would;
3. ``repro profile`` the scenario against the third directory and
   assert that every plan lookup hits (hits > 0, 0 misses, 0 errors);
4. recombine the partials with ``repro merge`` and assert the merged
   digest equals the committed single-process digest.

Writes the merged result to ``dist_merged.json`` (uploaded as a CI
artifact).  Used by the CI ``dist-smoke`` job and runnable locally:

    PYTHONPATH=src python scripts/dist_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import validate_sweep_payload  # noqa: E402
from repro.api.results import result_digest  # noqa: E402

SCENARIO = "scenarios/multi_tenant.yaml"
#: ``Experiment.from_yaml(SCENARIO).sweep(workers=1).digest()`` — the
#: single-process, unsharded reference digest of the scenario's own
#: 5-policy sweep grid.
EXPECTED_DIGEST = "4c3f0c3f18febda7"
NUM_SHARDS = 2
ARTIFACT = REPO_ROOT / "dist_merged.json"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _repro(*args: str) -> list:
    return [sys.executable, "-m", "repro", *args]


def _run(*args: str) -> None:
    subprocess.run(_repro(*args), env=_env(), cwd=REPO_ROOT, check=True)


def _concatenate_logs(sources: list, target: Path) -> int:
    """Concatenate every source's ``estimates/*.log`` by name into
    ``target``; returns the number of lines written."""
    estimates = target / "estimates"
    estimates.mkdir(parents=True)
    lines = 0
    for source in sources:
        for log in sorted((source / "estimates").glob("*.log")):
            data = log.read_bytes()
            with open(estimates / log.name, "ab") as out:
                out.write(data)
            lines += data.count(b"\n")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        caches = [root / f"cache{index}" for index in range(NUM_SHARDS)]
        partials = [root / f"part{index}.json" for index in range(NUM_SHARDS)]

        print(f"[1/4] running {NUM_SHARDS} shard sweeps in parallel processes")
        shards = [
            subprocess.Popen(
                _repro(
                    "sweep",
                    SCENARIO,
                    "--shard",
                    f"{index}/{NUM_SHARDS}",
                    "--workers",
                    "1",
                    "--cache-dir",
                    str(caches[index]),  # a cold private cache per "machine"
                    "--json",
                    str(partials[index]),
                ),
                env=_env(),
                cwd=REPO_ROOT,
            )
            for index in range(NUM_SHARDS)
        ]
        codes = [shard.wait() for shard in shards]
        assert codes == [0] * NUM_SHARDS, f"shard exit codes {codes}"

        shared = root / "shared"
        lines = _concatenate_logs(caches, shared)
        print(f"[2/4] concatenated the shards' plan logs: {lines} line(s)")
        assert lines > 0, "the shards wrote no plans"

        profile = root / "profile.json"
        _run("profile", SCENARIO, "--cache-dir", str(shared), "--json", str(profile))
        stats = json.loads(profile.read_text())["plan_cache"]
        print(
            f"[3/4] profile against the concatenated log: {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['errors']} error(s)"
        )
        assert stats["hits"] > 0, "no hits: the concatenated log served no plan"
        assert stats["misses"] == 0 and stats["errors"] == 0, stats

        _run("merge", *map(str, partials), "--json", str(ARTIFACT))

    merged = json.loads(ARTIFACT.read_text())
    validate_sweep_payload(merged)
    core = [
        {k: v for k, v in entry.items() if k not in ("parameter", "value", "point_key")}
        for entry in merged["sweep"]
    ]
    digest = result_digest({"points": core})
    print(f"[4/4] merged digest {digest} (expected {EXPECTED_DIGEST})")
    assert digest == EXPECTED_DIGEST, (
        f"sharded+merged digest {digest} != committed single-process "
        f"digest {EXPECTED_DIGEST}"
    )
    assert "shard" not in merged and len(merged["sweep"]) == 5
    print(f"dist smoke ok — merged result at {ARTIFACT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
