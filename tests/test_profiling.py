"""Tests for the per-event-kind timing accumulator and `repro profile`.

The kernel times every handler invocation (always on -- the overhead is
two clock reads per event) and surfaces the accumulator as
``timings_by_kind`` in kernel stats, simulation results and the
``repro profile`` command.  Timings must never leak into the
digest-bearing default ``to_dict()`` payloads, which are compared between
the fast path and the reference, and across changes.
"""

from __future__ import annotations

import json

from repro.api import Experiment
from repro.cli import main
from repro.core.executor import clear_shared_caches
from repro.dist import PlanCacheServer
from repro.sim.events import EventKind
from repro.sim.kernel import SimKernel
from repro.utils import plancache


class TestKernelTimings:
    def test_timings_cover_exactly_the_processed_kinds(self):
        kernel = SimKernel()
        seen = []
        kernel.on(EventKind.JOB_ARRIVAL, seen.append)
        kernel.on(EventKind.JOB_COMPLETION, seen.append)
        kernel.schedule(1.0, EventKind.JOB_ARRIVAL, job_id="a")
        kernel.schedule(2.0, EventKind.JOB_COMPLETION, job_id="a", executor_index=0)
        kernel.schedule(3.0, EventKind.JOB_ARRIVAL, job_id="b")
        kernel.run()
        stats = kernel.stats()
        assert set(stats.timings_by_kind) == set(stats.events_by_kind)
        assert all(seconds >= 0.0 for seconds in stats.timings_by_kind.values())
        assert stats.events_by_kind == {"job_arrival": 2, "job_completion": 1}

    def test_scenario_results_carry_timings(self):
        result = Experiment.from_yaml("scenarios/smoke.yaml").run().raw
        assert set(result.timings_by_kind) == set(result.events_by_kind)
        assert sum(result.timings_by_kind.values()) > 0.0

    def test_default_to_dict_is_timing_free(self):
        result = Experiment.from_yaml("scenarios/smoke.yaml").run().raw
        assert "timings_by_kind" not in result.to_dict()
        with_timings = result.to_dict(include_timings=True)
        assert set(with_timings["timings_by_kind"]) == set(result.events_by_kind)
        # The timing block is strictly additive over the digest payload.
        stripped = dict(with_timings)
        stripped.pop("timings_by_kind")
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )


class TestProfileCommand:
    def test_profile_emits_per_kind_timings(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        exit_code = main(["profile", "scenarios/smoke.yaml", "--json", str(out)])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "job_arrival" in captured and "plan cache" in captured
        payload = json.loads(out.read_text())
        assert payload["scenario"] == "smoke"
        assert set(payload["timings_by_kind"]) == set(payload["events_by_kind"])
        assert payload["events_processed"] == sum(payload["events_by_kind"].values())
        assert payload["plan_cache"]["enabled"] is True

    def test_profile_respects_no_disk_cache(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        exit_code = main(
            ["profile", "scenarios/smoke.yaml", "--no-disk-cache", "--json", str(out)]
        )
        assert exit_code == 0
        assert json.loads(out.read_text())["plan_cache"]["enabled"] is False

    def test_profile_reports_a_degraded_cache(self, capsys, tmp_path):
        """The plan-cache line answers "did a cache degrade?": errors and
        quarantines always, and the remote tier's counters when one is
        attached."""
        cache = tmp_path / "cache"
        args = ["profile", "scenarios/smoke.yaml", "--cache-dir", str(cache)]
        try:
            clear_shared_caches()
            assert main(args) == 0
            log = cache / "estimates" / f"{plancache.code_fingerprint()}.log"
            lines = log.read_bytes().split(b"\n")[:-1]
            log.write_bytes(b"".join(line[:64] + b"garbage\n" for line in lines))
            clear_shared_caches()
            capsys.readouterr()
            assert main(args + ["--json", str(tmp_path / "p.json")]) == 0
            printed = capsys.readouterr().out
            stats = json.loads((tmp_path / "p.json").read_text())["plan_cache"]
            assert stats["errors"] == stats["quarantined"] == len(lines) > 0
            assert (
                f"plan cache ({cache}): 0 hit(s), {stats['misses']} miss(es), "
                f"{stats['writes']} write(s), {len(lines)} error(s), "
                f"{len(lines)} quarantined\n"
            ) in printed

            fresh = tmp_path / "fresh"
            with PlanCacheServer() as server:
                clear_shared_caches()
                remote = ["--cache-dir", str(fresh), "--cache-url", server.url]
                assert main(args[:2] + remote) == 0
                printed = capsys.readouterr().out
            assert (
                f"plan cache ({fresh}): 0 hit(s), {stats['misses']} miss(es), "
                f"{stats['writes']} write(s), 0 error(s), 0 quarantined; "
                f"remote ({server.url}): 0 hit(s), {stats['misses']} miss(es), "
                "0 error(s)\n"
            ) in printed
        finally:
            plancache.configure(None, enabled=False)

    def test_run_json_includes_timings(self, tmp_path):
        out = tmp_path / "result.json"
        assert main(["run", "scenarios/smoke.yaml", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["timings_by_kind"]) == set(payload["events_by_kind"])


class TestEnvironmentStamps:
    def test_profile_trace_is_perfetto_loadable(self, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["profile", "scenarios/smoke.yaml", "--trace", str(out)])
        assert code == 0
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["otherData"]["kernel_backend"] == "heapq"
        kinds = {
            e["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] != 0
        }
        assert "job_arrival" in kinds
        run_slices = [
            e
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] == 0 and e["name"] == "run"
        ]
        assert len(run_slices) == 1
        assert run_slices[0]["args"]["events_processed"] > 0
