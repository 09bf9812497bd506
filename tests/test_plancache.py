"""Tests for the persistent cross-process plan/estimate cache.

The cache must be invisible except for speed: a disk hit returns a
pickle round-trip of exactly what a fresh plan search would compute, so
results stay bit-identical; corrupt entries degrade to misses; and the
library default is *off* so nothing touches the filesystem unless the
CLI (or a test) opts in.
"""

from __future__ import annotations

import json

import pytest

from repro.core.executor import FillJobExecutor, clear_shared_caches
from repro.models.configs import JobType
from repro.models.registry import build_model
from repro.pipeline.bubbles import BubbleCycle
from repro.sim.scenario import load_scenario, run_scenario
from repro.utils import plancache
from repro.utils.units import GIB


@pytest.fixture()
def cache_dir(tmp_path):
    d = tmp_path / "plan-cache"
    plancache.configure(d, enabled=True)
    plancache.reset_stats()
    yield d
    plancache.configure(None, enabled=False)


def make_executor():
    cycle = BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0)
    return FillJobExecutor(cycle)


class TestEstimateRoundTrip:
    def test_miss_writes_then_cold_process_hits(self, cache_dir):
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["writes"] >= 1 and stats["hits"] == 0
        # A "new process": in-memory shared caches dropped, disk kept.
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")  # registry rebuilt too
        loaded = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert plancache.stats()["hits"] == 1
        assert loaded is not fresh  # genuinely deserialized
        assert loaded.samples_per_cycle == fresh.samples_per_cycle
        assert loaded.flops_per_cycle == fresh.flops_per_cycle
        assert loaded.cycle_period == fresh.cycle_period
        assert loaded.isolated_samples_per_second == fresh.isolated_samples_per_second

    def test_infeasible_none_is_cached(self, cache_dir):
        model = build_model("xlm-roberta-xl")  # far too big for a tiny bubble
        tiny = FillJobExecutor(
            BubbleCycle.from_durations([0.2], 0.25 * GIB, period=4.0)
        )
        clear_shared_caches()
        assert tiny.build_estimate(model, JobType.TRAINING) is None
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("xlm-roberta-xl")
        tiny = FillJobExecutor(
            BubbleCycle.from_durations([0.2], 0.25 * GIB, period=4.0)
        )
        assert tiny.build_estimate(model, JobType.TRAINING) is None
        assert plancache.stats()["hits"] == 1

    def test_corrupt_entry_degrades_to_miss(self, cache_dir):
        model = build_model("bert-base")
        clear_shared_caches()
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        entries = list((cache_dir / "estimates").glob("*.pkl"))
        assert entries
        for path in entries:
            path.write_bytes(b"not a pickle")
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        estimate = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert estimate is not None  # recomputed despite the corrupt files
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["errors"] >= 1 and stats["writes"] >= 1

    def test_truncated_entry_is_quarantined_and_rewritten(self, cache_dir):
        """A torn write (truncated pickle) must quarantine, then self-heal.

        The live entry is truncated in place -- the crash-mid-write /
        bit-rot case the ``truncate-cache`` chaos injector simulates --
        and the next lookup must (a) miss, (b) move the corpse to
        ``<name>.pkl.corrupt``, (c) recompute the identical estimate and
        (d) rewrite the entry so the lookup after that hits again.
        """
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        entries = list((cache_dir / "estimates").glob("*.pkl"))
        assert entries
        for path in entries:
            with open(path, "r+b") as fh:
                fh.truncate(8)
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        healed = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["quarantined"] >= 1 and stats["errors"] >= 1
        assert healed.samples_per_cycle == fresh.samples_per_cycle
        assert healed.flops_per_cycle == fresh.flops_per_cycle
        corpses = list((cache_dir / "estimates").glob("*.pkl.corrupt"))
        assert corpses, "corrupt entry was not moved aside"
        # The quarantined file really is the truncated one...
        assert all(c.stat().st_size == 8 for c in corpses)
        # ...and the healthy path was rewritten: a fresh process hits.
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["hits"] >= 1 and stats["quarantined"] == 0

    def test_transient_read_error_is_a_miss_and_keeps_the_entry(
        self, cache_dir, monkeypatch
    ):
        """An I/O error (here EMFILE) says nothing about the entry's bytes:
        it is a counted miss, the file stays put, and the next lookup hits."""
        import errno

        key = ("namespace", "model", "job")
        plancache.put(key, {"samples": 1.5})
        (entry,) = (cache_dir / "estimates").glob("*.pkl")
        blob = entry.read_bytes()

        def exhausted(path, *args, **kwargs):
            raise OSError(errno.EMFILE, "Too many open files", str(path))

        monkeypatch.setattr(plancache, "open", exhausted, raising=False)
        plancache.reset_stats()
        assert plancache.get(key) == (False, None)
        stats = plancache.stats()
        assert stats["misses"] == 1 and stats["errors"] == 1
        assert stats["quarantined"] == 0
        assert entry.read_bytes() == blob
        assert not list((cache_dir / "estimates").glob("*.corrupt"))

        monkeypatch.delattr(plancache, "open")  # the fault clears
        assert plancache.get(key) == (True, {"samples": 1.5})
        assert plancache.stats()["hits"] == 1

    def test_disabled_by_default(self, tmp_path):
        plancache.configure(None, enabled=False)
        plancache.reset_stats()
        model = build_model("bert-base")
        clear_shared_caches()
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert plancache.stats()["writes"] == 0
        assert not list(tmp_path.glob("**/*.pkl"))

    def test_code_fingerprint_gates_every_entry(self, cache_dir, monkeypatch):
        """Entries written by different *code* must never be served.

        The fingerprint hashes the estimate-relevant source tree, so a
        warm cache restored onto changed code (CI restore-keys) becomes
        all-miss instead of returning stale plans.
        """
        model = build_model("bert-base")
        clear_shared_caches()
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert plancache.stats()["writes"] >= 1
        # Simulate "same cache dir, different code": flip the fingerprint.
        monkeypatch.setattr(plancache, "_code_fingerprint", "0" * 16)
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["misses"] >= 1

    def test_distinct_inputs_never_collide(self, cache_dir):
        model = build_model("bert-base")
        clear_shared_caches()
        a = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        other = FillJobExecutor(
            BubbleCycle.from_durations([0.9, 2.1], 3.0 * GIB, period=5.0)
        )
        b = other.build_estimate(model, JobType.BATCH_INFERENCE)
        assert a.cycle_period != b.cycle_period
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        again = FillJobExecutor(
            BubbleCycle.from_durations([0.9, 2.1], 3.0 * GIB, period=5.0)
        ).build_estimate(model, JobType.BATCH_INFERENCE)
        assert plancache.stats()["hits"] == 1
        assert again.cycle_period == b.cycle_period


class TestScenarioEquivalence:
    def test_warm_disk_cache_preserves_results(self, cache_dir):
        spec = load_scenario("scenarios/smoke.yaml")
        clear_shared_caches()
        plancache.configure(None, enabled=False)
        reference = run_scenario(spec).to_dict()
        # Cold run with the disk cache on: populates it.
        plancache.configure(cache_dir, enabled=True)
        clear_shared_caches()
        cold = run_scenario(spec).to_dict()
        assert plancache.stats()["writes"] > 0
        # Warm run: estimates come from disk, results still identical.
        clear_shared_caches()
        plancache.reset_stats()
        warm = run_scenario(spec).to_dict()
        assert plancache.stats()["hits"] > 0
        assert json.dumps(cold, sort_keys=True) == json.dumps(reference, sort_keys=True)
        assert json.dumps(warm, sort_keys=True) == json.dumps(reference, sort_keys=True)


class TestBenchWarmPath:
    def test_second_bench_run_hits_the_disk_cache(self, cache_dir):
        from repro.bench.harness import BenchCase, run_case
        from repro.bench.workloads import SIZES

        case = BenchCase("single_tenant", SIZES["smoke"], multi_tenant=False, preemption=False)
        cold = run_case(case)
        assert cold.plan_cache["writes"] > 0 and cold.plan_cache["hits"] == 0
        warm = run_case(case)  # same invocation shape as a second `repro bench`
        assert warm.plan_cache["hits"] > 0 and warm.plan_cache["misses"] == 0
        assert warm.result_digest == cold.result_digest
