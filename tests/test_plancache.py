"""Tests for the persistent cross-process plan/estimate cache.

The cache must be invisible except for speed: a disk hit decodes a
data-only record carrying exactly the floats a fresh plan search would
compute, so results stay bit-identical; corrupt, tampered or foreign
records -- and any entry that is not a record at all, such as a pickle
-- degrade to counted, quarantined misses and never run code; and the
library default is *off* so nothing touches the filesystem unless the
CLI (or a test) opts in.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment
from repro.core.executor import FillJobExecutor, clear_shared_caches
from repro.exec import ChaosPlan
from repro.models.configs import JobType
from repro.models.registry import build_model
from repro.pipeline.bubbles import BubbleCycle
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


def the_entry(cache_dir):
    (entry,) = (cache_dir / "estimates").glob(f"*{plancache.ENTRY_SUFFIX}")
    return entry


def frame(record) -> bytes:
    """A record framed as the cache frames it, but NaN/Infinity allowed."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest().encode() + body


#: Calls made by unpickling :class:`Exploit`.
SIDE_EFFECTS: list = []


def side_effect() -> None:
    SIDE_EFFECTS.append("ran")


class Exploit:
    """A pickle that calls :func:`side_effect` when loaded."""

    def __reduce__(self):
        return (side_effect, ())


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
        entries = list((cache_dir / "estimates").glob(f"*{plancache.ENTRY_SUFFIX}"))
        assert entries
        for path in entries:
            path.write_bytes(b"not a record")
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        estimate = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert estimate is not None  # recomputed despite the corrupt files
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["errors"] >= 1 and stats["writes"] >= 1

    def test_truncated_entry_is_quarantined_and_rewritten(self, cache_dir):
        """A torn write (truncated record) must quarantine, then self-heal.

        The live entry is truncated in place -- the crash-mid-write /
        bit-rot case the ``truncate-cache`` chaos injector simulates --
        and the next lookup must (a) miss, (b) move the corpse to
        ``<name>.rec.corrupt``, (c) recompute the identical estimate and
        (d) rewrite the entry so the lookup after that hits again.
        """
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        entries = list((cache_dir / "estimates").glob(f"*{plancache.ENTRY_SUFFIX}"))
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
        corpses = list(
            (cache_dir / "estimates").glob(f"*{plancache.ENTRY_SUFFIX}.corrupt")
        )
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
        (entry,) = (cache_dir / "estimates").glob(f"*{plancache.ENTRY_SUFFIX}")
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
        assert not list(tmp_path.glob(f"**/*{plancache.ENTRY_SUFFIX}"))

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


class TestRecordsAreData:
    """Entries are validated data: nothing in one can run code or slip an
    estimate past the checks a fresh search would satisfy."""

    def test_pickled_entry_never_runs_code(self, cache_dir):
        model = build_model("bert-base")
        clear_shared_caches()
        executor = make_executor()
        fresh = executor.build_estimate(model, JobType.BATCH_INFERENCE)
        key = executor._disk_key(model, JobType.BATCH_INFERENCE)
        the_entry(cache_dir).write_bytes(pickle.dumps(Exploit()))
        SIDE_EFFECTS.clear()
        plancache.reset_stats()
        assert plancache.get(key) == (False, None)
        assert SIDE_EFFECTS == []
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["errors"] == 1 and stats["quarantined"] == 1
        clear_shared_caches()
        healed = make_executor().build_estimate(
            build_model("bert-base"), JobType.BATCH_INFERENCE
        )
        assert healed == fresh and SIDE_EFFECTS == []

    @pytest.mark.parametrize(
        "case",
        [
            "stale-digest",
            "nan",
            "infinity",
            "negative",
            "int-typed",
            "wrong-model",
            "wrong-job-type",
            "not-a-candidate",
            "unknown-config-key",
            "other-cycle-period",
        ],
    )
    def test_malformed_record_is_quarantined_and_rewritten(self, cache_dir, case):
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        entry = the_entry(cache_dir)
        blob = entry.read_bytes()
        record = json.loads(blob[64:])
        assert frame(record) == blob  # the documented framing, byte for byte
        if case == "stale-digest":
            body = blob[64:].decode()
            i = next(i for i, c in enumerate(body) if c in "123456789")
            bad = blob[:64] + (body[:i] + str(int(body[i]) - 1) + body[i + 1 :]).encode()
        else:
            if case == "nan":
                record["samples_per_cycle"] = math.nan
            elif case == "infinity":
                record["flops_per_cycle"] = math.inf
            elif case == "negative":
                record["used_bubble_seconds_per_cycle"] = -1.0
            elif case == "int-typed":
                record["isolated_samples_per_second"] = 3
            elif case == "wrong-model":
                record["model"] = "gpt-5b"
            elif case == "wrong-job-type":
                record["job_type"] = JobType.TRAINING.value
            elif case == "not-a-candidate":
                record["exec_config"]["batch_size"] = 3
            elif case == "unknown-config-key":
                record["exec_config"]["zero_stage"] = 3
            elif case == "other-cycle-period":
                record["cycle_period"] = 4.5
            bad = frame(record)
        entry.write_bytes(bad)
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        healed = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["errors"] == 1 and stats["quarantined"] == 1
        assert healed == fresh
        assert stats["writes"] == 1 and entry.read_bytes() == blob
        clear_shared_caches()
        plancache.reset_stats()
        again = make_executor().build_estimate(
            build_model("bert-base"), JobType.BATCH_INFERENCE
        )
        assert plancache.stats()["hits"] == 1 and again == fresh

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_finite_non_negative_floats_round_trip_bit_exactly(
        self, tmp_path_factory, value
    ):
        """Every float slot of a record carries any finite non-negative
        float through the disk bit for bit."""
        executor = make_executor()
        model = build_model("bert-base")
        job_type = JobType.BATCH_INFERENCE
        record = {
            "model": model.name,
            "job_type": job_type.value,
            "exec_config": {
                "batch_size": 8,
                "offload_optimizer": False,
                "offload_params": False,
                "offload_activations": False,
                "activation_checkpointing": False,
            },
            "samples_per_cycle": value,
            "flops_per_cycle": value,
            "used_bubble_seconds_per_cycle": value,
            "cycle_period": executor.cycle.period,
            "isolated_samples_per_second": value,
        }
        key = ("round-trip", model.name, job_type.value)
        plancache.configure(tmp_path_factory.mktemp("floats"), enabled=True)
        try:
            plancache.put(key, record)
            hit, estimate = plancache.get(
                key, lambda r: executor._from_record(model, job_type, r)
            )
        finally:
            plancache.configure(None, enabled=False)
        assert hit
        bits = struct.pack("<d", value)
        for name in (
            "samples_per_cycle",
            "flops_per_cycle",
            "used_bubble_seconds_per_cycle",
            "isolated_samples_per_second",
        ):
            assert struct.pack("<d", getattr(estimate, name)) == bits


class TestChaosTruncateCache:
    def test_injector_truncates_a_real_entry_which_heals(self, cache_dir):
        """The ``truncate-cache`` injector must find the live entries; the
        lookup after it quarantines the victim and recomputes the same
        estimate."""
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        entry = the_entry(cache_dir)
        ChaosPlan.build("truncate-cache").maybe_inject("point-0", 1)
        assert entry.stat().st_size == 8
        clear_shared_caches()
        plancache.reset_stats()
        healed = make_executor().build_estimate(
            build_model("bert-base"), JobType.BATCH_INFERENCE
        )
        stats = plancache.stats()
        assert stats["quarantined"] == 1 and stats["hits"] == 0
        assert healed == fresh
        assert entry.stat().st_size > 8  # rewritten


class TestScenarioEquivalence:
    def test_warm_disk_cache_preserves_results(self, cache_dir):
        spec = Experiment.from_yaml("scenarios/smoke.yaml").validate()
        clear_shared_caches()
        plancache.configure(None, enabled=False)
        reference = Experiment.from_spec(spec).run().raw.to_dict()
        # Cold run with the disk cache on: populates it.
        plancache.configure(cache_dir, enabled=True)
        clear_shared_caches()
        cold = Experiment.from_spec(spec).run().raw.to_dict()
        assert plancache.stats()["writes"] > 0
        # Warm run: estimates come from disk, results still identical.
        clear_shared_caches()
        plancache.reset_stats()
        warm = Experiment.from_spec(spec).run().raw.to_dict()
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
