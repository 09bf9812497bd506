"""Tests for the persistent cross-process plan/estimate cache.

The cache must be invisible except for speed: a disk hit decodes a
data-only record carrying exactly the floats a fresh plan search would
compute, so results stay bit-identical; corrupt, tampered or foreign
records -- and any entry that is not a record at all, such as a pickle
-- degrade to counted, quarantined misses and never run code; every
process appends to one log per cache directory, and concurrent or forked
writers never tear each other's lines; and the library default is *off*
so nothing touches the filesystem unless the CLI (or a test) opts in.
Logs copied or concatenated from other machines are read like any other.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import shutil
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, result_digest
from repro.core.executor import FillJobExecutor, clear_shared_caches
from repro.core.system import PipeFillSystem
from repro.exec import ChaosPlan
from repro.models.configs import JobType
from repro.models.registry import build_model
from repro.pipeline.bubbles import BubbleCycle
from repro.pipeline.parallelism import ParallelConfig
from repro.utils import plancache
from repro.utils.units import GIB
from repro.workloads.generator import build_fill_job_trace


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


def the_log(cache_dir):
    name = plancache.code_fingerprint() + plancache.LOG_SUFFIX
    return cache_dir / "estimates" / name


def lines_of(cache_dir, key):
    """``(offset, record)`` of every line for ``key`` in the log, in file
    order: where the line starts, and its bytes after the entry digest,
    newline excluded."""
    digest = plancache._entry_digest(key).encode()
    found, offset = [], 0
    for line in the_log(cache_dir).read_bytes().split(b"\n")[:-1]:
        if line[:64] == digest:
            found.append((offset, line[64:]))
        offset += len(line) + 1
    return found


def set_record(cache_dir, key, record: bytes) -> None:
    """Put ``record`` on the first line for ``key``, in the same file."""
    log = the_log(cache_dir)
    data = log.read_bytes()
    offset, old = lines_of(cache_dir, key)[0]
    start = offset + 64
    log.write_bytes(data[:start] + record + data[start + len(old) :])


def estimate_key(model, job_type=JobType.BATCH_INFERENCE):
    return make_executor()._disk_key(model, job_type)


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


def spawned_writer(directory: str, worker: int) -> None:
    """Put 100 shared and 100 own keys into ``directory``, reading the log
    between writes (the body of one concurrent-writer process)."""
    plancache.configure(directory)
    for i in range(100):
        plancache.put(("shared", str(i)), {"shared": i})
        plancache.put(("own", str(worker), str(i)), {"worker": worker, "i": i})
        assert plancache.get(("own", str(worker), str(i))) == (
            True,
            {"worker": worker, "i": i},
        )
        neighbour = ("own", str((worker + 1) % 4), str(i))
        hit, value = plancache.get(neighbour)
        assert not hit or value == {"worker": (worker + 1) % 4, "i": i}
    assert plancache.stats()["errors"] == 0


def forked_writer(fd: int) -> None:
    """Put 20 keys through the log descriptor inherited from the parent."""
    for i in range(20):
        plancache.put(("child", str(i)), {"child": i})
    assert plancache._log is not None and plancache._log._fd == fd
    assert plancache.stats()["errors"] == 0


def log_line(key, value) -> bytes:
    """The log line the cache writes for ``key`` and ``value``."""
    return plancache._entry_digest(key).encode() + plancache._encode(value) + b"\n"


#: JSON text that exercises escaping: raw newlines, carriage returns,
#: quotes, backslashes and the Unicode line separators.
JSON_TEXT = st.text() | st.text(alphabet="a\n\r\"\\\u2028\u0085")
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=12,
)


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
        log = the_log(cache_dir)
        lines = log.read_bytes().split(b"\n")[:-1]
        assert lines
        log.write_bytes(b"".join(line[:64] + b"not a record\n" for line in lines))
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        estimate = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert estimate is not None  # recomputed despite the corrupt records
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["errors"] >= 1 and stats["writes"] >= 1

    def test_truncated_entry_is_quarantined_and_rewritten(self, cache_dir):
        """A record cut short in place must quarantine, then self-heal.

        The live record keeps its first 8 bytes and the rest of its line
        becomes filler -- the bit-rot case the ``truncate-cache`` chaos
        injector simulates -- and the next lookup must (a) miss, (b)
        count a quarantine and leave the bad bytes in the log, (c)
        recompute the identical estimate and (d) append it, so a fresh
        view hits again without quarantining anything.
        """
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        key = estimate_key(model)
        ((_, record),) = lines_of(cache_dir, key)
        bad = record[:8] + b"#" * (len(record) - 8)
        set_record(cache_dir, key, bad)
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        healed = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["quarantined"] >= 1 and stats["errors"] >= 1
        assert healed.samples_per_cycle == fresh.samples_per_cycle
        assert healed.flops_per_cycle == fresh.flops_per_cycle
        # The corpse stays in the log, byte for byte, ahead of the healed line...
        assert [r for _, r in lines_of(cache_dir, key)] == [bad, record]
        # ...and a fresh view skips it and hits.
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["hits"] >= 1 and stats["quarantined"] == 0

    def test_torn_last_line_is_neither_served_nor_counted(self, cache_dir):
        """A log cut inside its last line (a crashed writer) holds a partial
        line, which looks exactly like a write in flight: the lookup
        recomputes without counting an error, and the healed line lands
        after the torn one, so a fresh view hits."""
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        key = estimate_key(model)
        log = the_log(cache_dir)
        ((offset, record),) = lines_of(cache_dir, key)
        assert offset + 64 + len(record) + 1 == log.stat().st_size  # the last line
        os.truncate(log, offset + 64 + len(record) // 2)
        clear_shared_caches()
        plancache.reset_stats()
        healed = make_executor().build_estimate(
            build_model("bert-base"), JobType.BATCH_INFERENCE
        )
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1 and stats["writes"] == 1
        assert stats["errors"] == 0 and stats["quarantined"] == 0
        assert healed == fresh
        assert lines_of(cache_dir, key)[-1][1] == record
        clear_shared_caches()
        plancache.reset_stats()
        again = make_executor().build_estimate(
            build_model("bert-base"), JobType.BATCH_INFERENCE
        )
        stats = plancache.stats()
        assert stats["hits"] == 1 and stats["errors"] == 0 and again == fresh

    def test_transient_read_error_is_a_miss_and_keeps_the_entry(
        self, cache_dir, monkeypatch
    ):
        """An I/O error reading the log (here EIO) says nothing about the
        entry's bytes: it is a counted miss, the log stays as it was, and
        the next lookup reads it again and hits."""
        key = ("namespace", "model", "job")
        plancache.put(key, {"samples": 1.5})
        log = the_log(cache_dir)
        blob = log.read_bytes()
        clear_shared_caches()  # a new process: the lookup must read the log

        def failing(fd, length, offset):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(plancache.os, "pread", failing)
        plancache.reset_stats()
        assert plancache.get(key) == (False, None)
        stats = plancache.stats()
        assert stats["misses"] == 1 and stats["errors"] == 1
        assert stats["quarantined"] == 0
        monkeypatch.undo()  # the fault clears
        assert log.read_bytes() == blob

        assert plancache.get(key) == (True, {"samples": 1.5})
        assert plancache.stats()["hits"] == 1

    def test_disabled_by_default(self, tmp_path):
        plancache.configure(None, enabled=False)
        plancache.reset_stats()
        model = build_model("bert-base")
        clear_shared_caches()
        make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        assert plancache.stats()["writes"] == 0
        assert not list(tmp_path.glob(f"**/*{plancache.LOG_SUFFIX}"))

    def test_stats_hold_exactly_the_log_counters(self, cache_dir):
        assert set(plancache.stats()) == {
            "hits",
            "misses",
            "writes",
            "errors",
            "quarantined",
        }

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


class TestSharedLog:
    """One append-only log per cache directory: every process appends
    whole lines with one write and indexes what it reads."""

    def test_one_file_holds_every_entry(self, cache_dir):
        for i in range(64):
            plancache.put(("one-file", str(i)), {"i": i})
        assert [p.name for p in (cache_dir / "estimates").iterdir()] == [
            the_log(cache_dir).name
        ]
        clear_shared_caches()
        plancache.reset_stats()
        for i in range(64):
            assert plancache.get(("one-file", str(i))) == (True, {"i": i})
        assert plancache.stats()["hits"] == 64

    def test_concurrent_spawned_writers_never_tear_a_line(self, cache_dir):
        """Four spawned processes -- more than the host's cores -- write
        overlapping and private keys into one log while reading it."""
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=spawned_writer, args=(str(cache_dir), worker))
            for worker in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
        clear_shared_caches()
        plancache.reset_stats()
        for i in range(100):
            assert plancache.get(("shared", str(i))) == (True, {"shared": i})
            for worker in range(4):
                assert plancache.get(("own", str(worker), str(i))) == (
                    True,
                    {"worker": worker, "i": i},
                )
        stats = plancache.stats()
        assert stats["hits"] == 500 and stats["errors"] == 0
        # Exactly the 800 records, none torn.  A reader that caught a write
        # in flight starts its next write with a newline, so the log may
        # also hold empty lines, and nothing else.
        data = the_log(cache_dir).read_bytes()
        assert data.endswith(b"\n")
        records = [line for line in data.split(b"\n") if line]
        assert len(records) == 800
        for line in records:
            assert re.fullmatch(rb"[0-9a-f]{64}", line[:64])
            plancache._decode(line[64:], plancache._plain)

    def test_forked_child_appends_through_the_inherited_descriptor(self, cache_dir):
        plancache.put(("parent",), {"who": "parent"})
        fd = plancache._log._fd
        child = multiprocessing.get_context("fork").Process(
            target=forked_writer, args=(fd,)
        )
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        expected = log_line(("parent",), {"who": "parent"}) + b"".join(
            log_line(("child", str(i)), {"child": i}) for i in range(20)
        )
        assert the_log(cache_dir).read_bytes() == expected
        clear_shared_caches()
        plancache.reset_stats()
        for i in range(20):
            assert plancache.get(("child", str(i))) == (True, {"child": i})
        assert plancache.stats()["errors"] == 0

    def test_a_failed_line_is_dropped_and_never_retried(self, cache_dir):
        key = ("dropped",)
        plancache.put(key, {"v": 1})
        set_record(cache_dir, key, b"not a record")
        clear_shared_caches()
        plancache.reset_stats()
        assert plancache.get(key) == (False, None)
        assert plancache.get(key) == (False, None)  # not decoded again
        stats = plancache.stats()
        assert stats["misses"] == 2
        assert stats["errors"] == 1 and stats["quarantined"] == 1
        plancache.put(key, {"v": 1})  # the healed line is read on the next lookup
        assert plancache.get(key) == (True, {"v": 1})
        assert plancache.stats()["quarantined"] == 1

    def test_deleted_log_is_dropped_and_the_next_write_opens_a_new_one(
        self, cache_dir
    ):
        plancache.put(("a",), 1)
        assert plancache.get(("a",)) == (True, 1)
        shutil.rmtree(cache_dir)  # `rm -rf` under a live process
        plancache.reset_stats()
        assert plancache.get(("b",)) == (False, None)
        plancache.put(("b",), 2)
        stats = plancache.stats()
        assert stats["writes"] == 1 and stats["errors"] == 0
        assert the_log(cache_dir).read_bytes() == log_line(("b",), 2)
        clear_shared_caches()
        assert plancache.get(("b",)) == (True, 2)
        assert plancache.get(("a",)) == (False, None)

    def test_shrunk_log_is_indexed_again_from_the_start(self, cache_dir):
        plancache.put(("a",), "a" * 100)
        plancache.put(("b",), "b" * 100)
        assert plancache.get(("a",)) == (True, "a" * 100)  # read to the end
        os.truncate(the_log(cache_dir), 0)
        plancache.put(("c",), "c")
        plancache.reset_stats()
        assert plancache.get(("c",)) == (True, "c")
        assert plancache.get(("a",)) == (False, None)
        assert plancache.stats()["errors"] == 0

    def test_concatenated_logs_share_plans(self, cache_dir, tmp_path):
        """Plans cross machines as files.  Two machines write disjoint keys;
        the first machine's log is cut inside its last record, and the two
        logs are concatenated (as ``cat`` does) into a third directory.
        Every key hits there except two: the torn key, whose line now ends
        with the second log's first line, and that swallowed first key.
        The glued line fails its digest: one quarantine, one error."""
        first, second, third = tmp_path / "m1", tmp_path / "m2", tmp_path / "m3"
        values = {}
        for directory in (first, second):
            plancache.configure(directory)
            for i in range(8):
                key = (directory.name, str(i))
                values[key] = {"machine": directory.name, "i": i}
                plancache.put(key, values[key])
        torn, swallowed = (first.name, "7"), (second.name, "0")
        ((offset, record),) = lines_of(first, torn)
        assert offset + 64 + len(record) + 1 == the_log(first).stat().st_size
        os.truncate(the_log(first), offset + 64 + len(record) // 2)
        the_log(third).parent.mkdir(parents=True)
        the_log(third).write_bytes(
            the_log(first).read_bytes() + the_log(second).read_bytes()
        )

        plancache.configure(third)
        plancache.reset_stats()
        missed = [key for key in values if plancache.get(key) != (True, values[key])]
        assert missed == [torn, swallowed]
        stats = plancache.stats()
        assert stats["hits"] == len(values) - 2 and stats["misses"] == 2
        assert stats["quarantined"] == 1 and stats["errors"] == 1

    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES)
    def test_a_record_never_holds_a_newline(self, value):
        """The newline frames log lines, so no record may contain one."""
        assert b"\n" not in plancache._encode(value)


class TestRecordsAreData:
    """Entries are validated data: nothing in one can run code or slip an
    estimate past the checks a fresh search would satisfy."""

    def test_pickled_entry_never_runs_code(self, cache_dir):
        model = build_model("bert-base")
        clear_shared_caches()
        executor = make_executor()
        fresh = executor.build_estimate(model, JobType.BATCH_INFERENCE)
        key = executor._disk_key(model, JobType.BATCH_INFERENCE)
        set_record(cache_dir, key, pickle.dumps(Exploit()))
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
        key = estimate_key(model)
        ((_, blob),) = lines_of(cache_dir, key)
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
        set_record(cache_dir, key, bad)
        clear_shared_caches()
        plancache.reset_stats()
        model = build_model("bert-base")
        healed = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        stats = plancache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 1
        assert stats["errors"] == 1 and stats["quarantined"] == 1
        assert healed == fresh
        assert stats["writes"] == 1 and lines_of(cache_dir, key)[-1][1] == blob
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
        """The ``truncate-cache`` injector must find the live records and cut
        one in place; the lookup after it quarantines the victim and
        recomputes the same estimate."""
        model = build_model("bert-base")
        clear_shared_caches()
        fresh = make_executor().build_estimate(model, JobType.BATCH_INFERENCE)
        key = estimate_key(model)
        ((_, record),) = lines_of(cache_dir, key)
        size = the_log(cache_dir).stat().st_size
        ChaosPlan.build("truncate-cache").maybe_inject("point-0", 1)
        ((_, cut),) = lines_of(cache_dir, key)
        assert cut[:8] == record[:8] and cut[8:] != record[8:]
        assert len(cut) == len(record) and the_log(cache_dir).stat().st_size == size
        clear_shared_caches()
        plancache.reset_stats()
        healed = make_executor().build_estimate(
            build_model("bert-base"), JobType.BATCH_INFERENCE
        )
        stats = plancache.stats()
        assert stats["quarantined"] == 1 and stats["hits"] == 0
        assert healed == fresh
        assert lines_of(cache_dir, key)[-1][1] == record  # appended again


class TestScenarioEquivalence:
    def test_warm_disk_cache_preserves_results(self, cache_dir):
        spec = Experiment.from_yaml("scenarios/smoke.yaml").validate()
        clear_shared_caches()
        plancache.configure(None, enabled=False)
        reference = Experiment.from_spec(spec).run().raw.to_dict()
        # Cold run with the disk cache on: populates it.
        plancache.configure(cache_dir, enabled=True)
        clear_shared_caches()
        plancache.reset_stats()
        cold = Experiment.from_spec(spec).run().raw.to_dict()
        stats = plancache.stats()
        assert stats["writes"] > 0 and stats["hits"] == 0
        # Warm run: every estimate comes from disk, results still identical.
        clear_shared_caches()
        plancache.reset_stats()
        warm = Experiment.from_spec(spec).run().raw.to_dict()
        stats = plancache.stats()
        assert stats["hits"] > 0 and stats["misses"] == 0
        assert json.dumps(cold, sort_keys=True) == json.dumps(reference, sort_keys=True)
        assert json.dumps(warm, sort_keys=True) == json.dumps(reference, sort_keys=True)


class TestBenchWarmPath:
    def test_second_bench_run_hits_the_disk_cache(self, cache_dir):
        """Two one-tenant runs, each starting with cold in-process caches as
        two benchmark invocations do: the second reads every estimate from
        disk and reproduces the first's result."""

        def run():
            clear_shared_caches()
            plancache.reset_stats()
            system = PipeFillSystem(
                build_model("gpt-5b"),
                ParallelConfig(
                    tensor_parallel=1, pipeline_stages=8, data_parallel=2,
                    microbatch_size=2, global_batch_size=32,
                ),
            )
            jobs = build_fill_job_trace(1800.0, arrival_rate_per_hour=300, seed=3)
            report = system.run(jobs, horizon_seconds=1800.0)
            return result_digest(report.simulation.to_dict()), plancache.stats()

        cold_digest, cold = run()
        assert cold["writes"] > 0 and cold["hits"] == 0
        warm_digest, warm = run()
        assert warm["hits"] > 0 and warm["misses"] == 0
        assert warm_digest == cold_digest

