"""Sharded sweeps, the plan-cache service, and partial-result merging.

The distribution layer's whole contract is *exactness*: sharding is an
exact cover of the grid (hypothesis-checked for arbitrary grids and
shard counts), merged partials are byte-identical to the unsharded sweep
(checked for every shipped scenario at N=2 and N=4), and the tiered plan
cache never changes results -- killing the cache server mid-workload
degrades to the local tier with identical digests, never to an error.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, ScenarioError, validate_sweep_payload
from repro.dist import (
    MergeError,
    PlanCacheServer,
    journal_to_partial_payload,
    load_partial,
    merge_sweep_payloads,
    shard,
    shard_keys,
)
from repro.dist import protocol
from repro.exec.journal import content_digest
from repro.utils import plancache
from repro.utils.plancache import RemoteCacheClient

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


# -- sharding ----------------------------------------------------------------------


class TestSharding:
    @given(
        keys=st.lists(st.text(min_size=1, max_size=40), max_size=60),
        num_shards=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_cover_of_any_grid(self, keys, num_shards):
        """Every key lands in exactly one shard, and grid order survives."""
        pieces = [shard_keys(keys, num_shards, i) for i in range(num_shards)]
        # Disjoint + complete: each grid position appears in exactly one
        # piece (keys may repeat -- count positions, not distinct keys).
        from collections import Counter

        combined = Counter()
        for piece in pieces:
            combined.update(piece)
        assert combined == Counter(keys)
        # Each piece preserves the grid's relative order.
        for piece in pieces:
            walker = iter(keys)
            assert all(key in walker for key in piece)

    @given(key=st.text(min_size=1), num_shards=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_shard_is_deterministic_and_in_range(self, key, num_shards):
        index = shard(key, num_shards)
        assert 0 <= index < num_shards
        assert shard(key, num_shards) == index

    def test_single_shard_owns_everything(self):
        assert shard("anything", 1) == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard("k", 0)


# -- wire protocol -----------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, b"hello \x00 world")
            assert protocol.recv_frame(b) == b"hello \x00 world"
            protocol.send_frame(b, b"")
            assert protocol.recv_frame(a) == b""
        finally:
            a.close()
            b.close()

    def test_clean_eof_reads_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_frame_is_refused(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(protocol.ProtocolError):
                protocol.send_frame(a, b"x" * (protocol.MAX_FRAME_BYTES + 1))
        finally:
            a.close()
            b.close()

    def test_put_encoding_round_trips(self):
        payload = protocol.encode_put("some/key", b"\x00blob\xff")
        assert payload[:1] == protocol.OP_PUT
        key, blob = protocol.decode_put(payload[1:])
        assert (key, blob) == ("some/key", b"\x00blob\xff")

    def test_get_encoding(self):
        payload = protocol.encode_get("abc")
        assert payload[:1] == protocol.OP_GET and payload[1:] == b"abc"

    @pytest.mark.parametrize(
        "url", ["127.0.0.1:9000", "tcp://127.0.0.1:9000", "repro://127.0.0.1:9000"]
    )
    def test_parse_url_accepts_schemes(self, url):
        assert protocol.parse_url(url) == ("127.0.0.1", 9000)

    @pytest.mark.parametrize("url", ["", "nohost", "host:notaport", "host:-1"])
    def test_parse_url_rejects_garbage(self, url):
        with pytest.raises(ValueError):
            protocol.parse_url(url)


# -- cache server + remote client --------------------------------------------------


class TestCacheServer:
    def test_get_put_round_trip_and_stats(self):
        with PlanCacheServer() as server:
            client = RemoteCacheClient(server.url)
            try:
                assert client.ping()
                status, _ = client.get("k1")
                assert status == "miss"
                assert client.put("k1", b"blob-1")
                status, blob = client.get("k1")
                assert (status, blob) == ("hit", b"blob-1")
                stats = client.server_stats()
            finally:
                client.close()
            assert stats["gets"] == 2 and stats["hits"] == 1
            assert stats["misses"] == 1 and stats["puts"] == 1
            assert stats["entries"] == 1

    def test_spool_survives_restart(self, tmp_path):
        spool = tmp_path / "spool"
        with PlanCacheServer(spool_dir=spool) as server:
            client = RemoteCacheClient(server.url)
            client.put("persistent", b"payload")
            client.close()
        with PlanCacheServer(spool_dir=spool) as server:
            client = RemoteCacheClient(server.url)
            try:
                assert client.get("persistent") == ("hit", b"payload")
            finally:
                client.close()
            # Answered from the spool: a hit, not a miss.
            stats = server.stats()
            assert stats["hits"] == 1 and stats["misses"] == 0

    def test_max_entries_bounds_memory(self):
        with PlanCacheServer(max_entries=2) as server:
            client = RemoteCacheClient(server.url)
            try:
                for i in range(5):
                    client.put(f"k{i}", b"x")
                stats = client.server_stats()
            finally:
                client.close()
            assert stats["entries"] <= 2

    def test_client_survives_dead_server(self):
        server = PlanCacheServer()
        server.start()
        url = server.url
        server.stop()
        client = RemoteCacheClient(url)
        try:
            # Silent degradation: errors, never exceptions.
            assert client.get("k") == ("error", b"")
            assert client.put("k", b"b") is False
            assert client.ping() is False
            assert client.dead  # circuit breaker opened after 3 failures
        finally:
            client.close()


# -- tiered plan cache -------------------------------------------------------------


@pytest.fixture
def restore_plancache():
    saved = (plancache.cache_dir(), plancache.is_enabled(), plancache.remote_url())
    yield
    directory, enabled, url = saved
    plancache.configure(directory, enabled=enabled, remote_url=url)
    plancache.reset_stats()


#: Calls made by unpickling :class:`_Exploit`.
_SIDE_EFFECTS: list = []


def _side_effect() -> None:
    _SIDE_EFFECTS.append("ran")


class _Exploit:
    """A pickle that calls :func:`_side_effect` when loaded."""

    def __reduce__(self):
        return (_side_effect, ())


class TestTieredPlancache:
    KEY = ("test", "tier", "alpha")

    def test_write_through_and_read_through(self, tmp_path, restore_plancache):
        with PlanCacheServer() as server:
            # Process 1: cold put writes through to both tiers.
            plancache.configure(tmp_path / "proc1", remote_url=server.url)
            plancache.reset_stats()
            plancache.put(self.KEY, {"plan": 42})
            assert plancache.stats()["writes"] == 1
            assert server.stats()["puts"] == 1

            # Process 2 (fresh local dir): local miss, remote hit,
            # write-back to the local tier.
            plancache.configure(tmp_path / "proc2", remote_url=server.url)
            plancache.reset_stats()
            hit, value = plancache.get(self.KEY)
            assert hit and value == {"plan": 42}
            stats = plancache.stats()
            assert stats["remote_hits"] == 1 and stats["remote_errors"] == 0

            # The write-back means the next read is purely local.
            plancache.reset_stats()
            hit, value = plancache.get(self.KEY)
            assert hit and value == {"plan": 42}
            stats = plancache.stats()
            assert stats["hits"] == 1 and stats["remote_hits"] == 0

    def test_remote_only_mode(self, tmp_path, restore_plancache):
        with PlanCacheServer() as server:
            plancache.configure(None, remote_url=server.url)
            plancache.reset_stats()
            assert plancache.is_enabled() and plancache.cache_dir() is None
            plancache.put(self.KEY, [1, 2, 3])
            hit, value = plancache.get(self.KEY)
            assert hit and value == [1, 2, 3]
            assert plancache.stats()["remote_hits"] == 1

    def test_dead_remote_degrades_to_local(self, tmp_path, restore_plancache):
        server = PlanCacheServer()
        server.start()
        url = server.url
        server.stop()
        plancache.configure(tmp_path / "local", remote_url=url)
        plancache.reset_stats()
        plancache.put(self.KEY, "value")  # local write still lands
        hit, value = plancache.get(self.KEY)
        assert hit and value == "value"
        stats = plancache.stats()
        assert stats["writes"] == 1 and stats["remote_errors"] >= 1

    def test_remote_miss_is_counted(self, tmp_path, restore_plancache):
        with PlanCacheServer() as server:
            plancache.configure(tmp_path / "local", remote_url=server.url)
            plancache.reset_stats()
            hit, _ = plancache.get(("never", "stored"))
            assert not hit
            stats = plancache.stats()
            assert stats["misses"] == 1 and stats["remote_misses"] == 1

    def test_remote_pickle_never_runs_code(self, tmp_path, restore_plancache):
        """A peer can push any blob under any key; a pickle must neither
        run on load nor reach the client's local disk."""
        import pickle

        local = tmp_path / "local"
        _SIDE_EFFECTS.clear()
        with PlanCacheServer() as server:
            peer = RemoteCacheClient(server.url)
            try:
                assert peer.put(
                    plancache._entry_digest(self.KEY), pickle.dumps(_Exploit())
                )
            finally:
                peer.close()
            plancache.configure(local, remote_url=server.url)
            plancache.reset_stats()
            assert plancache.get(self.KEY) == (False, None)
        assert _SIDE_EFFECTS == []
        stats = plancache.stats()
        assert stats["remote_hits"] == 0 and stats["remote_errors"] == 1
        assert stats["misses"] == 1
        assert not list(local.rglob("*")), "a rejected blob was written back"

    def test_stats_carry_remote_counters(self, restore_plancache):
        plancache.configure(None, enabled=False)
        stats = plancache.stats()
        for key in ("remote_hits", "remote_misses", "remote_errors"):
            assert key in stats


# -- merge bit-identity across every shipped scenario ------------------------------

#: Scenarios without a sweep block get this explicit grid.
_FALLBACK_GRID = {"parameter": "policy", "values": ["sjf", "fifo"]}

_SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))
_UNSHARDED: dict = {}


def _grid_kwargs(name: str) -> dict:
    doc = Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml").to_raw()
    return {} if doc.get("sweep") else _FALLBACK_GRID


def _unsharded_payload(name: str) -> dict:
    if name not in _UNSHARDED:
        exp = Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml")
        _UNSHARDED[name] = exp.sweep(workers=1, **_grid_kwargs(name)).to_dict()
    return _UNSHARDED[name]


class TestMergeBitIdentity:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("name", _SCENARIOS)
    def test_merged_shards_equal_unsharded(self, name, num_shards):
        reference = _unsharded_payload(name)
        exp = Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml")
        kwargs = _grid_kwargs(name)
        partials = []
        for index in range(num_shards):
            partial = exp.sweep(
                workers=1, shards=num_shards, shard_index=index, **kwargs
            ).to_dict()
            validate_sweep_payload(partial)
            assert partial["shard"] == {
                "index": index,
                "count": num_shards,
                "parameter": reference["sweep"][0]["parameter"],
                "grid_keys": [p["point_key"] for p in reference["sweep"]],
            }
            partials.append(partial)
        # Merge must not depend on the order partials arrive in.
        merged = merge_sweep_payloads(list(reversed(partials)))
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )


class TestShardedSweepApi:
    def test_invalid_shard_arguments(self):
        exp = Experiment.from_yaml(SCENARIO_DIR / "smoke.yaml")
        with pytest.raises(ScenarioError):
            exp.sweep(workers=1, shards=0, **_FALLBACK_GRID)
        with pytest.raises(ScenarioError):
            exp.sweep(workers=1, shards=2, shard_index=2, **_FALLBACK_GRID)
        with pytest.raises(ScenarioError):
            exp.sweep(workers=1, shards=2, shard_index=-1, **_FALLBACK_GRID)

    def test_empty_shard_partial_is_schema_valid(self):
        """A shard that owns zero grid points still emits a valid partial."""
        exp = Experiment.from_yaml(SCENARIO_DIR / "smoke.yaml")
        grid = dict(parameter="policy", values=["sjf"])
        partials = [
            exp.sweep(workers=1, shards=4, shard_index=i, **grid).to_dict()
            for i in range(4)
        ]
        owners = [p for p in partials if p["sweep"]]
        empties = [p for p in partials if not p["sweep"]]
        assert len(owners) == 1 and len(empties) == 3
        for partial in partials:
            validate_sweep_payload(partial)
        merged = merge_sweep_payloads(partials)
        assert len(merged["sweep"]) == 1


# -- merge from journals and merge validation --------------------------------------


def _fabricated_partials(num_shards=2, *, keys=("ka", "kb", "kc")):
    """Minimal synthetic shard partials over a made-up grid."""
    grid_keys = list(keys)
    sweep_id = content_digest(
        {"scenario": "fab", "parameter": "p", "points": grid_keys}
    )
    partials = []
    for index in range(num_shards):
        owned = [k for k in grid_keys if shard(k, num_shards) == index]
        partials.append(
            {
                "schema_version": 1,
                "scenario": "fab",
                "sweep": [
                    {"parameter": "p", "value": k, "point_key": k, "metric": 1.0}
                    for k in owned
                ],
                "sweep_id": sweep_id,
                "resumed_from": None,
                "attempts": {k: 1 for k in owned},
                "failed_points": [],
                "shard": {
                    "index": index,
                    "count": num_shards,
                    "parameter": "p",
                    "grid_keys": grid_keys,
                },
            }
        )
    return partials


class TestMergeValidation:
    def test_fabricated_partials_merge(self):
        merged = merge_sweep_payloads(_fabricated_partials())
        assert [e["point_key"] for e in merged["sweep"]] == ["ka", "kb", "kc"]
        assert merged["resumed_from"] is None and "shard" not in merged

    def test_unsharded_payload_is_refused(self):
        partial = _fabricated_partials(1)[0]
        del partial["shard"]
        with pytest.raises(MergeError, match="no 'shard' block"):
            merge_sweep_payloads([partial])

    def test_grid_digest_mismatch_is_refused(self):
        a = _fabricated_partials(2, keys=("ka", "kb", "kc"))
        b = _fabricated_partials(2, keys=("ka", "kb", "kd"))
        with pytest.raises(MergeError, match="grid digest mismatch"):
            merge_sweep_payloads([a[0], b[1]])

    def test_inconsistent_sweep_id_is_refused(self):
        partials = _fabricated_partials()
        partials[0]["sweep_id"] = "0" * 16
        with pytest.raises(MergeError, match="internally inconsistent"):
            merge_sweep_payloads(partials)

    def test_missing_shard_is_reported(self):
        partials = _fabricated_partials(3)
        with pytest.raises(MergeError, match=r"missing shard indices \[2\]"):
            merge_sweep_payloads(partials[:2])

    def test_overlapping_shards_are_refused(self):
        partials = _fabricated_partials(2)
        with pytest.raises(MergeError, match="overlapping shards"):
            merge_sweep_payloads([partials[0], partials[0], partials[1]])

    def test_interrupted_shard_is_named(self):
        partials = _fabricated_partials(2)
        victim = next(p for p in partials if p["sweep"])
        victim["sweep"].pop()
        with pytest.raises(MergeError, match="look interrupted"):
            merge_sweep_payloads(partials)

    def test_failed_points_merge_in_grid_order(self):
        partials = _fabricated_partials(2)
        victim = next(p for p in partials if p["sweep"])
        entry = victim["sweep"].pop(0)
        victim["failed_points"].append(
            {
                "parameter": "p",
                "value": entry["value"],
                "point_key": entry["point_key"],
                "attempts": 3,
                "kind": "crash",
                "error_type": "WorkerCrash",
                "message": "killed",
            }
        )
        victim["attempts"][entry["point_key"]] = 3
        merged = merge_sweep_payloads(partials)
        assert [f["point_key"] for f in merged["failed_points"]] == [
            entry["point_key"]
        ]
        assert merged["attempts"][entry["point_key"]] == 3

    def test_sources_name_inputs_in_errors(self):
        partials = _fabricated_partials(2)
        partials[0]["sweep_id"] = "bogus"
        with pytest.raises(MergeError, match="a.json"):
            merge_sweep_payloads(partials, sources=["a.json", "b.json"])

    def test_load_partial_rejects_missing_and_garbage(self, tmp_path):
        with pytest.raises(MergeError, match="no such merge input"):
            load_partial(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(MergeError, match="not valid JSON"):
            load_partial(bad)


class TestMergeFromJournals:
    def test_journal_partials_merge_bit_identically(self, tmp_path):
        """Killed-after-journaling shards merge without re-running."""
        name = "smoke"
        reference = _unsharded_payload(name)
        exp = Experiment.from_yaml(SCENARIO_DIR / f"{name}.yaml")
        partials = []
        for index in range(2):
            result = exp.sweep(
                workers=1,
                shards=2,
                shard_index=index,
                journal_dir=tmp_path,
                **_FALLBACK_GRID,
            )
            journal_dir = tmp_path / f"{result.sweep_id}-shard{index}of2"
            partial = load_partial(journal_dir)
            assert partial == journal_to_partial_payload(
                journal_dir / "journal.jsonl"
            )
            partials.append(partial)
        merged = merge_sweep_payloads(partials)
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_pre_sharding_journal_is_refused(self, tmp_path):
        from repro.exec.journal import SweepJournal

        journal = SweepJournal.for_sweep(tmp_path, "old")
        journal.start({"sweep_id": "old", "grid_digest": "g", "num_points": 1})
        journal.close()
        with pytest.raises(MergeError, match="predates sharded sweeps"):
            journal_to_partial_payload(journal.path)


# -- sweeps against the cache service ----------------------------------------------

_SERVICE_SCENARIO = {
    "name": "dist-service",
    "horizon_seconds": 600,
    "tenants": [
        {
            "name": "t0",
            "model": "gpt-5b",
            "parallel": {
                "tensor_parallel": 1,
                "pipeline_stages": 16,
                "data_parallel": 1,
                "microbatch_size": 2,
                "global_batch_size": 16,
            },
            "workload": {"arrival_rate_per_hour": 60, "models": ["bert-base"]},
        }
    ],
}


class TestSweepWithCacheService:
    def test_server_death_mid_workload_degrades_to_local(
        self, tmp_path, restore_plancache
    ):
        """Killing the cache server changes throughput, never results."""
        from repro.core.executor import clear_shared_caches

        grid = dict(parameter="tenants.0.parallel.microbatch_size", values=[1, 2])
        exp = Experiment.from_dict(json.loads(json.dumps(_SERVICE_SCENARIO)))

        clear_shared_caches()
        plancache.configure(tmp_path / "ref", enabled=True)
        reference = exp.sweep(workers=1, **grid)

        server = PlanCacheServer()
        server.start()
        clear_shared_caches()
        plancache.configure(tmp_path / "warm", remote_url=server.url)
        plancache.reset_stats()
        warm = exp.sweep(workers=1, **grid)
        assert warm.digest() == reference.digest()
        assert server.stats()["puts"] > 0

        # The server dies MID-sweep (after the first point completes);
        # the remaining points silently fall back to local tiers.
        clear_shared_caches()
        plancache.configure(tmp_path / "degraded", remote_url=server.url)
        plancache.reset_stats()
        killed = []

        def kill_server_once(message: str) -> None:
            if "completed" in message and not killed:
                server.stop()
                killed.append(True)

        degraded = exp.sweep(workers=1, log=kill_server_once, **grid)
        assert killed, "the kill hook never fired"
        assert degraded.digest() == reference.digest()
        stats = plancache.stats()
        assert stats["remote_errors"] >= 1
        assert json.dumps(degraded.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    def test_cross_run_remote_hits(self, tmp_path, restore_plancache):
        """A second 'machine' (fresh local dir) reads plans from the service."""
        from repro.core.executor import clear_shared_caches

        exp = Experiment.from_dict(json.loads(json.dumps(_SERVICE_SCENARIO)))
        with PlanCacheServer() as server:
            clear_shared_caches()
            plancache.configure(tmp_path / "m1", remote_url=server.url)
            plancache.reset_stats()
            first = exp.run()
            warm_writes = plancache.stats()["writes"]
            assert warm_writes > 0

            clear_shared_caches()
            plancache.configure(tmp_path / "m2", remote_url=server.url)
            plancache.reset_stats()
            second = exp.run()
            stats = plancache.stats()
        assert second.digest() == first.digest()
        assert stats["remote_hits"] > 0 and stats["remote_errors"] == 0


# -- CLI surface -------------------------------------------------------------------


class TestCliDist:
    def _write_scenario(self, tmp_path) -> Path:
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(_SERVICE_SCENARIO))
        return path

    def test_shard_flag_round_trips_through_merge(self, tmp_path, restore_plancache):
        from repro.cli import main

        plancache.configure(tmp_path / "cache", enabled=True)
        scenario = self._write_scenario(tmp_path)
        outputs = []
        for index in range(2):
            out = tmp_path / f"part{index}.json"
            code = main(
                [
                    "sweep",
                    str(scenario),
                    "--parameter",
                    "policy",
                    "--values",
                    "sjf,fifo",
                    "--workers",
                    "1",
                    "--shard",
                    f"{index}/2",
                    "--json",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out)
        merged_path = tmp_path / "merged.json"
        assert (
            main(["merge", *map(str, outputs), "--json", str(merged_path)]) == 0
        )
        merged = json.loads(merged_path.read_text())
        validate_sweep_payload(merged)
        assert "shard" not in merged and len(merged["sweep"]) == 2

    def test_merge_refuses_mismatched_grids(self, tmp_path, capsys):
        from repro.cli import main

        a, b = _fabricated_partials(2, keys=("ka", "kb", "kc"))
        b2 = _fabricated_partials(2, keys=("kx", "ky", "kz"))[1]
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b2))
        code = main(
            ["merge", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == 2
        assert "grid digest" in capsys.readouterr().err

    def test_bad_shard_spec_is_an_error(self, tmp_path):
        from repro.cli import main

        scenario = self._write_scenario(tmp_path)
        for spec in ["2", "a/b", "2/2", "0/0"]:
            code = main(
                [
                    "sweep",
                    str(scenario),
                    "--parameter",
                    "policy",
                    "--values",
                    "sjf",
                    "--shard",
                    spec,
                ]
            )
            assert code != 0, spec
