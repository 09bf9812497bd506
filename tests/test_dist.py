"""Sharded sweeps and partial-result merging.

The distribution layer's whole contract is *exactness*: sharding is an
exact cover of the grid (hypothesis-checked for arbitrary grids and
shard counts), and merged partials are byte-identical to the unsharded
sweep (checked for every shipped scenario at N=2 and N=4).  Sharing
plans across machines by concatenating plan-cache logs is tested in
``tests/test_plancache.py``; here, that a pickle in a peer's log never
runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, ScenarioError, validate_sweep_payload
from repro.dist import (
    MergeError,
    journal_to_partial_payload,
    load_partial,
    merge_sweep_payloads,
    shard,
    shard_keys,
)
from repro.exec.journal import content_digest
from repro.utils import plancache

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


# -- plans from other machines -----------------------------------------------------

#: Calls made by unpickling :class:`_Exploit`.
_SIDE_EFFECTS: list = []


def _side_effect() -> None:
    _SIDE_EFFECTS.append("ran")


class _Exploit:
    """A pickle that calls :func:`_side_effect` when loaded."""

    def __reduce__(self):
        return (_side_effect, ())


class TestTieredPlancache:
    """A machine's plan cache has one tier, its own log; plans from another
    machine arrive as that machine's log, concatenated onto it."""

    KEY = ("test", "tier", "alpha")

    def test_remote_pickle_never_runs_code(self, tmp_path, restore_plancache):
        """A peer can write any bytes under any key into the log it hands
        over, even behind a matching body digest; a pickle there must
        neither run nor be served, and looking it up writes nothing."""
        import hashlib
        import pickle

        blob = pickle.dumps(_Exploit())
        peer_line = (
            plancache._entry_digest(self.KEY).encode()
            + hashlib.sha256(blob).hexdigest().encode()
            + blob
            + b"\n"
        )
        assert peer_line.count(b"\n") == 1  # one whole line of the peer's log

        local = tmp_path / "local"
        plancache.configure(local)
        plancache.put(("own",), {"plan": 1})
        name = plancache.code_fingerprint() + plancache.LOG_SUFFIX
        log = local / "estimates" / name
        with open(log, "ab") as out:  # `cat peer.log >> local.log`
            out.write(peer_line)
        before = log.read_bytes()

        _SIDE_EFFECTS.clear()
        plancache.configure(local)  # read the log as a new process would
        plancache.reset_stats()
        assert plancache.get(self.KEY) == (False, None)
        assert plancache.get(("own",)) == (True, {"plan": 1})
        assert _SIDE_EFFECTS == []
        stats = plancache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["errors"] == 1 and stats["quarantined"] == 1
        assert log.read_bytes() == before, "a lookup wrote to the log"


# -- CLI surface -------------------------------------------------------------------

_SMALL_SCENARIO = {
    "name": "dist-small",
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


@pytest.fixture
def restore_plancache():
    saved = (plancache.cache_dir(), plancache.is_enabled())
    yield
    directory, enabled = saved
    plancache.configure(directory, enabled=enabled)
    plancache.reset_stats()


class TestCliDist:
    def _write_scenario(self, tmp_path) -> Path:
        path = tmp_path / "small.json"
        path.write_text(json.dumps(_SMALL_SCENARIO))
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
