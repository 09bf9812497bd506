"""Tests for the static-analysis engine (``repro.analysis`` / ``repro lint``).

Per-rule positive/negative fixtures, the suppression layer (including
unused-suppression reporting), the JSON report schema, CLI exit codes, a
hypothesis never-crash property over generated fixture permutations, and
the pinned "self-run over src/ is clean" gate the acceptance criteria
require.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    LINT_SCHEMA_VERSION,
    Finding,
    LintReport,
    format_github,
    format_json,
    format_text,
    load_rules,
    run_lint,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def lint_tree(tmp_path, files, rules=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], root=str(tmp_path), rule_ids=rules)


def lint_digest_snippet(tmp_path, source, rules=None, relpath="sim/fixture.py"):
    """Lint one snippet placed in a digest-affecting location."""
    return lint_tree(tmp_path, {relpath: source}, rules=rules)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ---------------------------------------------------------------------------
# Determinism rules
# ---------------------------------------------------------------------------


class TestWallClock:
    def test_flags_time_time_in_digest_module(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(report) == ["wall-clock"]
        assert report.findings[0].path == "sim/fixture.py"
        assert report.findings[0].line == 4

    def test_flags_from_import_and_datetime(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            from time import monotonic
            import datetime

            def f():
                return monotonic(), datetime.datetime.now()
            """,
            rules=["wall-clock"],
        )
        assert rule_ids(report) == ["wall-clock", "wall-clock"]

    def test_perf_counter_is_allowed(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            import time

            def profile():
                return time.perf_counter(), time.perf_counter_ns()
            """,
            rules=["wall-clock"],
        )
        assert report.ok

    def test_non_digest_module_is_exempt(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {"exec/fixture.py": "import time\nNOW = time.time()\n"},
            rules=["wall-clock"],
        )
        assert report.ok


class TestUnseededRandom:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nx = random.random()\n",
            "import random\nr = random.Random()\n",
            "import os\nx = os.urandom(8)\n",
            "import uuid\nx = uuid.uuid4()\n",
            "import secrets\nx = secrets.token_hex()\n",
            "import numpy as np\nx = np.random.rand(3)\n",
            "import numpy as np\nr = np.random.default_rng()\n",
        ],
    )
    def test_positive(self, tmp_path, snippet):
        report = lint_digest_snippet(tmp_path, snippet, rules=["unseeded-random"])
        assert rule_ids(report) == ["unseeded-random"], snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nr = random.Random(7)\nx = r.random()\n",
            "import numpy as np\nr = np.random.default_rng(7)\n",
            "import random\nr = random.Random(seed=3)\n",
        ],
    )
    def test_negative(self, tmp_path, snippet):
        report = lint_digest_snippet(tmp_path, snippet, rules=["unseeded-random"])
        assert report.ok, snippet


class TestHashId:
    def test_flags_builtin_hash_and_id(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            "def key(obj):\n    return hash(obj), id(obj)\n",
            rules=["hash-id"],
        )
        assert rule_ids(report) == ["hash-id", "hash-id"]

    def test_shadowed_hash_is_not_the_builtin(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            from hashlib import sha256 as hash

            def key(obj):
                return hash(repr(obj).encode())
            """,
            rules=["hash-id"],
        )
        assert report.ok


class TestUnorderedIteration:
    @pytest.mark.parametrize(
        "snippet",
        [
            "s = {1, 2, 3}\nfor x in s:\n    print(x)\n",
            "out = [x for x in {1, 2}]\n",
            "s = set()\nout = list(s)\n",
            "def f(items):\n    s = frozenset(items)\n    return ','.join(s)\n",
            "def f():\n    s: set = set()\n    return [*s]\n",
            "s = {1} | {2}\nfor x in s:\n    pass\n",
        ],
    )
    def test_positive(self, tmp_path, snippet):
        report = lint_digest_snippet(
            tmp_path, snippet, rules=["unordered-iteration"]
        )
        assert "unordered-iteration" in rule_ids(report), snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            # Order-independent consumption of sets is fine.
            "s = {1, 2}\nout = sorted(s)\nn = len(s)\nm = max(s)\n",
            # Dicts are insertion-ordered: iteration is deterministic.
            "d = {'a': 1}\nfor k, v in d.items():\n    print(k, v)\n",
            "d = {'a': 1}\nout = list(d.values())\n",
            # Membership tests are order-free.
            "s = {1, 2}\nhit = 1 in s\n",
            # A list is ordered.
            "xs = [3, 1]\nfor x in xs:\n    print(x)\n",
        ],
    )
    def test_negative(self, tmp_path, snippet):
        report = lint_digest_snippet(
            tmp_path, snippet, rules=["unordered-iteration"]
        )
        assert report.ok, snippet

    def test_self_attribute_set_is_tracked_across_methods(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            class Tracker:
                def __init__(self):
                    self.seen = set()

                def drain(self):
                    return [x for x in self.seen]
            """,
            rules=["unordered-iteration"],
        )
        assert rule_ids(report) == ["unordered-iteration"]


# ---------------------------------------------------------------------------
# Observer purity
# ---------------------------------------------------------------------------

class TestObserverPurity:
    def test_writing_to_a_callback_argument_is_flagged(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            from repro.sim.observers import RunObserver


            class Meddler(RunObserver):
                def on_event(self, context, event):
                    event.time = 0.0
            """,
            rules=["observer-purity"],
        )
        assert rule_ids(report) == ["observer-purity"]

    def test_mutating_method_and_alias_are_flagged(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            from repro.sim.observers import RunObserver


            class Meddler(RunObserver):
                def on_job_completed(self, context, job):
                    kernel = context.kernel
                    kernel.queue.push(job)
            """,
            rules=["observer-purity"],
        )
        assert rule_ids(report) == ["observer-purity"]

    def test_self_state_is_allowed(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            from repro.sim.observers import RunObserver


            class Counter(RunObserver):
                def __init__(self):
                    self.events = []

                def on_event(self, context, event):
                    self.events.append(event.kind)
                    self.last_time = event.time
            """,
            rules=["observer-purity"],
        )
        assert report.ok

    def test_transitive_subclass_is_checked(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            from repro.sim.observers import RunObserver


            class Base(RunObserver):
                pass


            class Leaf(Base):
                def on_progress(self, context):
                    context.kernel.cancel(None)
            """,
            rules=["observer-purity"],
        )
        assert rule_ids(report) == ["observer-purity"]

    def test_non_observer_class_is_exempt(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            class Scheduler:
                def on_event(self, context, event):
                    context.kernel.queue.push(event)
            """,
            rules=["observer-purity"],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# Registry & schema consistency
# ---------------------------------------------------------------------------

_DOCS = {
    "docs/api.md": "Catalog: `good-policy` and `documented` are shipped.\n",
    "README.md": "See docs.\n",
}


class TestRegistrySignature:
    def test_policy_with_wrong_arity_is_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                **_DOCS,
                "plugin.py": """\
                from repro.registry import register_policy


                @register_policy("good-policy")
                def bad(job, state):
                    return 0.0
                """,
            },
            rules=["registry-signature"],
        )
        assert rule_ids(report) == ["registry-signature"]
        assert "3 positional arguments" in report.findings[0].message

    def test_conforming_registrations_pass(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                **_DOCS,
                "plugin.py": """\
                from repro.registry import register_invariant, register_policy


                @register_policy("good-policy")
                def good(job, state, executor_index):
                    return 0.0


                @register_invariant("documented")
                class Check:
                    def observe(self, event):
                        pass
                """,
            },
            rules=["registry-signature"],
        )
        assert report.ok

    def test_invariant_factory_needing_args_is_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                **_DOCS,
                "plugin.py": """\
                from repro.registry import register_invariant


                @register_invariant("documented")
                class Needy:
                    def __init__(self, tolerance):
                        self.tolerance = tolerance
                """,
            },
            rules=["registry-signature"],
        )
        assert rule_ids(report) == ["registry-signature"]


class TestRegistryDocs:
    def test_undocumented_name_is_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                **_DOCS,
                "plugin.py": """\
                from repro.registry import register_policy


                @register_policy("mystery-policy")
                def mystery(job, state, executor_index):
                    return 0.0
                """,
            },
            rules=["registry-docs"],
        )
        assert rule_ids(report) == ["registry-docs"]
        assert "mystery-policy" in report.findings[0].message

    def test_documented_name_passes(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                **_DOCS,
                "plugin.py": """\
                from repro.registry import register_policy


                @register_policy("good-policy")
                def good(job, state, executor_index):
                    return 0.0
                """,
            },
            rules=["registry-docs"],
        )
        assert report.ok

    def test_dynamic_names_are_exempt(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                **_DOCS,
                "plugin.py": """\
                from repro.registry import register_policy


                def install(name):
                    register_policy(name, lambda j, s, e: 0.0)
                """,
            },
            rules=["registry-docs"],
        )
        assert report.ok


class TestSchemaDrift:
    def test_unvalidated_payload_key_is_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "api/results.py": """\
                class RunResult:
                    def to_dict(self):
                        return {"schema_version": 1, "zap": 2}
                """,
                "api/schema.py": 'KNOWN = ("schema_version",)\n',
            },
            rules=["schema-drift"],
        )
        assert rule_ids(report) == ["schema-drift"]
        assert "'zap'" in report.findings[0].message

    def test_validated_keys_pass(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "api/results.py": """\
                class RunResult:
                    def to_dict(self):
                        payload = {"schema_version": 1}
                        payload["zap"] = 2
                        return payload
                """,
                "api/schema.py": 'KNOWN = ("schema_version", "zap")\n',
            },
            rules=["schema-drift"],
        )
        assert report.ok


class TestCliDocs:
    def test_undocumented_flag_is_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "README.md": "Run `repro go` with --seen.\n",
                "repro/cli.py": """\
                import argparse


                def build():
                    p = argparse.ArgumentParser()
                    sub = p.add_subparsers()
                    go = sub.add_parser("go")
                    go.add_argument("--seen")
                    go.add_argument("--mystery")
                    return p
                """,
            },
            rules=["cli-docs"],
        )
        assert rule_ids(report) == ["cli-docs"]
        assert "--mystery" in report.findings[0].message

    def test_undocumented_subcommand_is_flagged(self, tmp_path):
        report = lint_tree(
            tmp_path,
            {
                "README.md": "Nothing here.\n",
                "repro/cli.py": """\
                import argparse


                def build():
                    p = argparse.ArgumentParser()
                    p.add_subparsers().add_parser("hidden")
                    return p
                """,
            },
            rules=["cli-docs"],
        )
        assert rule_ids(report) == ["cli-docs"]
        assert "'hidden'" in report.findings[0].message


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression_silences_and_is_counted(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()  # repro: lint-ignore[wall-clock] -- fixture
            """,
            rules=["wall-clock"],
        )
        assert report.ok
        assert report.suppressions_total == 1
        assert report.suppressions_used == 1

    def test_comment_line_above_suppresses(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            import time

            def stamp():
                # repro: lint-ignore[wall-clock] -- fixture reason
                return time.time()
            """,
            rules=["wall-clock"],
        )
        assert report.ok and report.suppressions_used == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()  # repro: lint-ignore[hash-id] -- wrong id
            """,
            rules=["wall-clock"],
        )
        ids = rule_ids(report)
        assert "wall-clock" in ids and "unused-suppression" in ids

    def test_unused_suppression_is_reported(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            "x = 1  # repro: lint-ignore[wall-clock] -- nothing to silence\n",
            rules=["wall-clock"],
        )
        assert rule_ids(report) == ["unused-suppression"]
        assert report.suppressions_total == 1
        assert report.suppressions_used == 0

    def test_wildcard_and_multi_id_suppressions(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            """\
            import time

            def f():
                # repro: lint-ignore[wall-clock, hash-id] -- both on one line
                return time.time(), id(f)

            def g():
                return time.time()  # repro: lint-ignore[*] -- wildcard
            """,
            rules=["wall-clock", "hash-id"],
        )
        assert report.ok and report.suppressions_used == 2

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path,
            '''\
            def f():
                """Docs quoting  # repro: lint-ignore[wall-clock] are inert."""
                return 1
            ''',
            rules=["wall-clock"],
        )
        assert report.ok and report.suppressions_total == 0


# ---------------------------------------------------------------------------
# Engine behaviour: parse errors, JSON schema, formatters
# ---------------------------------------------------------------------------


class TestEngine:
    def test_parse_error_becomes_a_finding(self, tmp_path):
        report = lint_digest_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(report) == ["parse-error"]
        assert not report.ok

    def test_json_report_schema(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path, "import time\nT = time.time()\n", rules=["wall-clock"]
        )
        payload = json.loads(format_json(report))
        assert payload["schema_version"] == LINT_SCHEMA_VERSION
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert payload["rules"] == ["wall-clock"]
        assert payload["counts"] == {"wall-clock": 1}
        assert payload["suppressions_used"] == 0
        assert payload["suppressions_total"] == 0
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "file", "line", "col", "message"}
        assert finding["file"] == "sim/fixture.py"
        assert finding["line"] == 2

    def test_text_and_github_formats(self, tmp_path):
        report = lint_digest_snippet(
            tmp_path, "import time\nT = time.time()\n", rules=["wall-clock"]
        )
        text = format_text(report)
        assert "sim/fixture.py:2:" in text and "[wall-clock]" in text
        github = format_github(report)
        assert github.startswith("::error file=sim/fixture.py,line=2,")

    def test_findings_are_sorted_and_deterministic(self, tmp_path):
        files = {
            "sim/b.py": "import time\nT = time.time()\n",
            "sim/a.py": "X = id(object())\nY = hash('k')\n",
        }
        first = lint_tree(tmp_path, files)
        second = run_lint([str(tmp_path)], root=str(tmp_path))
        assert [f.to_dict() for f in first.findings] == [
            f.to_dict() for f in second.findings
        ]
        assert [f.sort_key() for f in first.findings] == sorted(
            f.sort_key() for f in first.findings
        )

    def test_unknown_rule_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            run_lint([str(tmp_path)], root=str(tmp_path), rule_ids=["nope"])

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([str(tmp_path / "absent")], root=str(tmp_path))

    def test_at_least_eight_rules_are_registered(self):
        assert len(load_rules()) >= 8

    def test_crashing_rule_degrades_to_internal_error(self, tmp_path):
        from repro.analysis import AnalysisRule
        from repro.registry import analysis_rules

        class Bomb(AnalysisRule):
            id = "bomb"
            family = "test"
            description = "always crashes"

            def check_module(self, module):
                raise RuntimeError("boom")

        analysis_rules.register("bomb", Bomb)
        try:
            report = lint_digest_snippet(tmp_path, "x = 1\n", rules=["bomb"])
        finally:
            analysis_rules.unregister("bomb")
        assert rule_ids(report) == ["internal-error"]
        assert "boom" in report.findings[0].message


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _write(self, tmp_path, source):
        path = tmp_path / "sim" / "fixture.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, "X = 1\n")
        assert cli_main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_exit_one_with_rule_and_location(self, tmp_path, capsys):
        path = self._write(tmp_path, "import time\nT = time.time()\n")
        assert cli_main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[wall-clock]" in out and "fixture.py:2:" in out

    def test_json_format(self, tmp_path, capsys):
        path = self._write(tmp_path, "T = id(object())\n")
        assert cli_main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "hash-id"

    def test_rule_filter_and_unknown_rule(self, tmp_path, capsys):
        path = self._write(tmp_path, "import time\nT = time.time()\n")
        assert cli_main(["lint", str(path), "--rule", "hash-id"]) == 0
        capsys.readouterr()
        assert cli_main(["lint", str(path), "--rule", "definitely-not"]) == 2
        assert "unknown analysis rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "wall-clock",
            "unseeded-random",
            "hash-id",
            "unordered-iteration",
            "observer-purity",
            "registry-signature",
            "registry-docs",
            "schema-drift",
            "cli-docs",
        ):
            assert rule_id in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Hypothesis: the analyzer never crashes
# ---------------------------------------------------------------------------

_FRAGMENTS = [
    "import time\n",
    "import random\n",
    "x = time.time()\n",
    "s = {1, 2, 3}\n",
    "for v in sorted(s):\n    pass\n",
    "def stamp():\n    import time\n    return time.time()\n",
    "class C:\n    def __init__(self):\n        self.seen = set()\n",
    "out = [i for i in range(3)]\n",
    "z = hash('key')\n",
    "w = id(object)\n",
    "# repro: lint-ignore[wall-clock] -- maybe unused\n",
    "from repro.sim.observers import RunObserver\n",
    "class Obs(RunObserver):\n    def on_event(self, ctx, ev):\n        ev.t = 1\n",
    "def broken(:\n",  # parse error: must degrade, not crash
    "q = ','.join(frozenset('ab'))\n",
    "import numpy as np\n",
    "r = np.random.default_rng(3)\n",
]


class TestNeverCrashes:
    @settings(max_examples=40, deadline=None)
    @given(
        fragments=st.lists(st.sampled_from(_FRAGMENTS), min_size=0, max_size=8),
        relpath=st.sampled_from(
            ["sim/gen.py", "core/gen.py", "exec/gen.py", "gen.py"]
        ),
    )
    def test_any_fragment_permutation(self, tmp_path_factory, fragments, relpath):
        tmp_path = tmp_path_factory.mktemp("lintfuzz")
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(fragments))
        report = run_lint([str(tmp_path)], root=str(tmp_path))
        assert isinstance(report, LintReport)
        assert not any(f.rule == "internal-error" for f in report.findings)
        for finding in report.findings:
            assert isinstance(finding, Finding)
            assert finding.rule and finding.path
            assert finding.line >= 1 and finding.col >= 0
        # The report always serializes.
        json.loads(format_json(report))


# ---------------------------------------------------------------------------
# Self-run: the shipped tree is clean, and stays that way
# ---------------------------------------------------------------------------


class TestSelfRun:
    def test_src_is_lint_clean(self):
        report = run_lint(["src"], root=str(REPO_ROOT))
        assert report.ok, "\n" + "\n".join(
            f"{f.path}:{f.line}: [{f.rule}] {f.message}" for f in report.findings
        )
        assert len(report.rules) >= 8
        assert report.files_checked > 50
        # Every committed suppression is load-bearing: deleting any one of
        # them must surface a finding (the acceptance criterion).
        assert report.suppressions_total > 0
        assert report.suppressions_used == report.suppressions_total

    def test_reintroducing_a_wall_clock_bug_fails(self, tmp_path):
        """A seeded regression in a copy of sim/kernel.py is caught."""
        kernel_source = (REPO_ROOT / "src/repro/sim/kernel.py").read_text()
        bugged = kernel_source + (
            "\n\ndef _leak_wall_clock():\n    import time\n    return time.time()\n"
        )
        expected_line = 1 + bugged.splitlines().index("    return time.time()")
        path = tmp_path / "sim" / "kernel.py"
        path.parent.mkdir(parents=True)
        path.write_text(bugged)
        report = run_lint([str(path)], root=str(tmp_path), rule_ids=["wall-clock"])
        assert not report.ok
        (finding,) = report.findings
        assert finding.rule == "wall-clock"
        assert finding.path == "sim/kernel.py"
        assert finding.line == expected_line

    def test_removing_a_shipped_suppression_fails(self, tmp_path):
        """Strip one real suppression comment; the finding must reappear."""
        source = (REPO_ROOT / "src/repro/utils/plancache.py").read_text()
        assert "lint-ignore[hash-id]" in source
        stripped = "\n".join(
            line
            for line in source.splitlines()
            if "lint-ignore[hash-id]" not in line
        )
        path = tmp_path / "utils" / "plancache.py"
        path.parent.mkdir(parents=True)
        path.write_text(stripped)
        report = run_lint([str(path)], root=str(tmp_path), rule_ids=["hash-id"])
        assert not report.ok
        assert {f.rule for f in report.findings} == {"hash-id"}
