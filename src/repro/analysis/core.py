"""The AST analysis engine behind ``python -m repro lint``.

The engine is deliberately small: it parses every linted file once into
a :class:`ModuleInfo` (source, AST, an import alias map for qualified
name resolution, and the file's suppression comments), hands the parsed
modules to every registered :class:`AnalysisRule`, and post-processes
the raw findings through the suppression layer.  Rules come from the
``analysis_rules`` registry (:mod:`repro.registry`), so plugins extend
the analyzer exactly like they extend policies or invariants::

    from repro.api import register_analysis_rule
    from repro.analysis import AnalysisRule, Finding

    @register_analysis_rule("no-print")
    class NoPrint(AnalysisRule):
        id = "no-print"
        family = "style"
        description = "print() calls do not belong in library code"

        def check_module(self, module):
            import ast
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Call)
                    and module.resolve(node.func) == "print"
                ):
                    yield self.finding(module, node, "print() call")

Suppressions are explicit and auditable: a ``# repro:
lint-ignore[rule-id]`` comment on the flagged line (or on a comment
line directly above it) silences that rule there, ideally with a reason
(``# repro: lint-ignore[rule-id] -- identity memo, never ordered``).
A suppression that silences nothing is itself reported (rule id
``unused-suppression``), so stale ignores cannot accumulate.  Files
that fail to parse surface as ``parse-error`` findings instead of
crashing the run.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.registry import analysis_rules

#: Version stamped into ``repro lint --format json`` payloads.
LINT_SCHEMA_VERSION = 1

#: Engine-produced pseudo-rule ids (not in the registry, never filtered
#: out by ``--rule`` and not suppressible).
PARSE_ERROR = "parse-error"
UNUSED_SUPPRESSION = "unused-suppression"
INTERNAL_ERROR = "internal-error"

#: Matched against COMMENT tokens only, anchored at the comment start,
#: so lint-ignore markers quoted inside docstrings or prose comments
#: (like this module's docstring) are not live suppressions.
_SUPPRESSION_RE = re.compile(
    r"^#\s*repro:\s*lint-ignore\[([^\]]+)\]\s*(?:(?:--|:)\s*(.*))?"
)

#: Digest-affecting module paths: the modules whose behaviour feeds the
#: golden result digests, where determinism rules apply (matched against
#: the posix relpath).  ``exec/``, ``verify/`` and the CLI are free to
#: read wall clocks; these are not.
_DIGEST_PATH_RE = re.compile(
    r"(^|/)(sim|core|pipeline)/[^/]+\.py$"
    r"|(^|/)dist/sharding\.py$"
    r"|(^|/)utils/plancache\.py$"
)


@dataclass(frozen=True)
class Finding:
    """One lint finding: a rule id anchored at ``file:line``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Suppression:
    """One ``# repro: lint-ignore[...]`` comment in a file."""

    line: int
    rule_ids: Tuple[str, ...]
    reason: str
    #: Rule ids this suppression actually silenced (filled by the engine).
    used_for: List[str] = field(default_factory=list)

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.rule_ids or "*" in self.rule_ids


class ModuleInfo:
    """One parsed python file plus the lookup tables rules need.

    ``tree`` is ``None`` when the file failed to parse (the engine
    reports a ``parse-error`` finding and rules never see the module).
    """

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.AST] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source)
        except (SyntaxError, ValueError) as exc:  # ValueError: null bytes
            self.parse_error = exc if isinstance(exc, SyntaxError) else None
            if self.parse_error is None:
                self.parse_error = SyntaxError(str(exc))
        #: ``local alias -> dotted qualified name`` from every import in
        #: the file (scope-insensitive by design: a file that rebinds an
        #: import name locally is doing something rules should look at).
        self.aliases: Dict[str, str] = {}
        #: Names bound at module level (defs, classes, assignments,
        #: imports) -- used to tell a shadowed ``hash`` from the builtin.
        self.module_names: set = set()
        self.suppressions: Dict[int, Suppression] = self._scan_suppressions()
        if self.tree is not None:
            self._index(self.tree)

    # -- indexing ----------------------------------------------------------------

    def _index(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b`` binds ``a``, which resolves to ``a``.
                        local = alias.name.split(".")[0]
                        self.aliases[local] = local
            elif isinstance(node, ast.ImportFrom):
                # Relative imports keep the module tail only -- good enough
                # for matching well-known suffixes like ``observers``.
                base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        root = self.tree
        if isinstance(root, ast.Module):
            for node in root.body:
                for name in _bound_names(node):
                    self.module_names.add(name)

    def _scan_suppressions(self) -> Dict[int, Suppression]:
        found: Dict[int, Suppression] = {}
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except Exception:
            # Unparseable/untokenizable source is already a parse-error
            # finding; there are no live suppressions in it.
            return found
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            lineno = token.start[0]
            match = _SUPPRESSION_RE.match(token.string)
            if not match:
                continue
            ids = tuple(
                token.strip().lower()
                for token in match.group(1).split(",")
                if token.strip()
            )
            if ids:
                found[lineno] = Suppression(
                    line=lineno, rule_ids=ids, reason=(match.group(2) or "").strip()
                )
        return found

    # -- helpers for rules --------------------------------------------------------

    @property
    def is_digest_module(self) -> bool:
        """Whether this file's behaviour feeds the golden result digests."""
        return bool(_DIGEST_PATH_RE.search(Path(self.relpath).as_posix()))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted qualified name of a ``Name``/``Attribute`` chain.

        ``import numpy as np; np.random.rand`` resolves to
        ``numpy.random.rand``; ``from time import time; time()`` resolves
        to ``time.time``.  A chain not rooted at a plain name (calls,
        subscripts, ...) resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def suppression_for(self, line: int) -> Optional[Suppression]:
        """The suppression covering ``line``: same line, or the nearest
        run of comment-only lines directly above it."""
        if line in self.suppressions:
            return self.suppressions[line]
        probe = line - 1
        while probe >= 1 and self._is_comment_line(probe):
            if probe in self.suppressions:
                return self.suppressions[probe]
            probe -= 1
        return None

    def _is_comment_line(self, line: int) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        stripped = self.lines[line - 1].strip()
        return stripped.startswith("#")


class Project:
    """The whole lint invocation: parsed modules plus repo-level files."""

    def __init__(self, root: Path, modules: Sequence[ModuleInfo]) -> None:
        self.root = root
        self.modules = list(modules)
        self._text_cache: Dict[str, Optional[str]] = {}

    def module_by_suffix(self, suffix: str) -> Optional[ModuleInfo]:
        """The parsed module whose posix relpath ends with ``suffix``."""
        for module in self.modules:
            if Path(module.relpath).as_posix().endswith(suffix):
                return module
        return None

    def read_text(self, relpath: str) -> Optional[str]:
        """Contents of a repo file (``None`` when absent), cached."""
        if relpath not in self._text_cache:
            path = self.root / relpath
            try:
                self._text_cache[relpath] = path.read_text()
            except OSError:
                self._text_cache[relpath] = None
        return self._text_cache[relpath]

    def docs_texts(self) -> List[Tuple[str, str]]:
        """``(relpath, text)`` of README.md plus every docs/*.md present."""
        texts: List[Tuple[str, str]] = []
        readme = self.read_text("README.md")
        if readme is not None:
            texts.append(("README.md", readme))
        docs_dir = self.root / "docs"
        if docs_dir.is_dir():
            for path in sorted(docs_dir.glob("*.md")):
                text = self.read_text(f"docs/{path.name}")
                if text is not None:
                    texts.append((f"docs/{path.name}", text))
        return texts


class AnalysisRule:
    """Base class of analyzer rules.

    Subclasses set ``id`` (the suppression / ``--rule`` token),
    ``family`` and ``description``, then override :meth:`check_module`
    (called once per parsed file) and/or :meth:`check_project` (called
    once per lint invocation, for cross-file contracts).  Both yield
    :class:`Finding` objects; :meth:`finding` builds one anchored at an
    AST node.
    """

    id: str = ""
    family: str = ""
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(
        self,
        module: ModuleInfo,
        node: Optional[ast.AST],
        message: str,
        *,
        line: Optional[int] = None,
    ) -> Finding:
        anchor = line if line is not None else getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=int(anchor),
            col=int(col),
            message=message,
        )


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` invocation."""

    root: str
    files_checked: int
    rules: List[str]
    findings: List[Finding]
    suppressions_used: int
    suppressions_total: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "root": self.root,
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts_by_rule(),
            "suppressions_used": self.suppressions_used,
            "suppressions_total": self.suppressions_total,
        }


def _bound_names(node: ast.AST) -> Iterator[str]:
    """Names a module-level statement binds (defs, classes, assignments)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    yield sub.id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        yield node.target.id
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            if alias.name == "*":
                continue
            yield alias.asname or alias.name.split(".")[0]


def discover_files(paths: Sequence[str], root: Path) -> List[Path]:
    """Expand file/directory arguments into a sorted list of .py files."""
    seen: Dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.parts
                if any(p.startswith(".") or p == "__pycache__" for p in parts):
                    continue
                seen[candidate] = None
        elif path.suffix == ".py":
            seen[path] = None
        elif not path.exists():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
    return list(seen)


def load_rules(rule_ids: Optional[Sequence[str]] = None) -> List[AnalysisRule]:
    """Fresh instances of every registered rule (or the requested subset)."""
    names = analysis_rules.names()
    if rule_ids is not None:
        wanted = []
        for rule_id in rule_ids:
            key = str(rule_id).lower()
            if key not in names:
                raise KeyError(
                    f"unknown analysis rule {rule_id!r}; known: {names}"
                )
            wanted.append(key)
        names = wanted
    return [analysis_rules.get(name)() for name in names]


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[str],
    *,
    root: Optional[str] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint ``paths`` (files or directories) and return the report.

    ``root`` anchors relative finding paths and repo-level lookups
    (``docs/``, ``README.md``) and defaults to the current directory.
    ``rule_ids`` restricts the run to a subset of registered rules
    (``parse-error`` and ``unused-suppression`` reporting always stays
    on).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    rules = load_rules(rule_ids)
    files = discover_files(paths, root_path)
    modules = [
        ModuleInfo(path, _relpath(path, root_path), path.read_text())
        for path in files
    ]
    raw_findings: List[Finding] = []
    parsed = [m for m in modules if m.tree is not None]
    for module in modules:
        if module.parse_error is not None:
            err = module.parse_error
            raw_findings.append(
                Finding(
                    rule=PARSE_ERROR,
                    path=module.relpath,
                    line=int(getattr(err, "lineno", None) or 1),
                    col=int(getattr(err, "offset", None) or 0),
                    message=f"file does not parse: {err.msg}",
                )
            )
    project = Project(root_path, parsed)
    for rule in rules:
        for module in parsed:
            raw_findings.extend(_guarded(rule, rule.check_module, module, module))
        raw_findings.extend(_guarded(rule, rule.check_project, project, None))

    by_relpath = {module.relpath: module for module in modules}
    kept: List[Finding] = []
    for finding in raw_findings:
        module = by_relpath.get(finding.path)
        if module is not None and finding.rule not in (
            PARSE_ERROR,
            UNUSED_SUPPRESSION,
            INTERNAL_ERROR,
        ):
            suppression = module.suppression_for(finding.line)
            if suppression is not None and suppression.covers(finding.rule):
                suppression.used_for.append(finding.rule)
                continue
        kept.append(finding)

    suppressions_total = 0
    suppressions_used = 0
    for module in modules:
        for suppression in module.suppressions.values():
            suppressions_total += 1
            if suppression.used_for:
                suppressions_used += 1
            else:
                kept.append(
                    Finding(
                        rule=UNUSED_SUPPRESSION,
                        path=module.relpath,
                        line=suppression.line,
                        col=0,
                        message=(
                            "suppression for "
                            + ", ".join(
                                f"'{rid}'" for rid in suppression.rule_ids
                            )
                            + " matched no finding; delete it (or fix the rule id)"
                        ),
                    )
                )

    kept.sort(key=Finding.sort_key)
    return LintReport(
        root=str(root_path),
        files_checked=len(modules),
        rules=[rule.id for rule in rules],
        findings=kept,
        suppressions_used=suppressions_used,
        suppressions_total=suppressions_total,
    )


def _guarded(rule: AnalysisRule, check, target, module) -> List[Finding]:
    """Run one rule hook, degrading an internal crash to a finding.

    A buggy (possibly third-party) rule must never take down the whole
    lint run; it becomes an ``internal-error`` finding naming the rule.
    """
    try:
        return list(check(target))
    except Exception as exc:  # pragma: no cover - exercised via fuzz tests
        path = module.relpath if module is not None else "<project>"
        return [
            Finding(
                rule=INTERNAL_ERROR,
                path=path,
                line=1,
                col=0,
                message=f"rule {rule.id!r} crashed: {type(exc).__name__}: {exc}",
            )
        ]


# -- output formats ------------------------------------------------------------------


def format_text(report: LintReport) -> str:
    lines = []
    for finding in report.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"[{finding.rule}] {finding.message}"
        )
    noun = "finding" if len(report.findings) == 1 else "findings"
    lines.append(
        f"{len(report.findings)} {noun} in {report.files_checked} file(s); "
        f"{report.suppressions_used} of {report.suppressions_total} "
        f"suppression(s) used"
    )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def format_github(report: LintReport) -> str:
    """GitHub Actions workflow-command annotations (one per finding)."""
    lines = [
        f"::error file={f.path},line={f.line},col={f.col},"
        f"title=repro lint [{f.rule}]::{f.message}"
        for f in report.findings
    ]
    lines.append(
        f"repro lint: {len(report.findings)} finding(s), "
        f"{report.suppressions_used}/{report.suppressions_total} suppression(s) used"
    )
    return "\n".join(lines)


FORMATTERS = {"text": format_text, "json": format_json, "github": format_github}
