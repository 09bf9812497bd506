"""Determinism rules: no entropy, no ordering hazards in digest paths.

Every rule here applies only to *digest-affecting* modules (``sim/``,
``core/``, ``pipeline/``, ``dist/sharding.py``, ``utils/plancache.py``
-- see :data:`repro.analysis.core._DIGEST_PATH_RE`): the code whose
behaviour feeds the golden result digests that pin bit-identical
reproduction.  Harness code (``exec/``, the CLI) is free to read wall
clocks.

The one blessed exception inside digest modules is
``time.perf_counter``/``perf_counter_ns``: the kernel's per-event-kind
timing accumulator is explicitly digest-excluded (``timings_by_kind``
never feeds :func:`repro.api.result_digest`), so profiling reads are
allowed everywhere and are simply absent from the banned-name table.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.core import AnalysisRule, Finding, ModuleInfo
from repro.registry import register_analysis_rule

#: Wall-clock reads (qualified call targets) that leak real time into
#: simulation state.  ``time.perf_counter*`` is deliberately absent: the
#: digest-excluded timing accumulator is built on it.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module-level (global-RNG) functions of :mod:`random`.
_RANDOM_GLOBAL_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)

#: Legacy global-RNG entry points of :mod:`numpy.random`.
_NUMPY_GLOBAL_FNS = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "normal",
        "uniform",
        "poisson",
        "exponential",
        "beta",
        "binomial",
        "standard_normal",
    }
)

#: Entropy sources that are never acceptable in digest paths.
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandbits",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)


def _iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_analysis_rule("wall-clock")
class WallClockRule(AnalysisRule):
    """No wall-clock reads in digest-affecting modules."""

    id = "wall-clock"
    family = "determinism"
    description = (
        "digest-affecting modules must not read wall clocks "
        "(time.time, datetime.now, ...); time.perf_counter is the "
        "blessed profiling exception"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.is_digest_module:
            return
        for call in _iter_calls(module.tree):
            qualified = module.resolve(call.func)
            if qualified in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    call,
                    f"wall-clock read {qualified}() in a digest-affecting "
                    f"module; simulation time must come from the kernel "
                    f"clock (time.perf_counter is allowed for profiling)",
                )


@register_analysis_rule("unseeded-random")
class UnseededRandomRule(AnalysisRule):
    """No ambient entropy: every random draw must flow from a seed."""

    id = "unseeded-random"
    family = "determinism"
    description = (
        "digest-affecting modules must draw randomness from an "
        "explicitly seeded generator, never the global random/np.random "
        "state, os.urandom, uuid4 or secrets"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.is_digest_module:
            return
        for call in _iter_calls(module.tree):
            qualified = module.resolve(call.func)
            if qualified is None:
                continue
            message = self._violation(qualified, call)
            if message is not None:
                yield self.finding(module, call, message)

    @staticmethod
    def _violation(qualified: str, call: ast.Call) -> Optional[str]:
        parts = qualified.split(".")
        if qualified in ENTROPY_CALLS or parts[0] == "secrets":
            return (
                f"entropy source {qualified}() in a digest-affecting module; "
                f"results must be a pure function of the scenario seed"
            )
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] in _RANDOM_GLOBAL_FNS:
                return (
                    f"global-state RNG call {qualified}(); use a seeded "
                    f"random.Random(seed) instance owned by the caller"
                )
            if parts[1] == "Random" and not call.args and not call.keywords:
                return (
                    "random.Random() constructed without a seed; pass the "
                    "scenario seed explicitly"
                )
        if len(parts) == 3 and parts[0] == "numpy" and parts[1] == "random":
            if parts[2] in _NUMPY_GLOBAL_FNS:
                return (
                    f"global-state RNG call {qualified}(); use a seeded "
                    f"numpy.random.Generator (default_rng(seed))"
                )
            if parts[2] == "default_rng" and not call.args and not call.keywords:
                return (
                    "numpy.random.default_rng() without a seed draws from OS "
                    "entropy; pass the scenario seed explicitly"
                )
        return None


@register_analysis_rule("hash-id")
class HashIdRule(AnalysisRule):
    """builtin hash()/id() must not influence digest-affecting state."""

    id = "hash-id"
    family = "determinism"
    description = (
        "builtin hash() is randomized per process (PYTHONHASHSEED) and "
        "id() is a memory address; neither may feed digest-affecting "
        "state -- use content keys, or suppress with a reason for pure "
        "identity memos"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.is_digest_module:
            return
        for call in _iter_calls(module.tree):
            func = call.func
            if not isinstance(func, ast.Name) or func.id not in ("hash", "id"):
                continue
            if func.id in module.aliases or func.id in module.module_names:
                continue  # shadowed: not the builtin
            yield self.finding(
                module,
                call,
                f"builtin {func.id}() in a digest-affecting module: "
                + (
                    "str/bytes hashes are randomized by PYTHONHASHSEED"
                    if func.id == "hash"
                    else "id() values are memory addresses"
                )
                + "; derive keys from content (repro.utils.plancache."
                "content_key) or suppress with a reason if the value is "
                "only an identity-memo key and never ordered or serialized",
            )


_SET_CALLS = ("set", "frozenset")
#: Iteration sinks whose argument order becomes observable.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed"}
)


class _SetTracker(ast.NodeVisitor):
    """Scope-aware tracking of names bound to set-typed expressions.

    One instance walks one module.  Function scopes nest (a stack of
    local tables over the module table); ``self.<attr>`` assignments are
    pre-collected per class so methods see attributes initialised in
    ``__init__`` regardless of textual order.
    """

    def __init__(self, rule: "UnorderedIterationRule", module: ModuleInfo) -> None:
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []
        self.scopes: List[Dict[str, bool]] = [{}]
        self.class_attrs: List[Dict[str, bool]] = []

    # -- set-ness inference -------------------------------------------------------

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _SET_CALLS
                and node.func.id not in self.module.aliases
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
            return False
        if isinstance(node, ast.Attribute):
            # ``self.attr`` consults the enclosing class's attribute table.
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.class_attrs
            ):
                return self.class_attrs[-1].get(node.attr, False)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def _annotation_is_set(self, annotation: ast.AST) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        return name in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")

    # -- binding ------------------------------------------------------------------

    def _bind(self, target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self.scopes[-1][target.id] = is_set
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.class_attrs
        ):
            current = self.class_attrs[-1].get(target.attr, False)
            self.class_attrs[-1][target.attr] = current or is_set

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self.is_set_expr(node.value)
        for target in node.targets:
            self._bind(target, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        is_set = self._annotation_is_set(node.annotation) or (
            node.value is not None and self.is_set_expr(node.value)
        )
        self._bind(node.target, is_set)
        self.generic_visit(node)

    # -- scopes -------------------------------------------------------------------

    def _visit_function(self, node) -> None:
        self.scopes.append({})
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Pre-pass: collect every ``self.attr = <set expr>`` in the class
        # so methods see attributes initialised elsewhere (``__init__``).
        attrs: Dict[str, bool] = {}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and self.is_set_expr(sub.value):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs[target.attr] = True
            if (
                isinstance(sub, ast.AnnAssign)
                and isinstance(sub.target, ast.Attribute)
                and isinstance(sub.target.value, ast.Name)
                and sub.target.value.id == "self"
                and self._annotation_is_set(sub.annotation)
            ):
                attrs[sub.target.attr] = True
        self.class_attrs.append(attrs)
        self.scopes.append({})
        self.generic_visit(node)
        self.scopes.pop()
        self.class_attrs.pop()

    # -- iteration sinks ----------------------------------------------------------

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node,
                f"iteration over a set {how} in a digest-affecting module: "
                f"set order varies with PYTHONHASHSEED and insertion "
                f"history; iterate sorted(...) or an ordered container "
                f"(repro.utils.ordered.OrderedIdSet)",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self._flag(node.iter, "in a for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for generator in node.generators:
            if self.is_set_expr(generator.iter):
                self._flag(generator.iter, "in a comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set FROM a set keeps membership only -- fine.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_CALLS
            and func.id not in self.module.aliases
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], f"via {func.id}(...)")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self.is_set_expr(node.args[0])
        ):
            self._flag(node.args[0], "via str.join(...)")
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        if self.is_set_expr(node.value):
            self._flag(node.value, "via * unpacking")
        self.generic_visit(node)


@register_analysis_rule("unordered-iteration")
class UnorderedIterationRule(AnalysisRule):
    """Set iteration order must never become observable in digest paths.

    Dicts are insertion-ordered in every supported python, so iterating
    a deterministically-built dict (or ``.values()``) is deterministic;
    ``set``/``frozenset`` iteration order is not (it varies with
    ``PYTHONHASHSEED`` for str keys and with insertion/deletion
    history), so any order-observable consumption of a set-typed
    expression is flagged.  Order-independent reductions
    (``sorted``/``min``/``max``/``sum``/``len``/``any``/``all`` and
    membership tests) are fine and not flagged.
    """

    id = "unordered-iteration"
    family = "determinism"
    description = (
        "digest-affecting modules must not iterate sets in an "
        "order-observable position (for/comprehensions/list()/join/...)"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.is_digest_module:
            return []
        tracker = _SetTracker(self, module)
        tracker.visit(module.tree)
        return tracker.findings
