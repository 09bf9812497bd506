"""Consistency rules: registries, docs tables and the result schema.

Three contracts that previously only failed at runtime (or never):

* ``registry-signature`` -- a callable registered under
  ``register_policy`` / ``register_preemption_rule`` / ... must
  actually satisfy that registry's calling protocol, checked from the
  AST at the registration site.
* ``registry-docs`` -- every name registered with a constant string
  must appear in the registry catalog tables of ``docs/api.md``
  (regenerating those tables is part of adding an entry).
* ``schema-drift`` -- every payload key a ``to_dict()`` in
  ``api/results.py`` emits must be named in ``api/schema.py``:
  the frozen schema-v1 validators may not silently fall behind the
  producers.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    AnalysisRule,
    Finding,
    ModuleInfo,
    Project,
)
from repro.registry import register_analysis_rule

#: ``register_* function name -> registry kind`` for every extension
#: point whose registration protocol the analyzer understands.
REGISTER_FUNCTIONS = {
    "register_policy": "policy",
    "register_preemption_rule": "preemption-rule",
    "register_arrival_process": "arrival-process",
    "register_fault_model": "fault-model",
    "register_chaos_injector": "chaos-injector",
    "register_invariant": "invariant",
    "register_analysis_rule": "analysis-rule",
    "register_fuzz_budget": "fuzz-budget",
}

#: Kinds whose registered names must appear in the docs catalog tables
#: (``docs/api.md``).  Fuzz budgets are value objects registered under
#: computed names and are documented by their module.
DOCUMENTED_KINDS = (
    "policy",
    "preemption-rule",
    "arrival-process",
    "fault-model",
    "chaos-injector",
    "invariant",
    "analysis-rule",
)

#: Keyword names an arrival-process factory is called with
#: (:func:`repro.registry.register_arrival_process`).
ARRIVAL_PROCESS_KWARGS = frozenset(
    {
        "name",
        "arrival_rate_per_hour",
        "models",
        "job_type",
        "deadline_fraction",
        "deadline_slack_factor",
        "seed",
        "end_time",
    }
)


class Registration:
    """One statically-visible ``register_*`` site in a module."""

    def __init__(
        self,
        kind: str,
        name: Optional[str],
        node: ast.AST,
        target: Optional[ast.AST],
    ) -> None:
        self.kind = kind
        #: The registered name when it is a constant string, else None.
        self.name = name
        #: The AST node to anchor findings at (the registration site).
        self.node = node
        #: The registered def/class when resolvable in-module, else None.
        self.target = target


def _register_kind(module: ModuleInfo, func: ast.AST) -> Optional[str]:
    qualified = module.resolve(func)
    if qualified is None:
        return None
    return REGISTER_FUNCTIONS.get(qualified.split(".")[-1])


def _constant_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _object_name(call: ast.Call) -> Optional[str]:
    """The registered name of a value-object registration.

    ``register_fuzz_budget(FuzzBudget(name="smoke", ...))`` registers
    under the object's ``name=`` field; recover it when it is a literal.
    """
    if call.args and isinstance(call.args[0], ast.Call):
        for keyword in call.args[0].keywords:
            if keyword.arg == "name":
                return _constant_str(keyword.value)
    return None


def iter_registrations(module: ModuleInfo) -> Iterator[Registration]:
    """Every ``register_*`` site in the module: decorators and calls."""
    defs: Dict[str, ast.AST] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, node)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            # ``SMOKE_BUDGET = FuzzBudget(name="smoke", ...)`` -- remember
            # the constructor call so value registrations resolve names.
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, node.value)

    decorator_calls = set()
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                decorator_calls.add(id(decorator))
                kind = _register_kind(module, decorator.func)
                if kind is None:
                    continue
                name = _constant_str(decorator.args[0]) if decorator.args else None
                yield Registration(kind, name, decorator, node)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and id(node) not in decorator_calls:
            kind = _register_kind(module, node.func)
            if kind is None:
                continue
            if kind == "fuzz-budget":
                # Value-object registration: name comes from the object.
                name = _object_name(node)
                if name is None and node.args and isinstance(node.args[0], ast.Name):
                    # ``register_fuzz_budget(SMOKE_BUDGET)`` where the name
                    # was bound to a constructor call earlier in the module.
                    referenced = defs.get(node.args[0].id)
                    if isinstance(referenced, ast.Call):
                        for keyword in referenced.keywords:
                            if keyword.arg == "name":
                                name = _constant_str(keyword.value)
                yield Registration(kind, name, node, None)
                continue
            name = _constant_str(node.args[0]) if node.args else None
            target: Optional[ast.AST] = None
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
                target = defs.get(node.args[1].id)
            yield Registration(kind, name, node, target)


# -- signature checking ---------------------------------------------------------------


def _positional_arity(args: ast.arguments) -> Tuple[int, int, bool]:
    """(min_positional, max_positional, has_vararg) of a def's signature."""
    positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
    max_pos = len(positional)
    min_pos = max_pos - len(args.defaults)
    return min_pos, max_pos, args.vararg is not None


def _accepts_n_positional(args: ast.arguments, n: int, *, method: bool) -> bool:
    """Whether the callable can be invoked with exactly ``n`` positional
    arguments (and no keywords)."""
    min_pos, max_pos, vararg = _positional_arity(args)
    if method:
        min_pos = max(0, min_pos - 1)
        max_pos = max(0, max_pos - 1)
    kwonly_required = sum(
        1 for d in args.kw_defaults if d is None
    ) if args.kwonlyargs else 0
    if kwonly_required:
        return False
    if vararg:
        return min_pos <= n
    return min_pos <= n <= max_pos


def _param_names(args: ast.arguments, *, method: bool) -> Set[str]:
    names = [a.arg for a in getattr(args, "posonlyargs", [])] + [
        a.arg for a in args.args
    ]
    if method and names:
        names = names[1:]
    names += [a.arg for a in args.kwonlyargs]
    return set(names)


def _zero_arg_constructible(node: ast.AST) -> Optional[str]:
    """None when ``node`` is callable with zero args, else a complaint."""
    if isinstance(node, ast.ClassDef):
        init = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return None  # inherited __init__; assume compatible
        if _accepts_n_positional(init.args, 0, method=True):
            return None
        return f"class {node.name}.__init__ requires arguments"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if _accepts_n_positional(node.args, 0, method=False):
            return None
        return f"function {node.name} requires arguments"
    return None


def _dataclass_fields(node: ast.ClassDef) -> Optional[Set[str]]:
    """Field names when ``node`` is decorated as a dataclass, else None."""
    is_dataclass = any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Attribute) and d.attr == "dataclass")
        or (
            isinstance(d, ast.Call)
            and (
                (isinstance(d.func, ast.Name) and d.func.id == "dataclass")
                or (isinstance(d.func, ast.Attribute) and d.func.attr == "dataclass")
            )
        )
        for d in node.decorator_list
    )
    if not is_dataclass:
        return None
    return {
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


def check_signature(kind: str, target: ast.AST) -> Optional[str]:
    """Protocol complaint for a registered def/class, or None when fine."""
    if kind in ("policy", "preemption-rule"):
        shape = (
            "(job, state, executor_index)"
            if kind == "policy"
            else "(arriving, running, state)"
        )
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _accepts_n_positional(target.args, 3, method=False):
                return (
                    f"{kind} {target.name!r} must be callable as "
                    f"{target.name}{shape} -- 3 positional arguments"
                )
        return None
    if kind == "fault-model":
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _accepts_n_positional(target.args, 2, method=False):
                # Keyword-only params are the model's own (defaulted or
                # scenario-supplied), so only the two positionals are
                # structural -- but required kw-only params without a
                # ``**params`` escape are fine here; re-check loosely.
                min_pos, max_pos, vararg = _positional_arity(target.args)
                if not (min_pos <= 2 and (vararg or max_pos >= 2)):
                    return (
                        f"fault model {target.name!r} must accept "
                        f"(tenants, horizon_seconds, **params)"
                    )
        return None
    if kind == "chaos-injector":
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _param_names(target.args, method=False)
            if target.args.kwarg is None and not {"key", "attempt"} <= names:
                return (
                    f"chaos injector {target.name!r} must accept the "
                    f"keyword arguments 'key' and 'attempt' (or **params)"
                )
        return None
    if kind in ("invariant", "analysis-rule"):
        complaint = _zero_arg_constructible(target)
        if complaint is not None:
            return f"{kind} factories must be zero-argument: {complaint}"
        return None
    if kind == "arrival-process":
        expected = ARRIVAL_PROCESS_KWARGS
        if isinstance(target, ast.ClassDef):
            init = next(
                (
                    item
                    for item in target.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                ),
                None,
            )
            if init is not None:
                names = _param_names(init.args, method=True)
                if init.args.kwarg is None and not expected <= names:
                    missing = sorted(expected - names)
                    return (
                        f"arrival process {target.name!r}.__init__ does not "
                        f"accept {missing} (add the parameters or **kwargs)"
                    )
                return None
            fields = _dataclass_fields(target)
            if fields is not None and not expected <= fields:
                missing = sorted(expected - fields)
                return (
                    f"arrival process dataclass {target.name!r} is missing "
                    f"the fields {missing}"
                )
            return None
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _param_names(target.args, method=False)
            if target.args.kwarg is None and not expected <= names:
                missing = sorted(expected - names)
                return (
                    f"arrival process {target.name!r} does not accept "
                    f"{missing} (add the parameters or **kwargs)"
                )
        return None
    return None


@register_analysis_rule("registry-signature")
class RegistrySignatureRule(AnalysisRule):
    """Registered callables must satisfy their registry's protocol."""

    id = "registry-signature"
    family = "consistency"
    description = (
        "every @register_* callable's signature must match its "
        "registry's calling protocol (policies take (job, state, "
        "executor_index), invariant factories take zero args, ...)"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for registration in iter_registrations(module):
            if registration.target is None:
                continue
            complaint = check_signature(registration.kind, registration.target)
            if complaint is not None:
                yield self.finding(module, registration.node, complaint)


@register_analysis_rule("registry-docs")
class RegistryDocsRule(AnalysisRule):
    """Every registered name must appear in the docs/api.md catalog."""

    id = "registry-docs"
    family = "consistency"
    description = (
        "every statically-registered policy/preemption-rule/arrival-"
        "process/fault-model/chaos-injector/invariant/analysis-rule "
        "name must appear (backticked) in docs/api.md"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        catalog = project.read_text("docs/api.md")
        if catalog is None:
            return  # fixture trees without docs: nothing to drift from
        for module in project.modules:
            for registration in iter_registrations(module):
                if registration.kind not in DOCUMENTED_KINDS:
                    continue
                if registration.name is None:
                    continue  # dynamic names (tests, oracles) are exempt
                if f"`{registration.name}`" in catalog:
                    continue
                yield self.finding(
                    module,
                    registration.node,
                    f"{registration.kind} {registration.name!r} is not in "
                    f"the docs/api.md registry catalog; add it to the "
                    f"`{registration.kind}` table (docs drift)",
                )


# -- schema drift ---------------------------------------------------------------------


def _emitted_keys(tree: ast.AST) -> List[Tuple[str, str, int]]:
    """``(class_name, key, line)`` for every constant payload key emitted
    inside a ``to_dict`` method."""
    out: List[Tuple[str, str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not (
                isinstance(item, ast.FunctionDef) and item.name == "to_dict"
            ):
                continue
            for sub in ast.walk(item):
                if isinstance(sub, ast.Dict):
                    for key_node in sub.keys:
                        key = _constant_str(key_node)
                        if key is not None:
                            out.append((node.name, key, key_node.lineno))
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Subscript):
                            key = _constant_str(target.slice)
                            if key is not None:
                                out.append((node.name, key, target.lineno))
    return out


def _string_constants(tree: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


@register_analysis_rule("schema-drift")
class SchemaDriftRule(AnalysisRule):
    """to_dict() payload keys must be known to the schema validators.

    Compares every constant key emitted by a ``to_dict`` method in
    ``api/results.py`` against the string constants of
    ``api/schema.py`` (the validator vocabulary, including the
    ``METRICS_KEYS``/``TENANT_KEYS`` tables).  A producer emitting a key
    the validators never name is schema drift: the frozen-v1 guarantee
    would silently stop covering the new key.
    """

    id = "schema-drift"
    family = "consistency"
    description = (
        "every payload key emitted by a to_dict() in api/results.py "
        "must be named in the api/schema.py validators"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        results = project.module_by_suffix("api/results.py")
        if results is None:
            return
        schema = project.module_by_suffix("api/schema.py")
        schema_tree: Optional[ast.AST] = schema.tree if schema else None
        if schema_tree is None:
            # Linting results.py alone: read its sibling off disk.
            sibling = results.path.parent / "schema.py"
            try:
                schema_tree = ast.parse(sibling.read_text())
            except (OSError, SyntaxError):
                return
        vocabulary = _string_constants(schema_tree)
        seen: Set[Tuple[str, str]] = set()
        for class_name, key, line in _emitted_keys(results.tree):
            if key in vocabulary or (class_name, key) in seen:
                continue
            seen.add((class_name, key))
            yield self.finding(
                results,
                None,
                f"{class_name}.to_dict() emits payload key {key!r} that "
                f"api/schema.py never validates; extend the schema "
                f"validator (additively) or drop the key",
                line=line,
            )
