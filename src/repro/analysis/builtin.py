"""Built-in determinism and invariant rules (DET001..DET007).

Each rule encodes one invariant the reproduction's golden regression relies
on; ``docs/determinism.md`` catalogues them with rationale and real
before/after examples.  The rules are registered at import time, so simply
importing :mod:`repro.analysis` makes them available to the engine.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.rules import ModuleContext, Rule, register_rule

#: packages whose draw/merge paths feed the goldens (DET003 scope).
ORDERED_ITERATION_PACKAGES = frozenset({"core", "sim", "workload", "overlay"})

#: packages whose value classes sit on the event hot path (DET005 scope).
HOT_PATH_PACKAGES = frozenset(
    {"core", "sim", "datastructures", "workload", "overlay"}
)

#: the only package allowed to read the wall clock (perf measurement).
WALL_CLOCK_EXEMPT_PACKAGES = frozenset({"perf"})


def _dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Resolve ``a.b.c`` chains to ``("a", "b", "c")``; None otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _import_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Local names bound to ``import <module>`` (honouring ``as`` aliases)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """``{local_name: original_name}`` for ``from <module> import ...``."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


class NoGlobalRandomRule(Rule):
    """DET001: all randomness must flow through injected, seeded streams."""

    rule_id = "DET001"
    title = "no module-level `random` / unseeded Random()"
    rationale = (
        "Module-level `random.*` draws share one hidden global stream and "
        "an unseeded `Random()` seeds from OS entropy; both break "
        "(configuration, seed) -> output determinism.  Use an injected "
        "`random.Random` or a named `RandomStreams` stream."
    )

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        tree = context.tree
        aliases = _import_aliases(tree, "random")
        from_names = _from_imports(tree, "random")
        for local, original in from_names.items():
            if original != "Random":
                for node in ast.walk(tree):
                    if (
                        isinstance(node, ast.ImportFrom)
                        and node.module == "random"
                        and any((a.asname or a.name) == local for a in node.names)
                    ):
                        yield node, (
                            f"`from random import {original}` binds the "
                            "module-level global stream; import Random and "
                            "seed it explicitly"
                        )
                        break
        random_class_names = {
            local for local, original in from_names.items() if original == "Random"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in aliases:
                    if func.attr == "Random":
                        if not node.args and not node.keywords:
                            yield node, (
                                "unseeded `random.Random()` draws its seed "
                                "from OS entropy; pass an explicit seed"
                            )
                    else:
                        yield node, (
                            f"`random.{func.attr}(...)` uses the global "
                            "module-level stream; draw from an injected "
                            "Random or a named stream instead"
                        )
            elif isinstance(func, ast.Name) and func.id in random_class_names:
                if not node.args and not node.keywords:
                    yield node, (
                        "unseeded `Random()` draws its seed from OS "
                        "entropy; pass an explicit seed"
                    )


#: canonical dotted names that read the wall clock / monotonic clocks.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoWallClockRule(Rule):
    """DET002: simulated time only — the wall clock is for the perf package."""

    rule_id = "DET002"
    title = "no wall-clock reads outside repro.perf"
    rationale = (
        "Simulation logic must depend on simulated time alone; "
        "`time.time()` / `time.monotonic()` / `datetime.now()` make runs "
        "irreproducible.  Wall-clock measurement belongs to the perf "
        "package (or behind an explicit suppression for pure run-stats)."
    )

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        if context.package() in WALL_CLOCK_EXEMPT_PACKAGES:
            return
        tree = context.tree
        alias_map: Dict[str, str] = {}
        for module in ("time", "datetime"):
            for alias in _import_aliases(tree, module):
                alias_map[alias] = module
        for local, original in _from_imports(tree, "datetime").items():
            alias_map[local] = f"datetime.{original}"
        for local, original in _from_imports(tree, "time").items():
            if f"time.{original}" in _WALL_CLOCK_CALLS:
                alias_map[local] = f"time.{original}"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            head, rest = dotted[0], dotted[1:]
            canonical = ".".join((alias_map.get(head, head),) + rest)
            if canonical in _WALL_CLOCK_CALLS:
                yield node, (
                    f"`{canonical}(...)` reads the wall clock; simulation "
                    "code must use simulated time (wall-clock measurement "
                    "lives in repro.perf)"
                )


def _iter_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module itself plus every (nested) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes.

    Class bodies are traversed (their statements execute in the enclosing
    module scope) but the methods inside them are separate scopes.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically set-valued (or ``dict.keys()``) expressions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return _is_set_expression(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    dotted = _dotted_name(annotation)
    if dotted is None:
        return False
    return dotted[-1] in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}


class OrderedIterationRule(Rule):
    """DET003: iteration order over unordered collections must be pinned."""

    rule_id = "DET003"
    title = "no bare set/frozenset/dict.keys() iteration in draw/merge packages"
    rationale = (
        "Set iteration order follows hash order (salted for str keys), so "
        "any draw, merge or schedule derived from it differs between "
        "interpreter runs.  Inside core/, sim/, workload/ and overlay/, "
        "wrap the iterable in `sorted(...)` (or iterate an ordered "
        "structure) before it feeds a draw or merge."
    )

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        if context.package() not in ORDERED_ITERATION_PACKAGES:
            return
        for scope in _iter_scopes(context.tree):
            yield from self._check_scope(scope)

    def _check_scope(self, scope: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
        set_names: Set[str] = set()
        ambiguous: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            all_args = (
                scope.args.posonlyargs + scope.args.args + scope.args.kwonlyargs
            )
            for arg in all_args:
                if _is_set_annotation(arg.annotation):
                    set_names.add(arg.arg)
                elif arg.annotation is not None:
                    ambiguous.add(arg.arg)
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if _is_set_expression(node.value):
                            set_names.add(target.id)
                        else:
                            ambiguous.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation):
                    set_names.add(node.target.id)
                else:
                    ambiguous.add(node.target.id)
        set_names -= ambiguous

        def is_unordered(expr: ast.AST) -> bool:
            if _is_set_expression(expr):
                return True
            return isinstance(expr, ast.Name) and expr.id in set_names

        def describe(expr: ast.AST) -> str:
            if isinstance(expr, ast.Call) and isinstance(
                expr.func, ast.Attribute
            ) and expr.func.attr == "keys":
                return "`.keys()` view"
            if isinstance(expr, ast.Name):
                return f"set-valued name `{expr.id}`"
            return "set expression"

        for node in _walk_scope(scope):
            iterables: List[ast.AST] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                   ast.DictComp)):
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in {"list", "tuple", "iter", "enumerate"} and (
                    len(node.args) == 1
                ):
                    iterables.append(node.args[0])
            for expr in iterables:
                if is_unordered(expr):
                    yield expr, (
                        f"iteration over {describe(expr)} has "
                        "non-deterministic order on a draw/merge path; wrap "
                        "in `sorted(...)` or iterate an ordered structure"
                    )


#: RandomStreams convenience wrappers whose first argument is a stream name.
_STREAM_WRAPPERS = frozenset(
    {"uniform", "randint", "choice", "sample", "shuffle", "expovariate", "random"}
)

_UNORDERED_NAME_BUILDERS = frozenset({"set", "frozenset", "hash", "id"})


def _name_expression_taint(expr: ast.AST) -> Optional[str]:
    """Why a stream-name expression is non-deterministic, or ``None``."""
    for node in ast.walk(expr):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set display"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _UNORDERED_NAME_BUILDERS:
                return f"`{node.func.id}(...)`"
    return None


class StreamNameRule(Rule):
    """DET004: stream names must be stable across runs and processes."""

    rule_id = "DET004"
    title = "RNG stream names must be literal or built from ordered parts"
    rationale = (
        "Stream seeds are sha-derived from the stream *name*; a name built "
        "from a set display, `hash()` or `id()` differs between runs (hash "
        "salting) or processes (object identity), silently rescoping the "
        "stream.  Build names from literals and ordered, stable fields."
    )

    def _stream_name_argument(self, node: ast.Call) -> Optional[ast.AST]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "stream":
            if node.args:
                return node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "name":
                    return keyword.value
            return None
        dotted = _dotted_name(func)
        if dotted is not None and dotted[-1] == "derive_seed":
            if len(node.args) >= 2:
                return node.args[1]
            for keyword in node.keywords:
                if keyword.arg == "name":
                    return keyword.value
            return None
        if isinstance(func, ast.Attribute) and func.attr in _STREAM_WRAPPERS:
            if node.args and isinstance(
                node.args[0], (ast.JoinedStr, ast.Constant)
            ):
                first = node.args[0]
                if isinstance(first, ast.Constant) and not isinstance(
                    first.value, str
                ):
                    return None
                return first
        return None

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name_expr = self._stream_name_argument(node)
            if name_expr is None:
                continue
            if isinstance(name_expr, ast.Constant):
                continue
            taint = _name_expression_taint(name_expr)
            if taint is not None:
                yield name_expr, (
                    f"RNG stream name is built from {taint}, which is not "
                    "stable across runs/processes; use literals and "
                    "ordered, stable fields"
                )


def _init_is_simple_value_init(init: ast.FunctionDef) -> bool:
    """True when ``__init__`` only validates and assigns ``self.*`` fields."""

    def statement_ok(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return True  # docstring
        if isinstance(stmt, (ast.Assert, ast.Raise, ast.Pass)):
            return True
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                elements = (
                    target.elts if isinstance(target, ast.Tuple) else [target]
                )
                for element in elements:
                    if not (
                        isinstance(element, ast.Attribute)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"
                    ):
                        return False
            return True
        if isinstance(stmt, ast.If):
            return all(statement_ok(s) for s in stmt.body + stmt.orelse)
        return False

    return all(statement_ok(stmt) for stmt in init.body)


class SlotsRule(Rule):
    """DET005: hot-path value classes must declare ``__slots__``."""

    rule_id = "DET005"
    title = "hot-path value classes must declare __slots__"
    rationale = (
        "Value objects on the event hot path are allocated millions of "
        "times per run; a per-instance `__dict__` costs ~3x the memory and "
        "measurably slows attribute access.  Classes whose `__init__` only "
        "assigns fields must declare `__slots__` (see docs/performance.md)."
    )

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        if context.package() not in HOT_PATH_PACKAGES:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.bases or node.keywords or node.decorator_list:
                continue  # bases/decorators may legitimately require __dict__
            init: Optional[ast.FunctionDef] = None
            has_slots = False
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    init = stmt
                for target_holder in (
                    stmt.targets if isinstance(stmt, ast.Assign) else []
                ):
                    if (
                        isinstance(target_holder, ast.Name)
                        and target_holder.id == "__slots__"
                    ):
                        has_slots = True
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                ):
                    has_slots = True
            if init is None or has_slots:
                continue
            if _init_is_simple_value_init(init):
                yield node, (
                    f"value class `{node.name}` in a hot-path package has a "
                    "field-assigning __init__ but no __slots__ declaration"
                )


#: constructors whose call as a default argument shares one mutable instance.
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
    }
)


class MutableDefaultRule(Rule):
    """DET006: no mutable default arguments."""

    rule_id = "DET006"
    title = "no mutable default arguments"
    rationale = (
        "A mutable default is created once at definition time and shared "
        "by every call; state leaking between calls is both a correctness "
        "bug and a determinism hazard (call order changes outcomes).  Use "
        "`None` and construct inside the function."
    )

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        for node in ast.walk(context.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                mutable: Optional[str] = None
                if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                    mutable = {
                        ast.List: "list",
                        ast.Dict: "dict",
                        ast.Set: "set",
                    }[type(default)] + " display"
                elif isinstance(default, (ast.ListComp, ast.SetComp, ast.DictComp)):
                    mutable = "comprehension"
                elif isinstance(default, ast.Call) and isinstance(
                    default.func, ast.Name
                ):
                    if default.func.id in _MUTABLE_FACTORIES:
                        mutable = f"`{default.func.id}(...)` call"
                if mutable is not None:
                    yield default, (
                        f"mutable default argument ({mutable}) is shared "
                        "between calls; default to None and construct "
                        "inside the function"
                    )


#: the only modules that may build an ExperimentRunner (DET007): the Session,
#: and the spawned worker that rebuilds a placed run from its request.
RUNNER_BUILDERS = frozenset({("session",), ("sim", "sharded")})


class OneEntryPointRule(Rule):
    """DET007: every run is a ScenarioSpec through a Session."""

    rule_id = "DET007"
    title = "no ExperimentRunner built outside repro.session and repro.sim.sharded"
    rationale = (
        "A run is described in one place — the spec the service digests, "
        "the goldens pin and the sweeps vary.  A hand-built "
        "`ExperimentRunner` is a second entry point with its own setup; "
        "build a `ScenarioSpec` and run it through `Session` (reaching the "
        "runner as `session.experiment`)."
    )

    def check(self, context: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        if context.repro_parts is None or context.repro_parts in RUNNER_BUILDERS:
            return
        names = {"ExperimentRunner"} | {
            alias.asname
            for node in ast.walk(context.tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name == "ExperimentRunner" and alias.asname
        }
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None and dotted[-1] in names:
                    yield node, (
                        "an `ExperimentRunner` built outside the Session; run "
                        "a `ScenarioSpec` through `Session` instead"
                    )


#: the built-in rule set, registered on import.
BUILTIN_RULES = tuple(
    register_rule(rule)
    for rule in (
        NoGlobalRandomRule(),
        NoWallClockRule(),
        OrderedIterationRule(),
        StreamNameRule(),
        SlotsRule(),
        MutableDefaultRule(),
        OneEntryPointRule(),
    )
)
