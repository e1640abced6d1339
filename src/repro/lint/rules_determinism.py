"""Determinism rules: the discipline the equivalence suite enforces at run
time, checked at the AST.

Every guarantee this reproduction makes — bit-identical results across
the serial/pooled/spawn/sharded backends, resumable checkpoints —
reduces to a handful of source-level invariants: all randomness flows
from seeded per-label RNG streams (REP101), no wall-clock reading can
reach a result path (REP102), nothing iterates an unordered collection
into an ordered effect (REP103), exact accumulators stay exact (REP106),
no mutable default aliases state across calls (REP107), and no worker
swallows the exception that would have explained a diverging sweep
(REP108).  A violation caught here costs seconds; the same violation
caught by a flaky cross-backend diff costs a sweep.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .context import ModuleContext
from .engine import BaseRule, register_rule
from .findings import Finding

__all__ = [
    "ExactAccumulationRule",
    "MutableDefaultRule",
    "SwallowedExceptionRule",
    "UnorderedIterationRule",
    "UnseededRngRule",
    "WallClockRule",
]


def _iter_scopes(tree: ast.Module):
    """Yield ``(scope_node, body)`` for the module and every function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _walk_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a scope's statements without descending into nested functions.

    Nested functions are their own scopes (yielded separately by
    :func:`_iter_scopes`); descending into them from the enclosing scope
    would visit — and report — their nodes twice.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


@register_rule
class UnseededRngRule(BaseRule):
    """REP101 — randomness must come from seeded, private RNG streams."""

    id = "REP101"
    title = "unseeded RNG"
    rationale = (
        "the global `random` module and seedless `random.Random()` draw "
        "from interpreter-wide state; runs stop being a function of the "
        "experiment seed and serial/parallel equivalence breaks"
    )

    #: Module-level functions of :mod:`random` that draw from (or mutate)
    #: the shared global generator.
    _GLOBAL_DRAWS = {
        "random.betavariate",
        "random.choice",
        "random.choices",
        "random.expovariate",
        "random.gauss",
        "random.getrandbits",
        "random.randint",
        "random.random",
        "random.randrange",
        "random.sample",
        "random.seed",
        "random.shuffle",
        "random.uniform",
    }

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            target = context.dotted_name(node.func)
            if target in self._GLOBAL_DRAWS:
                yield self.finding(
                    context,
                    node,
                    f"{target}() draws from the process-global RNG; draw "
                    "from a seeded per-label stream (repro.core.rng."
                    "derive_seed -> random.Random(seed)) instead",
                )
            elif target == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    context,
                    node,
                    "random.Random() without a seed is seeded from the OS; "
                    "pass a derive_seed(...)-derived seed so the stream is "
                    "a function of the experiment seed",
                )


@register_rule
class WallClockRule(BaseRule):
    """REP102 — wall-clock reads live in ``repro.obs``, nowhere else."""

    id = "REP102"
    title = "wall-clock access"
    rationale = (
        "time.time/perf_counter/datetime.now readings are nondeterministic; "
        "outside the injectable-clock layer (repro.obs Stopwatch/span) they "
        "can leak into result paths and break bit-equivalence"
    )

    _CLOCKS = {
        "datetime.date.today",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
    }

    def applies_to(self, display_path: str) -> bool:
        # repro.obs *is* the injectable-clock allowlist: the one layer
        # allowed to touch real clocks, everything else injects them.
        return "repro/obs/" not in display_path

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            target = context.dotted_name(node.func)
            if target in self._CLOCKS:
                yield self.finding(
                    context,
                    node,
                    f"{target}() outside repro.obs: time elapsed intervals "
                    "with repro.obs.Stopwatch (injectable clock) or wrap the "
                    "region in repro.obs.span(...)",
                )


def _is_unordered_expr(node: ast.AST, dotted) -> bool:
    """Whether an expression evaluates to a set/frozenset (syntactically)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted(node.func) in {"set", "frozenset"}
    return False


def _unordered_names(body: List[ast.stmt], dotted) -> Set[str]:
    """Names bound (exactly once, to a set expression) in this scope."""
    bound: Dict[str, int] = {}
    unordered: Set[str] = set()
    for sub in _walk_scope(body):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            if isinstance(target, ast.Name):
                bound[target.id] = bound.get(target.id, 0) + 1
                if _is_unordered_expr(sub.value, dotted):
                    unordered.add(target.id)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            target = sub.target
            if isinstance(target, ast.Name):
                bound[target.id] = bound.get(target.id, 0) + 1
    # A name rebound more than once may no longer hold the set; stay
    # conservative and only track single-assignment names.
    return {name for name in unordered if bound.get(name) == 1}


@register_rule
class UnorderedIterationRule(BaseRule):
    """REP103 — never iterate a set into an ordered effect."""

    id = "REP103"
    title = "unordered iteration"
    rationale = (
        "set/frozenset iteration order depends on hashes and insertion "
        "history; feeding it into message emission, result accumulation or "
        "any ordered output makes runs diverge between backends"
    )

    #: Order-independent reducers that may safely consume a set directly.
    _SAFE_CONSUMERS = {"all", "any", "frozenset", "len", "max", "min", "set", "sorted"}
    #: Order-*dependent* converters: the produced sequence fixes an order.
    _ORDERING_CONSUMERS = {"enumerate", "iter", "list", "reversed", "tuple"}

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        dotted = context.dotted_name
        for scope, body in _iter_scopes(context.tree):
            tracked = _unordered_names(body, dotted)

            def unordered(node: ast.AST) -> bool:
                if _is_unordered_expr(node, dotted):
                    return True
                return isinstance(node, ast.Name) and node.id in tracked

            for node in _walk_scope(body):
                if isinstance(node, ast.For) and unordered(node.iter):
                    yield self.finding(
                        context,
                        node.iter,
                        "iterating a set/frozenset: order is not "
                        "deterministic across processes; iterate "
                        "sorted(...) (or keep a list/dict alongside the "
                        "set)",
                    )
                elif isinstance(node, ast.ListComp):
                    # A list comprehension fixes an order; set/dict
                    # comprehensions and generator expressions stay lazy or
                    # unordered and are judged at their consumer instead.
                    for generator in node.generators:
                        if unordered(generator.iter):
                            yield self.finding(
                                context,
                                generator.iter,
                                "list comprehension over a set/frozenset "
                                "builds an ordered sequence from unordered "
                                "input; iterate sorted(...) instead",
                            )
                elif isinstance(node, ast.Call):
                    name = dotted(node.func)
                    if (
                        name in self._ORDERING_CONSUMERS
                        and node.args
                        and unordered(node.args[0])
                    ):
                        yield self.finding(
                            context,
                            node,
                            f"{name}() over a set/frozenset fixes a "
                            "nondeterministic order; wrap the argument in "
                            "sorted(...)",
                        )
                    elif (
                        name and name.endswith(".join")
                        and node.args
                        and unordered(node.args[0])
                    ):
                        yield self.finding(
                            context,
                            node,
                            "str.join over a set/frozenset produces a "
                            "nondeterministic string; join sorted(...) "
                            "instead",
                        )


@register_rule
class ExactAccumulationRule(BaseRule):
    """REP106 — streaming accumulators stay exact (and therefore
    order-independent)."""

    id = "REP106"
    title = "inexact accumulation"
    rationale = (
        "float += is neither associative nor commutative, so a float "
        "running sum depends on completion order; the streaming cell "
        "accumulators owe their fold-order independence to exact "
        "int/Fraction arithmetic"
    )

    #: Accumulator attributes that are *documented* as wall-clock (the one
    #: legitimately nondeterministic measurement, excluded from every
    #: equivalence guarantee).
    _EXEMPT_MARKERS = ("wall_clock", "seconds")
    #: Calls whose results are exact by construction (``_exact_sum`` and
    #: ``_exact_sum_of_squares`` are the streaming fold's column sums).
    _EXACT_CALLS = {
        "Fraction",
        "_exact",
        "_exact_sum",
        "_exact_sum_of_squares",
        "fractions.Fraction",
        "int",
        "len",
    }

    def _is_exact(self, node: ast.AST, attr: str, dotted) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, int) and not isinstance(node.value, bool)
        if isinstance(node, ast.Call):
            return dotted(node.func) in self._EXACT_CALLS
        if isinstance(node, ast.Attribute):
            # merge pattern: self.sum_x += other.sum_x — exact by induction.
            return node.attr == attr
        if isinstance(node, ast.BinOp):
            return self._is_exact(node.left, attr, dotted) and self._is_exact(
                node.right, attr, dotted
            )
        if isinstance(node, ast.IfExp):
            return self._is_exact(node.body, attr, dotted) and self._is_exact(
                node.orelse, attr, dotted
            )
        return False

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        dotted = context.dotted_name
        for node in ast.walk(context.tree):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr.startswith("sum_")
            ):
                attr = node.target.attr
                if any(marker in attr for marker in self._EXEMPT_MARKERS):
                    continue
                if not self._is_exact(node.value, attr, dotted):
                    yield self.finding(
                        context,
                        node,
                        f"{attr} += <non-exact value>: accumulate "
                        "int/Fraction (wrap floats in _exact()/Fraction) so "
                        "the fold is order-independent",
                    )
            elif isinstance(node, ast.Call) and dotted(node.func) == "sum":
                if node.args and _is_unordered_expr(node.args[0], dotted):
                    yield self.finding(
                        context,
                        node,
                        "sum() over a set/frozenset: float sums depend on "
                        "iteration order; sum sorted(...) or keep exact "
                        "types",
                    )


@register_rule
class MutableDefaultRule(BaseRule):
    """REP107 — no mutable default arguments."""

    id = "REP107"
    title = "mutable default argument"
    rationale = (
        "a mutable default is one shared object across every call — state "
        "leaks between runs and, pickled into a spawn worker, between "
        "processes; default to None and allocate inside"
    )

    _MUTABLE_CALLS = {
        "bytearray",
        "collections.OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "dict",
        "list",
        "set",
    }

    def _is_mutable(self, node: ast.AST, dotted) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted(node.func) in self._MUTABLE_CALLS
        return False

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        dotted = context.dotted_name
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default, dotted):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        context,
                        default,
                        f"mutable default argument in {name}(): one object "
                        "is shared across all calls; default to None and "
                        "allocate per call",
                    )


@register_rule
class SwallowedExceptionRule(BaseRule):
    """REP108 — no silently swallowed broad exceptions."""

    id = "REP108"
    title = "swallowed exception"
    rationale = (
        "a bare `except:` (or a broad handler whose body is `pass`) in a "
        "worker or scheduler path turns a diverging run into a silently "
        "wrong sweep; catch narrowly, or record before continuing"
    )

    _BROAD = {"BaseException", "Exception"}

    def _names(self, node: Optional[ast.AST], dotted) -> List[str]:
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            return [name for elt in node.elts for name in self._names(elt, dotted)]
        name = dotted(node)
        return [name] if name else []

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        dotted = context.dotted_name
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    context,
                    node,
                    "bare `except:` also catches KeyboardInterrupt/"
                    "SystemExit; name the exceptions this path expects",
                )
                continue
            body_is_silent = all(
                isinstance(stmt, ast.Pass)
                or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
                for stmt in node.body
            )
            if body_is_silent and any(
                name in self._BROAD for name in self._names(node.type, dotted)
            ):
                yield self.finding(
                    context,
                    node,
                    "broad exception silently swallowed (`except Exception: "
                    "pass`); narrow the type or record the failure before "
                    "continuing",
                )
