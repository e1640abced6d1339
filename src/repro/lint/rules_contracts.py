"""Contract rules: the duck-typed interfaces and the pool boundary.

The repo's extension points are deliberately duck-typed — ``ResultSink``
consumers, ``FaultAdversary`` models, ``ProtocolNode`` implementations —
and its registries (``ADVERSARIES``, ``PROTOCOLS``) ship their entries
across the multiprocessing boundary.  Nothing checks either contract
until a sweep breaks: a sink whose ``emit`` has the wrong arity dies on
the first completed run, a lambda registered as a protocol factory dies
only under ``spawn``.  These rules check both at the AST, where the cost
of being wrong is a lint line instead of a dead sweep.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .context import ModuleContext
from .engine import BaseRule, register_rule
from .findings import Finding

__all__ = ["ContractConformanceRule", "PickleSafetyRule"]


#: Registries whose values cross the pool boundary (pickled into spawn
#: workers or shipped inside task payloads).
_REGISTRIES = {"ADVERSARIES", "PROTOCOLS"}

#: ``register_*`` helpers feeding those registries.
_REGISTER_CALLS = {"register_protocol", "register_adversary"}


def _local_defs(tree: ast.Module) -> Set[str]:
    """Names of functions/classes defined at non-module scope."""
    local: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is node:
                    continue
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    local.add(sub.name)
    return local


@register_rule
class PickleSafetyRule(BaseRule):
    """REP104 — everything registered or pool-bound must be picklable."""

    id = "REP104"
    title = "unpicklable registration"
    rationale = (
        "registry entries and pool initializers are pickled into worker "
        "processes under the spawn start method; lambdas, nested functions "
        "and local classes are not picklable, so the sweep dies only when "
        "it first runs on a spawn platform"
    )

    def _offender(self, node: ast.AST, local_defs: Set[str]) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name) and node.id in local_defs:
            return f"locally-defined {node.id!r}"
        return None

    def _check_value(
        self, context: ModuleContext, node: ast.AST, where: str, local_defs: Set[str]
    ) -> Iterator[Finding]:
        offender = self._offender(node, local_defs)
        if offender is not None:
            yield self.finding(
                context,
                node,
                f"{offender} {where} is not picklable under the spawn "
                "start method; use a module-level function or class",
            )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        local_defs = _local_defs(context.tree)
        dotted = context.dotted_name
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    # REGISTRY["name"] = value
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in _REGISTRIES
                    ):
                        yield from self._check_value(
                            context,
                            node.value,
                            f"stored in {target.value.id}",
                            local_defs,
                        )
                    # REGISTRY = {"name": value, ...}
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in _REGISTRIES
                        and isinstance(node.value, ast.Dict)
                    ):
                        for value in node.value.values:
                            yield from self._check_value(
                                context,
                                value,
                                f"stored in {target.id}",
                                local_defs,
                            )
            elif isinstance(node, ast.Call):
                name = dotted(node.func) or ""
                base = name.rsplit(".", maxsplit=1)[-1]
                # REGISTRY.update({...}) / REGISTRY.setdefault(k, v)
                if (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in _REGISTRIES
                    and node.func.attr in {"update", "setdefault"}
                ):
                    registry = node.func.value.id
                    for arg in node.args:
                        values = arg.values if isinstance(arg, ast.Dict) else [arg]
                        for value in values:
                            yield from self._check_value(
                                context, value, f"stored in {registry}", local_defs
                            )
                elif base in _REGISTER_CALLS:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        yield from self._check_value(
                            context, arg, f"passed to {base}()", local_defs
                        )
                # pool initializer / per-task callables shipped to workers
                for keyword in node.keywords:
                    if keyword.arg == "initializer":
                        yield from self._check_value(
                            context,
                            keyword.value,
                            "passed as a pool initializer",
                            local_defs,
                        )


#: (method name -> positional arity including self) per duck-typed
#: contract.  ``None`` in the required set means the method is optional;
#: arity is checked whenever the method is defined.
_CONTRACTS: Dict[str, Dict[str, int]] = {
    "ResultSink": {
        "emit": 6,  # (self, spec_name, topology_index, seed_index, result, wall_clock_seconds)
        "close": 1,
        "abort": 1,
    },
    "FaultAdversary": {
        "on_message": 7,  # (self, round, sender, s_port, receiver, r_port, message)
        "node_active": 3,
        "node_crashed": 3,
        "begin_round": 2,
        "attach": 4,
        "describe": 1,
    },
    "ProtocolNode": {
        "step": 3,  # (self, round_index, inbox)
        "quiescent_until": 2,
        "result": 1,
    },
}

#: Methods a *direct* implementer must define (the rest are optional
#: overrides of working defaults).
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "ProtocolNode": ("step",),
}


def _positional_arity(args: ast.arguments) -> Optional[int]:
    """Positional parameter count, or ``None`` when *args/**kwargs make the
    signature open-ended (duck-typed wrappers get a pass)."""
    if args.vararg is not None or args.kwarg is not None:
        return None
    return len(args.posonlyargs) + len(args.args)


@register_rule
class ContractConformanceRule(BaseRule):
    """REP105 — implementers of the duck-typed contracts match them."""

    id = "REP105"
    title = "contract mismatch"
    rationale = (
        "ResultSink/FaultAdversary/ProtocolNode are duck-typed: a missing "
        "or wrong-arity method is only discovered when the driver first "
        "calls it, typically hours into a sweep; the expected signatures "
        "are static facts the AST can hold against every implementer"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            contracts = []
            for base in node.bases:
                name = context.dotted_name(base) or ""
                tail = name.rsplit(".", maxsplit=1)[-1]
                if tail in _CONTRACTS:
                    contracts.append(tail)
            if not contracts:
                continue
            methods: Dict[str, ast.FunctionDef] = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            is_abstract = self._is_abstract(context, node, methods)
            for contract in contracts:
                yield from self._check_contract(
                    context, node, contract, methods, is_abstract
                )

    def _is_abstract(
        self,
        context: ModuleContext,
        node: ast.ClassDef,
        methods: Dict[str, ast.FunctionDef],
    ) -> bool:
        # An intermediate base (ABC or a class leaving `step` to its own
        # subclasses) is recognised by abstractmethod decorators or an ABC
        # base; requiring `step` of it would flag legitimate hierarchies.
        for base in node.bases:
            name = context.dotted_name(base) or ""
            if name.rsplit(".", maxsplit=1)[-1] in {"ABC", "ABCMeta"}:
                return True
        for method in methods.values():
            for decorator in method.decorator_list:
                name = context.dotted_name(decorator) or ""
                if name.rsplit(".", maxsplit=1)[-1] == "abstractmethod":
                    return True
        return False

    def _check_contract(
        self,
        context: ModuleContext,
        node: ast.ClassDef,
        contract: str,
        methods: Dict[str, ast.FunctionDef],
        is_abstract: bool,
    ) -> Iterator[Finding]:
        expected = _CONTRACTS[contract]
        for required in _REQUIRED.get(contract, ()):
            if required not in methods and not is_abstract:
                yield self.finding(
                    context,
                    node,
                    f"{node.name} subclasses {contract} but does not define "
                    f"{required}(); the contract's required method would "
                    "raise only when the simulator first steps it",
                )
        for name, arity in expected.items():
            method = methods.get(name)
            if method is None:
                continue
            actual = _positional_arity(method.args)
            if actual is not None and actual != arity:
                yield self.finding(
                    context,
                    method,
                    f"{node.name}.{name}() takes {actual} positional "
                    f"parameter(s) but the {contract} contract calls it "
                    f"with {arity}; the mismatch raises at the first call",
                )
        if (
            contract == "ProtocolNode"
            and "quiescent_until" in methods
            and "step" not in methods
        ):
            yield self.finding(
                context,
                methods["quiescent_until"],
                f"{node.name} overrides quiescent_until() without "
                "overriding step(): the quiescence declaration promises "
                "empty-inbox steps are no-ops, which only the class "
                "defining step() can guarantee",
            )
