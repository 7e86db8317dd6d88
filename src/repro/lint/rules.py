"""The per-file determinism rules DET001, DET003, DET005, DET007 and
DET008, tuned to this codebase.

The ambient-entropy rule DET002 needs the symbol table and call graph,
so it is a project rule (``lint/project_rules.py``).  DET004 is retired.
Codes are never renumbered or reused, because pragmas and SARIF
fingerprints name them.

Every rule encodes one invariant the reproduction's determinism contract
rests on (byte-identical sweeps at any ``--jobs N`` and on the reference
coverage predicates).  The rules are syntactic: they reason about evident producers
(``set(...)`` calls, ``Topology.neighbors``-style set-returning methods)
and evident sinks (list building, first-match ``break``, RNG draws),
never about inferred types — a deliberate trade that keeps the pass
stdlib-only, fast, and free of import-time side effects.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Iterator, List, NamedTuple, Optional

from .findings import Finding
from .registry import LintContext, Rule, path_parts, register

__all__ = ["is_unordered_expr"]

#: Methods known (in this codebase) to return ``set``/``frozenset``
#: values: ``Topology.neighbors``, k-hop queries, and the stdlib set
#: algebra.  ``dict.keys()`` rides along: its order is the dict's
#: insertion order, which is itself unordered-derived in the flagged
#: patterns.
SET_RETURNING_METHODS = frozenset(
    {
        "neighbors",
        "closed_neighbors",
        "k_hop_neighbors",
        "keys",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
    }
)

#: Consumers whose result does not depend on the iteration order of
#: their argument — interposing one of these launders an unordered
#: producer.  (``sum`` is only order-safe for ints; float accumulation
#: in metrics paths is DET007's concern.)
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {
        "sorted",
        "min",
        "max",
        "sum",
        "len",
        "set",
        "frozenset",
        "any",
        "all",
        "fsum",
        "mask_of",
    }
)


def is_unordered_expr(node: ast.AST) -> bool:
    """Whether ``node`` syntactically evaluates to an unordered iterable.

    Recognises set literals and comprehensions, ``set()``/``frozenset()``
    constructor calls, calls of known set-returning methods
    (:data:`SET_RETURNING_METHODS`), and set-algebra binary operations
    whose either operand is itself unordered.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_unordered_expr(node.left) or is_unordered_expr(node.right)
    return False


def _consumer_name(node: ast.AST) -> Optional[str]:
    """The called name when ``node`` is ``name(...)`` or ``obj.name(...)``."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


@register
class UnorderedIterationRule(Rule):
    """DET001: unordered iteration flowing into an order-sensitive sink."""

    code = "DET001"
    name = "unordered-iteration-order-sink"
    description = (
        "Iteration over a bare set/frozenset/dict.keys() (or a "
        "set-returning method such as Topology.neighbors) feeds an "
        "order-sensitive sink — list building, first-match break, a "
        "value-dependent return/yield, an RNG draw, or event emission — "
        "without an interposed sorted()/NodeIndex ordering."
    )

    #: Method calls inside a loop body that make iteration order observable.
    SINK_METHODS = {
        "append": "list building",
        "extend": "list building",
        "insert": "list building",
        "appendleft": "deque building",
        "publish": "event emission",
        "emit": "event emission",
        "choice": "an RNG draw",
        "choices": "an RNG draw",
        "shuffle": "an RNG draw",
        "sample": "an RNG draw",
    }

    def applies_to(self, path: str) -> bool:
        return "tests" not in path_parts(path)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and is_unordered_expr(node.iter):
                sink = self._first_sink(node.body + node.orelse)
                if sink is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"loop over an unordered iterable feeds {sink}; "
                        "interpose sorted() (or iterate a NodeIndex order)",
                    )
            elif isinstance(node, ast.ListComp) and is_unordered_expr(
                node.generators[0].iter
            ):
                if not self._consumed_order_insensitively(ctx, node):
                    yield ctx.finding(
                        self,
                        node,
                        "list built from an unordered iterable inherits an "
                        "arbitrary element order; wrap the source in sorted()",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: LintContext, node: ast.Call) -> Iterator[Finding]:
        name = _consumer_name(node)
        if name in ("list", "tuple", "enumerate") and node.args:
            argument = node.args[0]
            if is_unordered_expr(argument) or (
                isinstance(argument, ast.GeneratorExp)
                and is_unordered_expr(argument.generators[0].iter)
            ):
                if not self._consumed_order_insensitively(ctx, node):
                    yield ctx.finding(
                        self,
                        node,
                        f"{name}() materialises an unordered iterable in "
                        "arbitrary order; interpose sorted()",
                    )
        elif (
            name == "join"
            and isinstance(node.func, ast.Attribute)
            and node.args
            and (
                is_unordered_expr(node.args[0])
                or (
                    isinstance(node.args[0], ast.GeneratorExp)
                    and is_unordered_expr(node.args[0].generators[0].iter)
                )
            )
        ):
            yield ctx.finding(
                self,
                node,
                "str.join over an unordered iterable renders in arbitrary "
                "order; interpose sorted()",
            )

    def _consumed_order_insensitively(
        self, ctx: LintContext, node: ast.AST
    ) -> bool:
        parent = ctx.parent(node)
        return (
            parent is not None
            and _consumer_name(parent) in ORDER_INSENSITIVE_CONSUMERS
        )

    def _first_sink(self, body: List[ast.stmt]) -> Optional[str]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Break):
                    return "a first-match break"
                if isinstance(node, ast.Return) and not self._constant_result(
                    node.value
                ):
                    return "a value-dependent return"
                if isinstance(
                    node, (ast.Yield, ast.YieldFrom)
                ) and not self._constant_result(getattr(node, "value", None)):
                    return "a yield"
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    label = self.SINK_METHODS.get(node.func.attr)
                    if label is not None:
                        return label
        return None

    @staticmethod
    def _constant_result(value: Optional[ast.AST]) -> bool:
        """``return``/``yield`` of a constant is order-insensitive."""
        return value is None or isinstance(value, ast.Constant)


class _Owner(NamedTuple):
    """One row of :class:`OwnershipRule`'s table: private state and the
    only module allowed to touch it on a foreign instance."""

    #: The owning module's file name; ``None`` when no module is exempt.
    module: Optional[str]
    #: How messages name the owner.
    owner: str
    #: The public route messages point to instead.
    route: str
    attrs: FrozenSet[str]
    methods: FrozenSet[str] = frozenset()


@register
class OwnershipRule(Rule):
    """DET003: private state touched from outside its owner."""

    code = "DET003"
    name = "foreign-state-mutation"
    description = (
        "Writes, del statements or mutator calls on another instance's "
        "private state, and calls to its private methods, outside the "
        "module that owns that state.  Two owners: every instance's "
        "version-guarded caches (_query_cache, _derived_cache) and "
        "Topology's adjacency and delta bookkeeping (_adj, _rows, "
        "_version; _bump_epoch, _cached, _apply_delta_fast).  "
        "Caches, dirty tracking and a mask-built graph's "
        "lazily decoded adjacency stay coherent only while every change "
        "goes through the owner's API."
    )

    MUTATORS = frozenset(
        {"clear", "update", "pop", "popitem", "setdefault", "add", "discard"}
    )
    OWNERS = (
        _Owner(
            None,
            "the owning instance",
            "mutate through the owner's API so the version guard sees it",
            frozenset({"_query_cache", "_derived_cache"}),
        ),
        _Owner(
            "topology.py",
            "Topology",
            "apply structural changes through apply_delta or the public "
            "mutators",
            frozenset({"_version", "_adj", "_rows"}),
            frozenset({"_bump_epoch", "_cached", "_apply_delta_fast"}),
        ),
    )

    def applies_to(self, path: str) -> bool:
        return "tests" not in path_parts(path)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        owners = [row for row in self.OWNERS if row.module != ctx.parts[-1]]
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.Delete)):
                verb = "write to" if isinstance(node, ast.Assign) else "del on"
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                verb, targets = "write to", [node.target]
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                message = self._call_message(node.func, owners)
                if message is not None:
                    yield ctx.finding(self, node, message)
                continue
            else:
                continue
            for target in targets:
                for row in owners:
                    attribute = _foreign_attribute(target, row.attrs)
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"{verb} {attribute} outside {row.owner}; "
                            f"{row.route}",
                        )
                        break

    def _call_message(
        self, func: ast.Attribute, owners: List[_Owner]
    ) -> Optional[str]:
        method = func.attr
        for row in owners:
            if method in row.methods and _foreign_base(func.value):
                return (
                    f"call to the private {method}() on a foreign "
                    f"instance bypasses {row.owner}; {row.route}"
                )
            if method in self.MUTATORS:
                attribute = _foreign_attribute(func.value, row.attrs)
                if attribute is not None:
                    return (
                        f"{attribute}.{method}() outside {row.owner}; "
                        f"{row.route}"
                    )
        return None


def _foreign_base(base: ast.AST) -> bool:
    return not (isinstance(base, ast.Name) and base.id in ("self", "cls"))


def _foreign_attribute(
    node: ast.AST, attrs: FrozenSet[str]
) -> Optional[str]:
    """``obj._attr`` (through any subscripts) with ``_attr`` in ``attrs``
    and ``obj`` not ``self``/``cls``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and node.attr in attrs
        and _foreign_base(node.value)
    ):
        return node.attr
    return None


@register
class FrozenEventRule(Rule):
    """DET005: event dataclasses must be frozen."""

    code = "DET005"
    name = "non-frozen-event-dataclass"
    description = (
        "A dataclass in an events module must declare frozen=True — "
        "events are published to arbitrary subscribers, and a mutable "
        "event lets an observer rewrite history other consumers (and "
        "the JSONL round-trip) already saw."
    )

    def applies_to(self, path: str) -> bool:
        return path_parts(path)[-1:] == ("events.py",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if self._is_bare_dataclass(decorator):
                    yield ctx.finding(
                        self,
                        node,
                        f"event dataclass {node.name} is not frozen; "
                        "declare @dataclass(frozen=True)",
                    )
                elif self._is_unfrozen_dataclass_call(decorator):
                    yield ctx.finding(
                        self,
                        node,
                        f"event dataclass {node.name} must set frozen=True",
                    )

    @staticmethod
    def _dataclass_name(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "dataclass") or (
            isinstance(node, ast.Attribute) and node.attr == "dataclass"
        )

    def _is_bare_dataclass(self, decorator: ast.AST) -> bool:
        return self._dataclass_name(decorator)

    def _is_unfrozen_dataclass_call(self, decorator: ast.AST) -> bool:
        if not (
            isinstance(decorator, ast.Call)
            and self._dataclass_name(decorator.func)
        ):
            return False
        for keyword in decorator.keywords:
            if keyword.arg == "frozen":
                return not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                )
        return True


@register
class FloatAccumulationRule(Rule):
    """DET007: float sums over unordered iterables in metrics paths."""

    code = "DET007"
    name = "unordered-float-accumulation"
    description = (
        "sum() over an unordered iterable in metrics/analysis code — "
        "float addition is not associative, so the total depends on "
        "set iteration order; sort the operands or use math.fsum "
        "(which is correctly rounded and therefore order-independent)."
    )

    def applies_to(self, path: str) -> bool:
        return self._in_dirs(path, ("metrics", "analysis"))

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
            ):
                continue
            argument = node.args[0]
            unordered = is_unordered_expr(argument) or (
                isinstance(argument, (ast.GeneratorExp, ast.ListComp))
                and is_unordered_expr(argument.generators[0].iter)
            )
            if unordered:
                yield ctx.finding(
                    self,
                    node,
                    "sum() over an unordered iterable is order-dependent "
                    "for floats; sort the operands or use math.fsum",
                )


@register
class ExceptionSwallowRule(Rule):
    """DET008: silently swallowed exceptions in engine/scheduler paths."""

    code = "DET008"
    name = "swallowed-exception"
    description = (
        "except Exception (or a bare except) whose body only passes, "
        "inside sim/ or core/ — a swallowed error in the engine or "
        "scheduler silently desynchronises a run from its replay; "
        "handle the specific exception or let it propagate."
    )

    BROAD = frozenset({"Exception", "BaseException"})

    def applies_to(self, path: str) -> bool:
        return self._in_dirs(path, ("sim", "core"))

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._swallows(node.body):
                yield ctx.finding(
                    self,
                    node,
                    "broad except silently swallows errors in a "
                    "simulation path; narrow the exception or re-raise",
                )

    def _is_broad(self, handler_type: Optional[ast.AST]) -> bool:
        if handler_type is None:
            return True
        if isinstance(handler_type, ast.Name):
            return handler_type.id in self.BROAD
        if isinstance(handler_type, ast.Tuple):
            return any(self._is_broad(element) for element in handler_type.elts)
        return False

    @staticmethod
    def _swallows(body: Iterable[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # a docstring or Ellipsis is still a swallow
            return False
        return True
