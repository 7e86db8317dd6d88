"""The DET001–DET010 determinism rules, tuned to this codebase.

Every rule encodes one invariant the reproduction's determinism contract
rests on (byte-identical sweeps at any ``--jobs N`` and either coverage
backend).  The rules are syntactic: they reason about evident producers
(``set(...)`` calls, ``Topology.neighbors``-style set-returning methods)
and evident sinks (list building, first-match ``break``, RNG draws),
never about inferred types — a deliberate trade that keeps the pass
stdlib-only, fast, and free of import-time side effects.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .registry import LintContext, Rule, path_parts, register

__all__ = ["is_unordered_expr"]

#: Packages whose files run inside a broadcast simulation — the scope of
#: the ambient-entropy and iteration-order rules.
SIM_SCOPE = ("sim", "core", "algorithms", "experiments")

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


@register
class AmbientEntropyRule(Rule):
    """DET002: ambient RNG / wall-clock reads in simulation paths."""

    code = "DET002"
    name = "ambient-entropy"
    description = (
        "Module-level random.*, time.* clock reads, datetime.now, or "
        "os.urandom inside sim/, core/, algorithms/, or experiments/ — "
        "simulation paths must draw from a threaded random.Random "
        "instance so runs replay byte-identically."
    )

    CLOCK_CALLS = frozenset(
        {
            "time",
            "time_ns",
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
        }
    )
    NOW_CALLS = frozenset({"now", "utcnow", "today"})
    DATETIME_ROOTS = frozenset({"datetime", "date"})

    def applies_to(self, path: str) -> bool:
        return self._in_dirs(path, SIM_SCOPE)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                yield from self._check_attribute_call(ctx, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(ctx, node)

    def _check_attribute_call(
        self, ctx: LintContext, node: ast.Call
    ) -> Iterator[Finding]:
        func = node.func
        assert isinstance(func, ast.Attribute)
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "random" and func.attr != "Random":
                yield ctx.finding(
                    self,
                    node,
                    f"random.{func.attr}() draws from the shared module "
                    "RNG; thread a random.Random instance instead",
                )
                return
            if base.id == "time" and func.attr in self.CLOCK_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"time.{func.attr}() reads the wall clock inside a "
                    "simulation path; results must not depend on it",
                )
                return
            if base.id == "os" and func.attr == "urandom":
                yield ctx.finding(
                    self,
                    node,
                    "os.urandom() is OS entropy; thread a seeded "
                    "random.Random instead",
                )
                return
        if func.attr in self.NOW_CALLS and self._rooted_in_datetime(base):
            yield ctx.finding(
                self,
                node,
                f"{func.attr}() reads the wall clock inside a simulation "
                "path; results must not depend on it",
            )

    def _rooted_in_datetime(self, base: ast.AST) -> bool:
        if isinstance(base, ast.Name):
            return base.id in self.DATETIME_ROOTS
        if isinstance(base, ast.Attribute):
            return base.attr in self.DATETIME_ROOTS
        return False

    def _check_import(
        self, ctx: LintContext, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "random":
            bad = [a.name for a in node.names if a.name != "Random"]
            if bad:
                yield ctx.finding(
                    self,
                    node,
                    f"importing {', '.join(bad)} from random binds the "
                    "shared module RNG; import Random and thread an "
                    "instance",
                )
        elif node.module == "time":
            bad = [a.name for a in node.names if a.name in self.CLOCK_CALLS]
            if bad:
                yield ctx.finding(
                    self,
                    node,
                    f"importing {', '.join(bad)} from time pulls wall-clock "
                    "reads into a simulation path",
                )


@register
class CacheMutationRule(Rule):
    """DET003: cache attributes mutated outside the owning object."""

    code = "DET003"
    name = "external-cache-mutation"
    description = (
        "Mutation of a Topology/View cache attribute (_query_cache, "
        "_cache_epoch, _epoch, _derived_cache) from outside the owning "
        "instance — caches are only coherent when every structural "
        "change flows through the epoch-bumping mutators."
    )

    CACHE_ATTRS = frozenset(
        {"_query_cache", "_cache_epoch", "_epoch", "_derived_cache"}
    )
    MUTATORS = frozenset(
        {"clear", "update", "pop", "popitem", "setdefault", "add", "discard"}
    )

    def applies_to(self, path: str) -> bool:
        return "tests" not in path_parts(path)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attribute = self._foreign_cache_attribute(target)
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"write to {attribute} outside the owning "
                            "instance bypasses the epoch guard; mutate "
                            "through the owner's API",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MUTATORS
            ):
                attribute = self._foreign_cache_attribute(node.func.value)
                if attribute is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"{attribute}.{node.func.attr}() outside the owning "
                        "instance bypasses the epoch guard",
                    )

    def _foreign_cache_attribute(self, node: ast.AST) -> Optional[str]:
        """``obj._cache``-style access where ``obj`` is not ``self``."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in self.CACHE_ATTRS:
            base = node.value
            if not (isinstance(base, ast.Name) and base.id in ("self", "cls")):
                return node.attr
        return None


@register
class MemoKeyBackendRule(Rule):
    """DET004: coverage memo keys shared across backends must say which."""

    code = "DET004"
    name = "memo-key-backend-qualifier"
    description = (
        "A _memo() key tag used at more than one call site in "
        "core/coverage.py must carry the backend qualifier ('bitset' / "
        "'sets' literal or the backend variable) in its key tuple — "
        "otherwise flipping REPRO_COVERAGE_BACKEND mid-view serves one "
        "backend's cached value to the other."
    )

    QUALIFIERS = frozenset({"bitset", "sets"})

    def applies_to(self, path: str) -> bool:
        parts = path_parts(path)
        return parts[-1:] == ("coverage.py",) and "tests" not in parts

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        sites: List[Tuple[str, ast.Call, ast.Tuple]] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_memo"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Tuple)
            ):
                key = node.args[1]
                tag = self._leading_tag(key)
                if tag is not None:
                    sites.append((tag, node, key))
        counts: dict = {}
        for tag, _node, _key in sites:
            counts[tag] = counts.get(tag, 0) + 1
        for tag, node, key in sites:
            if counts[tag] >= 2 and not self._qualified(key):
                yield ctx.finding(
                    self,
                    node,
                    f"memo key tag {tag!r} is used at {counts[tag]} call "
                    "sites but this key omits the backend qualifier; add "
                    "'bitset'/'sets' (or the backend variable) to "
                    "the tuple",
                )

    @staticmethod
    def _leading_tag(key: ast.Tuple) -> Optional[str]:
        if key.elts and isinstance(key.elts[0], ast.Constant):
            value = key.elts[0].value
            if isinstance(value, str):
                return value
        return None

    def _qualified(self, key: ast.Tuple) -> bool:
        for element in key.elts:
            if (
                isinstance(element, ast.Constant)
                and element.value in self.QUALIFIERS
            ):
                return True
            if isinstance(element, ast.Name) and element.id == "backend":
                return True
        return False


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
class KwargsPayloadRule(Rule):
    """DET006: **kwargs dicts shipped into multiprocessing payloads."""

    code = "DET006"
    name = "kwargs-in-worker-payload"
    description = (
        "A captured **kwargs dict (or locals()) passed into a pool "
        "dispatch call — the dict's iteration order is the caller's "
        "keyword order, so two call sites produce different payload "
        "bytes for the same logical work item; pass an explicit, "
        "field-ordered tuple or dataclass instead."
    )

    DISPATCH = frozenset(
        {
            "submit",
            "apply_async",
            "map",
            "map_async",
            "imap",
            "imap_unordered",
            "starmap",
            "starmap_async",
        }
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not self._imports_multiprocessing(ctx.tree):
            return
        for function in ast.walk(ctx.tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            kwarg = function.args.kwarg
            kwarg_name = kwarg.arg if kwarg is not None else None
            for node in ast.walk(function):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.DISPATCH
                ):
                    continue
                if kwarg_name is not None and self._mentions_name(
                    node, kwarg_name
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"**{kwarg_name} captured into a "
                        f".{node.func.attr}() payload relies on caller "
                        "keyword order; ship an explicit tuple/dataclass",
                    )
                elif self._passes_locals(node):
                    yield ctx.finding(
                        self,
                        node,
                        f"locals() shipped into .{node.func.attr}() is "
                        "unordered state; ship an explicit tuple/dataclass",
                    )

    @staticmethod
    def _imports_multiprocessing(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(
                    alias.name.split(".")[0]
                    in ("multiprocessing", "concurrent")
                    for alias in node.names
                ):
                    return True
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ("multiprocessing", "concurrent"):
                    return True
        return False

    @staticmethod
    def _mentions_name(call: ast.Call, name: str) -> bool:
        for argument in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(argument):
                if isinstance(node, ast.Name) and node.id == name:
                    return True
        return False

    @staticmethod
    def _passes_locals(call: ast.Call) -> bool:
        for argument in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(argument):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "locals"
                ):
                    return True
        return False


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


@register
class DeltaLayerIntegrityRule(Rule):
    """DET009: the delta layer's bookkeeping poked from outside Topology."""

    code = "DET009"
    name = "delta-layer-integrity"
    description = (
        "Dirty-scoped invalidation (Topology.apply_delta) is only sound "
        "when version stamps, node stamps, and cache entries change "
        "exclusively through Topology's own API: flags writes or "
        "mutator calls on _version/_all_dirty_version/_node_stamps of a "
        "foreign instance, del statements on any foreign cache "
        "attribute (which DET003's assignment checks miss), and calls "
        "to the private epoch/cache internals (_bump_epoch, _cached, "
        "_apply_delta_fast, _apply_delta_slow) on a foreign receiver."
    )

    STAMP_ATTRS = frozenset({"_version", "_all_dirty_version", "_node_stamps"})
    #: DET003's attrs plus the stamp attrs — the full surface a ``del``
    #: statement must not reach into from outside the owner.
    DELETABLE_ATTRS = CacheMutationRule.CACHE_ATTRS | STAMP_ATTRS
    PRIVATE_API = frozenset(
        {"_bump_epoch", "_cached", "_apply_delta_fast", "_apply_delta_slow"}
    )
    MUTATORS = CacheMutationRule.MUTATORS

    def applies_to(self, path: str) -> bool:
        parts = path_parts(path)
        # topology.py owns the invariant; everywhere else must go
        # through apply_delta / the public mutators.
        return "tests" not in parts and parts[-1:] != ("topology.py",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attribute = self._foreign(target, self.STAMP_ATTRS)
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"write to {attribute} outside Topology "
                            "desynchronises dirty tracking; apply "
                            "structural changes through apply_delta or "
                            "the public mutators",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attribute = self._foreign(target, self.DELETABLE_ATTRS)
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"del on {attribute} outside the owning "
                            "instance evicts behind the dirty tracker's "
                            "back; use the owner's API",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in self.PRIVATE_API and self._foreign_base(
                    node.func.value
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"call to the private {node.func.attr}() on a "
                        "foreign instance bypasses delta bookkeeping; "
                        "use apply_delta or the public query API",
                    )
                elif node.func.attr in self.MUTATORS:
                    attribute = self._foreign(
                        node.func.value, self.STAMP_ATTRS
                    )
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"{attribute}.{node.func.attr}() outside "
                            "Topology desynchronises dirty tracking",
                        )

    def _foreign(
        self, node: ast.AST, attrs: "frozenset[str]"
    ) -> Optional[str]:
        """``obj._attr``-style access (through any subscripts) where
        ``obj`` is not ``self``/``cls`` and ``_attr`` is in ``attrs``."""
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            if self._foreign_base(node.value):
                return node.attr
        return None

    @staticmethod
    def _foreign_base(base: ast.AST) -> bool:
        return not (isinstance(base, ast.Name) and base.id in ("self", "cls"))


@register
class ShardStateIntegrityRule(Rule):
    """DET010: shard-worker state poked from outside the shard driver."""

    code = "DET010"
    name = "shard-state-integrity"
    description = (
        "The sharded mobility driver's determinism contract (merged "
        "forward sets byte-identical to the serial incremental path at "
        "any worker count) holds only while every shard's partial "
        "replica equals the induced global graph on its universe — "
        "advanced exclusively through the driver's own step protocol.  "
        "Flags writes, del statements, or mutator calls on the "
        "_replica/_shard_metrics worker state and the "
        "_subgraph/_global_nodes/_local_of partial-replica state "
        "(including the local<->global id mapping) of a foreign "
        "instance, and calls to the private worker internals "
        "(_sync_replica, _redecide, _rehome, _install) on a foreign "
        "receiver; route work through run_sharded_mobility_sweep / "
        "run_sharded_trace instead."
    )

    STATE_ATTRS = frozenset(
        {"_replica", "_shard_metrics", "_subgraph", "_global_nodes",
         "_local_of"}
    )
    PRIVATE_API = frozenset(
        {"_sync_replica", "_redecide", "_rehome", "_install"}
    )
    #: The dict/set mutators plus the topology mutators: calling
    #: e.g. ``sub._subgraph.add_edge(...)`` from outside desynchronises
    #: the replica from the induced global graph exactly like
    #: reassigning it.
    MUTATORS = CacheMutationRule.MUTATORS | frozenset(
        {"add_edge", "remove_edge", "add_node", "remove_node",
         "apply_delta"}
    )

    def applies_to(self, path: str) -> bool:
        parts = path_parts(path)
        # sharded.py owns the invariant (ShardSubgraph in sharding.py
        # mutates only through self, so it stays in scope); everywhere
        # else must go through the public sweep entry points.
        return "tests" not in parts and parts[-1:] != ("sharded.py",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attribute = self._foreign(target, self.STATE_ATTRS)
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"write to {attribute} outside the shard "
                            "driver desynchronises the worker replica; "
                            "route work through the sharded sweep API",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attribute = self._foreign(target, self.STATE_ATTRS)
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"del on {attribute} outside the shard driver "
                            "drops worker state behind the pool's back",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in self.PRIVATE_API and self._foreign_base(
                    node.func.value
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"call to the private {node.func.attr}() on a "
                        "foreign worker bypasses the step protocol; use "
                        "the sharded sweep API",
                    )
                elif node.func.attr in self.MUTATORS:
                    attribute = self._foreign(
                        node.func.value, self.STATE_ATTRS
                    )
                    if attribute is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"{attribute}.{node.func.attr}() outside the "
                            "shard driver desynchronises the worker "
                            "replica",
                        )

    _foreign = DeltaLayerIntegrityRule._foreign
    _foreign_base = staticmethod(DeltaLayerIntegrityRule._foreign_base)
