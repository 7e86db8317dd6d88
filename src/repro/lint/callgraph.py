"""Whole-project call graph over the symbol table.

Edges connect qualified function names
(``repro.sim.service.ServiceEngine.__init__`` ->
``repro.seeds.default_rng``); calls that resolve to a class go to its
``__init__`` when one exists.  Calls that resolve outside the
project (``time.time``, ``hashlib.sha256``, ``random.random``) are kept
separately as *external* names — DET002 classifies those as entropy
primitives and asks which sim-scope functions can transitively reach
one, and the seed-lineage analysis uses them to recognise sha256 helper
functions.

Module-level statements are attributed to the module's own name as a
pseudo-caller so that ``SHARED = random.Random(42)`` at import time
still participates in reachability.

Adjacency lists are sorted at build time, so every traversal —
including the shortest-chain reconstruction embedded in DET002
messages — is deterministic regardless of dict iteration order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .symtab import ModuleInfo, SymbolTable

__all__ = ["CallGraph", "iter_scoped_calls"]


def iter_scoped_calls(
    module: ModuleInfo,
) -> Iterable[Tuple[ast.Call, Tuple[str, ...], Optional[str]]]:
    """Yield ``(call, owner_scope, class_name)`` for every call expression.

    ``owner_scope`` is the tuple of enclosing def names (empty for
    module level); ``class_name`` is the nearest enclosing class, for
    ``self.method(...)`` resolution.  Calls inside a nested function
    belong to the nested function, not its parent.
    """

    def walk_expr(
        expr: ast.AST, scope: Tuple[str, ...], class_name: Optional[str]
    ) -> Iterable[Tuple[ast.Call, Tuple[str, ...], Optional[str]]]:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                yield sub, scope, class_name

    def visit(
        node: ast.AST, scope: Tuple[str, ...], class_name: Optional[str]
    ) -> Iterable[Tuple[ast.Call, Tuple[str, ...], Optional[str]]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Default-argument and decorator expressions evaluate in
            # the *enclosing* scope, at definition time.
            for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                yield from walk_expr(default, scope, class_name)
            for decorator in node.decorator_list:
                yield from walk_expr(decorator, scope, class_name)
            for stmt in node.body:
                yield from visit(stmt, scope + (node.name,), class_name)
            return
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                yield from walk_expr(decorator, scope, class_name)
            for base in node.bases:
                yield from walk_expr(base, scope, class_name)
            # The class name joins the scope chain so method owners
            # match their symtab qualnames (``module.Class.method``).
            for stmt in node.body:
                yield from visit(stmt, scope + (node.name,), node.name)
            return
        if isinstance(node, ast.Call):
            yield node, scope, class_name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, class_name)

    for stmt in module.tree.body:
        yield from visit(stmt, (), None)


class CallGraph:
    """Project-internal call edges plus per-function external calls."""

    def __init__(self) -> None:
        #: caller qualname -> sorted tuple of project callee qualnames
        self.calls: Dict[str, Tuple[str, ...]] = {}
        #: caller qualname -> sorted tuple of external dotted names
        self.externals: Dict[str, Tuple[str, ...]] = {}

    @classmethod
    def build(cls, symtab: SymbolTable) -> "CallGraph":
        graph = cls()
        calls: Dict[str, Set[str]] = {}
        externals: Dict[str, Set[str]] = {}
        for name in sorted(symtab.modules):
            module = symtab.modules[name]
            for call, scope, class_name in iter_scoped_calls(module):
                owner = ".".join((module.name,) + scope) if scope else module.name
                resolved = symtab.resolve_call(module, call.func, class_name)
                if resolved is None:
                    continue
                if resolved in symtab.functions:
                    calls.setdefault(owner, set()).add(resolved)
                elif resolved in symtab.classes:
                    init = f"{resolved}.__init__"
                    if init in symtab.functions:
                        calls.setdefault(owner, set()).add(init)
                elif not resolved.startswith(
                    tuple(f"{m}." for m in symtab.modules) or ("",)
                ):
                    externals.setdefault(owner, set()).add(resolved)
        graph.calls = {
            owner: tuple(sorted(targets)) for owner, targets in calls.items()
        }
        graph.externals = {
            owner: tuple(sorted(names)) for owner, names in externals.items()
        }
        return graph

    def callers_of(self) -> Dict[str, Tuple[str, ...]]:
        """Reverse adjacency: callee qualname -> sorted caller qualnames."""
        reverse: Dict[str, Set[str]] = {}
        for owner in sorted(self.calls):
            for target in self.calls[owner]:
                reverse.setdefault(target, set()).add(owner)
        return {k: tuple(sorted(v)) for k, v in reverse.items()}

    def reach(
        self, start: str, targets: Set[str]
    ) -> Optional[List[str]]:
        """Deterministic shortest call chain from ``start`` into ``targets``.

        Returns the chain as a list of qualnames ``[start, ..., target]``
        or ``None`` when no target is reachable.  BFS over sorted
        adjacency lists ties shortest chains lexicographically.
        """
        if start in targets:
            return [start]
        seen = {start}
        frontier: List[List[str]] = [[start]]
        while frontier:
            next_frontier: List[List[str]] = []
            for chain in frontier:
                for callee in self.calls.get(chain[-1], ()):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    extended = chain + [callee]
                    if callee in targets:
                        return extended
                    next_frontier.append(extended)
            frontier = next_frontier
        return None

    def transitive_closure_from(self, seeds: Set[str]) -> Set[str]:
        """All functions that can *reach into* ``seeds`` via call edges.

        Propagates along reversed edges: a caller of a member joins the
        closure.  The seeds themselves are included.
        """
        reverse = self.callers_of()
        closure = set(seeds)
        frontier = sorted(seeds)
        while frontier:
            next_frontier: List[str] = []
            for member in frontier:
                for caller in reverse.get(member, ()):
                    if caller not in closure:
                        closure.add(caller)
                        next_frontier.append(caller)
            frontier = sorted(next_frontier)
        return closure
