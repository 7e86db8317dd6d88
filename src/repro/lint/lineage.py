"""Flow-sensitive seed lineage for ``random.Random(...)`` sites.

Every construction of a :class:`random.Random` in the project is
classified by where its seed came from:

``sha256``
    The seed traces to a sha256 helper — a project function that
    (transitively) calls into ``hashlib`` — or to an inline
    ``int.from_bytes(hashlib.sha256(...).digest()[:8], "big")`` chain,
    possibly mixed with constants via ``^``/``+`` (mixing a digest with
    a constant keeps the digest's entropy).  This is the repo's seeding
    discipline and is always clean.

``literal``
    The seed is a constant, or a name whose last assignment before the
    site is a constant, or a draw (``getrandbits``/``randint``/...)
    from a literal-seeded generator.  Reachable from sim scope this is
    the DET011 smell: every run and every call site shares one stream.

``ambient``
    No argument (or ``None``): the generator seeds from the OS — the
    determinism failure DET002 catches for ``random.random()``, here in
    constructor form.

``derived``/``unknown``
    The seed arrives through a parameter, attribute, subscript, or a
    draw from a caller-supplied generator.  Responsibility lies with
    the caller, so these sites are not flagged.

The per-site analysis is *flow-sensitive within one scope*: names
resolve to their textually last assignment preceding the site, loop
targets and parameters are unknown, and ``a or b`` takes the worst
lineage of its operands (the fallback branch may be the one taken).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import CallGraph, iter_scoped_calls
from .symtab import ModuleInfo, SymbolTable, dotted_name

__all__ = [
    "LITERAL",
    "SHA256",
    "AMBIENT",
    "UNKNOWN",
    "SeedSite",
    "SeedLineage",
]

LITERAL = "literal"
SHA256 = "sha256"
AMBIENT = "ambient"
UNKNOWN = "unknown"

#: Drawing one of these from an existing generator propagates that
#: generator's lineage to the drawn value.
_DRAW_METHODS = frozenset(
    {"getrandbits", "randint", "randrange", "random", "choice", "uniform"}
)


@dataclass
class SeedSite:
    """One ``random.Random(...)`` construction site, classified."""

    module: str
    path: str
    node: ast.Call
    classification: str
    #: Constant seed value when the lineage is ``literal`` and the
    #: constant is directly visible (used for shared-seed reporting).
    seed_value: Optional[object] = None


class SeedLineage:
    """Classify every Random construction site across the project."""

    def __init__(self, symtab: SymbolTable, callgraph: CallGraph) -> None:
        self.symtab = symtab
        self.callgraph = callgraph
        self.sha256_helpers = self._sha256_helpers()
        self.sites: List[SeedSite] = []
        self._collect_sites()

    # -- sha256 helper discovery ---------------------------------------

    def _sha256_helpers(self) -> Set[str]:
        """Functions that (transitively) call into ``hashlib``.

        ``service_seed``-style helpers call ``hashlib.sha256`` directly;
        a wrapper around such a helper is itself a helper.  This is an
        over-approximation toward *not* flagging — a function that
        hashes but returns a constant would be misread as derived — and
        that bias is deliberate: DET011 only fires on provable literals.
        """
        direct = {
            owner
            for owner, names in self.callgraph.externals.items()
            if any(name.startswith("hashlib.") for name in names)
            and owner in self.symtab.functions
        }
        closure = self.callgraph.transitive_closure_from(direct)
        return {name for name in closure if name in self.symtab.functions}

    # -- site collection ------------------------------------------------

    def _collect_sites(self) -> None:
        for name in sorted(self.symtab.modules):
            module = self.symtab.modules[name]
            for call, scope, class_name in iter_scoped_calls(module):
                if not self._is_random_ctor(module, call, class_name):
                    continue
                scope_node = self._scope_node(module, scope)
                classification, value = self._classify_seed(
                    module, call, scope_node, class_name
                )
                self.sites.append(
                    SeedSite(
                        module=module.name,
                        path=module.path,
                        node=call,
                        classification=classification,
                        seed_value=value,
                    )
                )

    def _is_random_ctor(
        self,
        module: ModuleInfo,
        call: ast.Call,
        class_name: Optional[str],
    ) -> bool:
        resolved = self.symtab.resolve_call(module, call.func, class_name)
        return resolved == "random.Random"

    def _scope_node(
        self, module: ModuleInfo, scope: Tuple[str, ...]
    ) -> ast.AST:
        if not scope:
            return module.tree
        qualname = ".".join((module.name,) + scope)
        info = self.symtab.functions.get(qualname)
        return info.node if info is not None else module.tree

    def _classify_seed(
        self,
        module: ModuleInfo,
        call: ast.Call,
        scope_node: ast.AST,
        class_name: Optional[str],
    ) -> Tuple[str, Optional[object]]:
        if call.keywords:
            return UNKNOWN, None
        if not call.args:
            return AMBIENT, None
        seed = call.args[0]
        lineage = self._expr_lineage(
            module, seed, scope_node, class_name, depth=0
        )
        value: Optional[object] = None
        if lineage == LITERAL and isinstance(seed, ast.Constant):
            value = seed.value
        return lineage, value

    # -- expression lineage ---------------------------------------------

    def _expr_lineage(
        self,
        module: ModuleInfo,
        expr: ast.AST,
        scope_node: ast.AST,
        class_name: Optional[str],
        depth: int,
    ) -> str:
        if depth > 12:
            return UNKNOWN
        recurse = lambda e: self._expr_lineage(  # noqa: E731
            module, e, scope_node, class_name, depth + 1
        )
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return AMBIENT
            return LITERAL
        if isinstance(expr, ast.Name):
            return self._name_lineage(
                module, expr, scope_node, class_name, depth
            )
        if isinstance(expr, ast.BoolOp):
            # ``a or b``: either branch may be the one taken, so the
            # worst operand wins: literal > ambient > unknown > sha256.
            parts = [recurse(v) for v in expr.values]
            for worst in (LITERAL, AMBIENT, UNKNOWN):
                if worst in parts:
                    return worst
            return SHA256
        if isinstance(expr, ast.BinOp):
            left, right = recurse(expr.left), recurse(expr.right)
            if SHA256 in (left, right):
                # xor/add with a constant keeps the digest's entropy.
                return SHA256
            if left == LITERAL and right == LITERAL:
                return LITERAL
            return UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return recurse(expr.operand)
        if isinstance(expr, ast.Subscript):
            # ``digest[:8]`` keeps the digest lineage.
            inner = recurse(expr.value)
            return inner if inner == SHA256 else UNKNOWN
        if isinstance(expr, ast.Call):
            return self._call_lineage(
                module, expr, scope_node, class_name, depth
            )
        if isinstance(expr, ast.IfExp):
            branches = {recurse(expr.body), recurse(expr.orelse)}
            if LITERAL in branches:
                return LITERAL
            if branches == {SHA256}:
                return SHA256
            return UNKNOWN
        return UNKNOWN

    def _call_lineage(
        self,
        module: ModuleInfo,
        call: ast.Call,
        scope_node: ast.AST,
        class_name: Optional[str],
        depth: int,
    ) -> str:
        recurse_arg = lambda: (  # noqa: E731
            self._expr_lineage(
                module, call.args[0], scope_node, class_name, depth + 1
            )
            if call.args
            else UNKNOWN
        )
        resolved = self.symtab.resolve_call(module, call.func, class_name)
        if resolved is not None:
            if resolved == "random.Random":
                # The lineage of a generator is the lineage of its seed.
                if not call.args:
                    return AMBIENT
                return recurse_arg()
            if resolved in self.sha256_helpers:
                return SHA256
            if resolved.startswith("hashlib."):
                return SHA256
        if isinstance(call.func, ast.Name) and call.func.id in (
            "int",
            "abs",
        ):
            return recurse_arg()
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            if attr in ("digest", "hexdigest"):
                return self._expr_lineage(
                    module,
                    call.func.value,
                    scope_node,
                    class_name,
                    depth + 1,
                )
            if attr == "from_bytes":
                # ``int.from_bytes(digest, "big")``
                return recurse_arg()
            if attr in _DRAW_METHODS:
                return self._expr_lineage(
                    module,
                    call.func.value,
                    scope_node,
                    class_name,
                    depth + 1,
                )
        return UNKNOWN

    def _name_lineage(
        self,
        module: ModuleInfo,
        name: ast.Name,
        scope_node: ast.AST,
        class_name: Optional[str],
        depth: int,
    ) -> str:
        assignment = _last_assignment(scope_node, name)
        if assignment is None and scope_node is not module.tree:
            if _is_parameter(scope_node, name.id):
                return UNKNOWN
            # Fall back to a module-level binding.
            assignment = _last_assignment(module.tree, name)
        if assignment is None:
            return UNKNOWN
        return self._expr_lineage(
            module, assignment, scope_node, class_name, depth + 1
        )


def _is_parameter(scope_node: ast.AST, name: str) -> bool:
    args = getattr(scope_node, "args", None)
    if args is None:
        return False
    all_args = (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )
    return any(a.arg == name for a in all_args)


def _last_assignment(
    scope_node: ast.AST, name: ast.Name
) -> Optional[ast.AST]:
    """Value of the last ``name = ...`` before ``name``'s use, same scope.

    Nested function bodies are opaque (their assignments bind their own
    scope); ``for`` targets and ``with ... as`` bindings deliberately
    resolve to nothing (unknown lineage).
    """
    use_line = name.lineno
    best: Optional[Tuple[int, ast.AST]] = None

    def visit(node: ast.AST) -> None:
        nonlocal best
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child is not scope_node:
                    continue
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == name.id
                        and child.lineno <= use_line
                    ):
                        if best is None or child.lineno >= best[0]:
                            best = (child.lineno, child.value)
            elif isinstance(child, ast.AnnAssign):
                if (
                    isinstance(child.target, ast.Name)
                    and child.target.id == name.id
                    and child.value is not None
                    and child.lineno <= use_line
                ):
                    if best is None or child.lineno >= best[0]:
                        best = (child.lineno, child.value)
            visit(child)

    visit(scope_node)
    return best[1] if best is not None else None
