"""Project-level module and symbol tables with import-alias resolution.

detlint's per-file rules reason about one file at a time; the project
rules (DET002 ambient entropy through aliases and call chains, DET011
seed lineage, DET013 fork-boundary payloads, DET014 JSON stability)
need to know *what a name means* across the whole ``src/repro`` tree:
which module a local alias refers to, which function a call resolves
to, and which classes are frozen dataclasses.  The :class:`SymbolTable`
answers those questions from one parse pass per module — no imports
are executed, so analysing a broken or side-effectful module is always
safe.

Resolution is deliberately syntactic: ``from ..graph.topology import
Topology`` binds ``Topology -> repro.graph.topology.Topology`` whether
or not that module is part of the current lint run, and dotted names
that cannot be traced to an import or a module-level definition resolve
to ``None`` rather than guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .registry import path_parts

__all__ = [
    "module_name_for_path",
    "dotted_name",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "SymbolTable",
]


def module_name_for_path(path: str) -> str:
    """The dotted module name a (possibly virtual) file path denotes.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``benchmarks/bench_scale.py`` -> ``benchmarks.bench_scale``;
    package ``__init__.py`` files name the package itself.
    """
    parts = list(path_parts(path))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


@dataclass
class FunctionInfo:
    """One function or method definition, addressed by qualified name."""

    qualname: str
    name: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None


@dataclass
class ClassInfo:
    """One class definition plus its picklable-frozen classification."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    #: ``@dataclass(frozen=True)`` or a NamedTuple/tuple subclass — the
    #: shapes DET013 accepts across a fork/Pipe boundary.
    frozen: bool = False


def _is_dataclass_decorator(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def _is_frozen_class(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and _is_dataclass_decorator(decorator.func)
        ):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen" and (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    for base in node.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1] in (
            "NamedTuple",
            "tuple",
            "Enum",
            "IntEnum",
        ):
            return True
    return False


@dataclass
class ModuleInfo:
    """Everything the project analyses need to know about one module."""

    name: str
    path: str
    tree: ast.Module
    #: Local alias -> absolute dotted target (module or symbol).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Absolute names of modules this module imports (candidates — they
    #: may or may not be part of the current lint run).
    imported_modules: List[str] = field(default_factory=list)
    #: Local top-level name -> qualified name, for functions/classes.
    local_symbols: Dict[str, str] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, ...]:
        return path_parts(self.path)

    def is_package(self) -> bool:
        """Whether this module is a package ``__init__.py``."""
        return path_parts(self.path)[-1:] == ("__init__.py",)


class SymbolTable:
    """All modules of one lint run, indexed for name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction ---------------------------------------------------

    def add_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        """Register one parsed module and harvest its symbols."""
        name = module_name_for_path(path)
        info = ModuleInfo(name=name, path=path, tree=tree)
        self._collect_imports(info)
        self._collect_definitions(info)
        self.modules[name] = info
        self.by_path[path] = info
        return info

    def _anchor(self, info: ModuleInfo, level: int) -> List[str]:
        """The package path a ``level``-dot relative import resolves in."""
        parts = info.name.split(".") if info.name else []
        drop = level - 1 if info.is_package() else level
        if drop <= 0:
            return parts
        return parts[: max(0, len(parts) - drop)]

    def _collect_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name
                    local = alias.asname or target.split(".")[0]
                    if alias.asname is None:
                        # ``import a.b`` binds the root package ``a``.
                        info.imports.setdefault(local, local)
                    else:
                        info.imports[local] = target
                    info.imported_modules.append(target)
            elif isinstance(node, ast.ImportFrom):
                base_parts = list(
                    self._anchor(info, node.level)
                    if node.level
                    else []
                )
                if node.module:
                    base_parts += node.module.split(".")
                base = ".".join(base_parts)
                if base:
                    info.imported_modules.append(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    info.imports[alias.asname or alias.name] = target
                    # ``from repro.sim import engine`` imports a module.
                    info.imported_modules.append(target)

    def _collect_definitions(self, info: ModuleInfo) -> None:
        def visit(node: ast.AST, scope: Tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qualname = ".".join((info.name,) + scope + (child.name,))
                    class_name = scope[-1] if scope else None
                    self.functions[qualname] = FunctionInfo(
                        qualname=qualname,
                        name=child.name,
                        module=info.name,
                        node=child,
                        class_name=class_name,
                    )
                    if not scope:
                        info.local_symbols[child.name] = qualname
                    visit(child, scope + (child.name,))
                elif isinstance(child, ast.ClassDef):
                    qualname = ".".join((info.name,) + scope + (child.name,))
                    self.classes[qualname] = ClassInfo(
                        qualname=qualname,
                        name=child.name,
                        module=info.name,
                        node=child,
                        frozen=_is_frozen_class(child),
                    )
                    if not scope:
                        info.local_symbols[child.name] = qualname
                    visit(child, scope + (child.name,))
                else:
                    visit(child, scope)

        visit(info.tree, ())

    # -- resolution -----------------------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[str]:
        """Absolute dotted target of ``dotted`` as used inside ``module``.

        The head segment resolves through the module's import aliases,
        then through its top-level definitions; anything else is
        unresolvable (``None``) — never guessed.
        """
        head, _, rest = dotted.partition(".")
        target = module.imports.get(head)
        if target is None:
            target = module.local_symbols.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def resolve_call(
        self,
        module: ModuleInfo,
        func: ast.AST,
        class_name: Optional[str] = None,
    ) -> Optional[str]:
        """Absolute name of a call's target expression, if traceable.

        Handles ``name(...)``, dotted ``mod.attr(...)`` chains, and
        ``self.method(...)``/``cls.method(...)`` inside a class body.
        """
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head = dotted.split(".")[0]
        if head in ("self", "cls") and class_name is not None:
            rest = dotted.split(".")[1:]
            if len(rest) == 1:
                return f"{module.name}.{class_name}.{rest[0]}"
            return None
        return self.resolve(module, dotted)
