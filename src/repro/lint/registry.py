"""Rule base class, per-file lint context, and the rule registry.

A rule is a small object with a ``code`` (``DET001`` …), a path scope
(:meth:`Rule.applies_to`), and a :meth:`Rule.check` that walks a parsed
module and yields :class:`~repro.lint.findings.Finding` records.  Rules
self-register at import time through :func:`register`; the engine runs
every registered rule whose scope matches the file under analysis.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import Finding

__all__ = [
    "LintContext",
    "Rule",
    "ProjectRule",
    "register",
    "all_rules",
    "per_file_rules",
    "project_rules",
    "get_rule",
    "path_parts",
]


def path_parts(path: str) -> Tuple[str, ...]:
    """Normalised path components (forward- and back-slash tolerant)."""
    return tuple(part for part in path.replace("\\", "/").split("/") if part)


class LintContext:
    """Everything a rule needs about one file, parsed once by the engine."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.parts = path_parts(path)
        self.lines = source.splitlines()
        self.tree = tree
        #: Child → parent links for the whole module, so rules can ask
        #: "who consumes this expression" without re-walking the tree.
        self.parents: Dict[ast.AST, ast.AST] = {
            child: parent
            for parent in ast.walk(tree)
            for child in ast.iter_child_nodes(parent)
        }

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return self.parents.get(node)

    def snippet(self, node: ast.AST) -> str:
        """The stripped source line a node starts on (fingerprint anchor)."""
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node`` under ``rule``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule.code,
            message=message,
            snippet=self.snippet(node),
        )


class Rule:
    """Base class for detlint rules.

    Subclasses set ``code``/``name``/``description`` and override
    :meth:`check`; :meth:`applies_to` narrows the rule to the paths where
    the invariant holds (scopes are matched on path *components*, so the
    fixture tests can exercise a rule through a virtual path such as
    ``src/repro/sim/sample.py``).
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether this rule's invariant is in force for ``path``."""
        return True

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Yield findings for one parsed file (override in subclasses)."""
        raise NotImplementedError

    # -- shared scope helpers ------------------------------------------

    @staticmethod
    def _in_dirs(path: str, names: Iterable[str]) -> bool:
        """Whether the path crosses one of ``names`` outside ``tests``."""
        parts = path_parts(path)
        if "tests" in parts:
            return False
        return bool(set(parts[:-1]) & set(names))


class ProjectRule(Rule):
    """Base class for rules that analyse the whole project graph.

    Per-file rules see one :class:`LintContext`; project rules see the
    :class:`~repro.lint.project.Project` built once per run (symbol
    table, call graph, seed lineage) and may emit findings against any
    file in it.  :meth:`applies_to` still narrows by path — the engine
    and the rule itself consult it before attributing a finding to a
    file — but the *analysis* always spans every parsed module, which
    is what lets DET002 follow a clock read up a call chain and DET011
    trace a seed through an import alias into another file.
    """

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        """Project rules produce nothing in the per-file pass."""
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        """Yield findings over the whole project (override)."""
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and register a rule by its code."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def per_file_rules() -> List[Rule]:
    """Registered rules that run file-by-file, sorted by code."""
    return [r for r in all_rules() if not isinstance(r, ProjectRule)]


def project_rules() -> List[Rule]:
    """Registered whole-project rules, sorted by code."""
    return [r for r in all_rules() if isinstance(r, ProjectRule)]


def get_rule(code: str) -> Rule:
    """The registered rule for ``code`` (raises ``KeyError`` if absent)."""
    return _REGISTRY[code]
