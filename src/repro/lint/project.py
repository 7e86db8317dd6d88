"""The single-pass project graph the interprocedural rules consume.

The engine parses every file exactly once; :class:`Project` is built
from those parsed modules and bundles the three analyses (symbol table,
call graph, seed lineage) plus the *sim-reaching* classification:
a module participates in simulation determinism if it either lives in
one of the sim-scope directories or imports (directly, transitively
within the project, or textually via a ``repro.<sim-dir>`` candidate)
a module that does.  Textual matching matters for single-file runs —
``repro.routing.link_state`` imports ``repro.sim.engine`` and must stay
sim-reaching even when the engine module is outside the lint roots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from .callgraph import CallGraph
from .lineage import SeedLineage
from .registry import LintContext, path_parts
from .symtab import SymbolTable

__all__ = ["Project", "SIM_SCOPE"]

#: Packages whose files run inside a broadcast simulation: DET002's path
#: scope, and the roots of the sim-reaching classification.
SIM_SCOPE = ("sim", "core", "algorithms", "experiments")


class Project:
    """All parsed modules of one lint run plus their shared analyses."""

    def __init__(self, contexts: Sequence[LintContext]) -> None:
        self.contexts: Dict[str, LintContext] = {}
        self.symtab = SymbolTable()
        for ctx in sorted(contexts, key=lambda c: c.path):
            self.contexts[ctx.path] = ctx
            self.symtab.add_module(ctx.path, ctx.tree)
        self.callgraph = CallGraph.build(self.symtab)
        self.lineage = SeedLineage(self.symtab, self.callgraph)
        self._sim_reaching = self._compute_sim_reaching()

    # -- sim reachability ----------------------------------------------

    @staticmethod
    def _in_sim_dirs(path: str) -> bool:
        parts = path_parts(path)
        return (
            any(part in SIM_SCOPE for part in parts)
            and "tests" not in parts
        )

    @staticmethod
    def _textual_sim_import(candidate: str) -> bool:
        """``repro.sim.engine``-shaped import targets count as sim even
        when the target module is not part of this lint run."""
        parts = candidate.split(".")
        return parts[:1] == ["repro"] and any(
            part in SIM_SCOPE for part in parts[1:]
        )

    def _compute_sim_reaching(self) -> Set[str]:
        reaching: Set[str] = set()
        for name in sorted(self.symtab.modules):
            module = self.symtab.modules[name]
            if self._in_sim_dirs(module.path) or any(
                self._textual_sim_import(candidate)
                for candidate in module.imported_modules
            ):
                reaching.add(name)
        # Propagate through project-internal imports until fixpoint:
        # importing a sim-reaching module makes the importer reaching.
        changed = True
        while changed:
            changed = False
            for name in sorted(self.symtab.modules):
                if name in reaching:
                    continue
                module = self.symtab.modules[name]
                for candidate in module.imported_modules:
                    target = candidate
                    # ``from repro.sim import engine`` records both the
                    # package and the member; trim symbol suffixes down
                    # to a known module when needed.
                    while target and target not in self.symtab.modules:
                        target = target.rpartition(".")[0]
                    if target and target in reaching:
                        reaching.add(name)
                        changed = True
                        break
        return reaching

    def sim_reaching(self, module_name: str) -> bool:
        """Whether ``module_name`` is in sim scope or imports into it."""
        return module_name in self._sim_reaching

    # -- convenience ----------------------------------------------------

    def modules_sorted(self) -> List[str]:
        """Module names ordered by file path (finding order)."""
        return sorted(
            self.symtab.modules,
            key=lambda name: self.symtab.modules[name].path,
        )
