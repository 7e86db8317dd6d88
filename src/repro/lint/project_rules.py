"""The DET011–DET014 interprocedural rules over the project graph.

These rules consume the :class:`~repro.lint.project.Project` built once
per run — symbol table, call graph, and seed lineage — rather than a
single file's AST, which is what lets them trace a literal seed through
a default argument, follow a wall-clock read through an import alias
the syntactic DET002 cannot see, and resolve a class crossing a Pipe
to its (non-)frozen definition in another module.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import iter_scoped_calls
from .findings import Finding
from .lineage import AMBIENT, LITERAL, _last_assignment
from .registry import ProjectRule, path_parts, register
from .rules import AmbientEntropyRule, KwargsPayloadRule, SIM_SCOPE
from .symtab import ModuleInfo

__all__ = ["is_entropy_external"]


def is_entropy_external(name: str) -> bool:
    """Whether an external dotted call name is an ambient-entropy read.

    Mirrors DET002's catalogue (module RNG draws, wall-clock reads,
    ``os.urandom``) but operates on *resolved* names, so
    ``import time as clock; clock.time()`` is recognised.
    """
    parts = name.split(".")
    root, leaf = parts[0], parts[-1]
    if root == "random" and len(parts) >= 2:
        return parts[1] not in ("Random",)
    if root == "time":
        return leaf in AmbientEntropyRule.CLOCK_CALLS
    if name == "os.urandom":
        return True
    if root in ("secrets", "uuid") and len(parts) >= 2:
        return True
    if leaf in AmbientEntropyRule.NOW_CALLS and any(
        part in AmbientEntropyRule.DATETIME_ROOTS for part in parts[:-1]
    ):
        return True
    return False


@register
class SeedLineageRule(ProjectRule):
    """DET011: literal or ambient Random seeds reachable from sim scope."""

    code = "DET011"
    name = "literal-seed-lineage"
    description = (
        "A random.Random(...) construction whose seed lineage is a "
        "literal constant (including via default arguments, local "
        "flow, and the `rng or Random(0)` fallback idiom) or ambient "
        "(no seed at all), in a module that participates in simulation "
        "determinism — every run and call site shares one stream, so "
        "sweep points stop being independent and replays stop being "
        "byte-identical.  Derive seeds from the sha256 helpers "
        "(service_seed / workload_seed / traffic_seed lineage) instead."
    )

    def applies_to(self, path: str) -> bool:
        parts = path_parts(path)
        # Literal seeds at experiment/test roots are the *seed domain*
        # itself (a sweep over seeds 0..N is meant to be literal); the
        # smell is a literal baked into library code.
        return "tests" not in parts and "benchmarks" not in parts

    def check_project(self, project) -> Iterator[Finding]:
        flagged = [
            site
            for site in project.lineage.sites
            if site.classification in (LITERAL, AMBIENT)
            and self.applies_to(site.path)
            and project.sim_reaching(site.module)
        ]
        value_counts: Dict[object, int] = {}
        for site in flagged:
            if site.seed_value is not None:
                key = repr(site.seed_value)
                value_counts[key] = value_counts.get(key, 0) + 1
        for site in sorted(
            flagged, key=lambda s: (s.path, s.node.lineno, s.node.col_offset)
        ):
            ctx = project.contexts[site.path]
            if site.classification == AMBIENT:
                message = (
                    "random.Random() without a seed draws OS entropy in "
                    "a sim-reaching module; derive the seed from a "
                    "sha256 helper (service_seed-style)"
                )
            elif site.seed_value is not None:
                message = (
                    f"random.Random({site.seed_value!r}) has literal "
                    "seed lineage in a sim-reaching module; derive it "
                    "from a sha256 helper (service_seed-style)"
                )
                reuse = value_counts.get(repr(site.seed_value), 0)
                if reuse >= 2:
                    message += (
                        f" — seed {site.seed_value!r} is shared by "
                        f"{reuse} construction sites"
                    )
            else:
                message = (
                    "random.Random seed traces to a literal constant in "
                    "a sim-reaching module; derive it from a sha256 "
                    "helper (service_seed-style)"
                )
            yield ctx.finding(self, site.node, message)


@register
class TransitiveEntropyRule(ProjectRule):
    """DET012: sim-scope functions transitively reaching ambient entropy."""

    code = "DET012"
    name = "transitive-ambient-entropy"
    description = (
        "A function in sim scope (sim/ core/ algorithms/ experiments/) "
        "with no direct entropy read of its own — that is DET002's job "
        "— but a project call chain that reaches a wall-clock or "
        "global-RNG primitive, possibly through an import alias or a "
        "helper in a module DET002's path scope never sees.  The run "
        "result depends on when/where it executes; thread a seeded "
        "random.Random or the simulation clock through the chain."
    )

    def applies_to(self, path: str) -> bool:
        return self._in_dirs(path, SIM_SCOPE)

    def check_project(self, project) -> Iterator[Finding]:
        graph = project.callgraph
        sinks: Set[str] = {
            owner
            for owner, names in graph.externals.items()
            if owner in project.symtab.functions
            and any(is_entropy_external(n) for n in names)
        }
        if not sinks:
            return
        for module_name in project.modules_sorted():
            module = project.symtab.modules[module_name]
            if not self.applies_to(module.path):
                continue
            ctx = project.contexts[module.path]
            functions = sorted(
                (
                    info
                    for info in project.symtab.functions.values()
                    if info.module == module_name
                ),
                key=lambda info: (info.node.lineno, info.qualname),
            )
            for info in functions:
                if info.qualname in sinks:
                    continue  # direct reads are DET002's finding
                chain = graph.reach(info.qualname, sinks)
                if chain is None or len(chain) < 2:
                    continue
                primitive = sorted(
                    n
                    for n in graph.externals.get(chain[-1], ())
                    if is_entropy_external(n)
                )[0]
                names = [
                    project.symtab.functions[q].name for q in chain
                ]
                yield ctx.finding(
                    self,
                    info.node,
                    f"{info.name}() reaches {primitive}() via "
                    f"{' -> '.join(names)}; thread a seeded "
                    "random.Random / simulation clock through the chain",
                )


@register
class ForkBoundaryPayloadRule(ProjectRule):
    """DET013: unstable or unpicklable payloads crossing fork boundaries."""

    code = "DET013"
    name = "fork-boundary-payload"
    description = (
        "An object sent across a fork/Pipe/Queue boundary "
        "(.send()/.put()) that is not in the picklable-frozen "
        "allowlist: lambdas and generators fail to pickle at all, sets "
        "pickle in iteration order (diverging payload bytes for equal "
        "payloads), locals() ships unordered state, and a non-frozen "
        "project class can be mutated after the snapshot the worker "
        "sees.  Ship tuples, sorted collections, or frozen dataclasses."
    )

    SEND_METHODS = frozenset({"send", "put", "put_nowait"})
    #: Class names accepted across the boundary even though the
    #: analyser cannot prove them frozen (extend as payload types are
    #: audited); frozen dataclasses and NamedTuple/tuple/Enum
    #: subclasses are allowlisted structurally.
    PICKLABLE_FROZEN = frozenset({"Finding"})

    def applies_to(self, path: str) -> bool:
        return "tests" not in path_parts(path)

    def check_project(self, project) -> Iterator[Finding]:
        for module_name in project.modules_sorted():
            module = project.symtab.modules[module_name]
            if not self.applies_to(module.path):
                continue
            if not KwargsPayloadRule._imports_multiprocessing(module.tree):
                continue
            ctx = project.contexts[module.path]
            for call, scope, class_name in iter_scoped_calls(module):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in self.SEND_METHODS
                ):
                    continue
                for argument in call.args:
                    offense = self._first_offense(
                        project, module, argument, class_name
                    )
                    if offense is not None:
                        yield ctx.finding(
                            self,
                            call,
                            f".{call.func.attr}() ships {offense} across "
                            "a fork boundary; ship a tuple, a sorted "
                            "collection, or a frozen dataclass",
                        )
                        break

    def _first_offense(
        self,
        project,
        module: ModuleInfo,
        payload: ast.AST,
        class_name: Optional[str],
    ) -> Optional[str]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                return "a lambda (unpicklable)"
            if isinstance(node, ast.GeneratorExp):
                return "a generator (unpicklable)"
            if isinstance(node, (ast.Set, ast.SetComp)):
                return "a set (pickles in iteration order)"
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")
                ):
                    return f"a {node.func.id}() (pickles in iteration order)"
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "locals"
                ):
                    return "locals() (unordered caller state)"
                resolved = project.symtab.resolve_call(
                    module, node.func, class_name
                )
                if resolved is not None and resolved in project.symtab.classes:
                    info = project.symtab.classes[resolved]
                    if (
                        not info.frozen
                        and info.name not in self.PICKLABLE_FROZEN
                    ):
                        return (
                            f"{info.name} (not a frozen dataclass / "
                            "NamedTuple and not allowlisted)"
                        )
        return None


@register
class JsonStabilityRule(ProjectRule):
    """DET014: JSONL emitters whose field serialization is not byte-stable."""

    code = "DET014"
    name = "unstable-json-serialization"
    description = (
        "A json.dumps/json.dump call whose payload is evidently a dict "
        "(literal, comprehension, dict() call, or a local assigned one "
        "of those) without sort_keys=True — insertion order leaks into "
        "the emitted bytes, so logically equal records serialize "
        "differently — or str() applied to an evident float in an "
        "emitter path, where an explicit format spec is required for "
        "pinned field bytes."
    )

    def applies_to(self, path: str) -> bool:
        return "tests" not in path_parts(path)

    def check_project(self, project) -> Iterator[Finding]:
        for module_name in project.modules_sorted():
            module = project.symtab.modules[module_name]
            if not self.applies_to(module.path):
                continue
            ctx = project.contexts[module.path]
            for call, scope, class_name in iter_scoped_calls(module):
                scope_node = self._scope_node(project, module, scope)
                resolved = project.symtab.resolve_call(
                    module, call.func, class_name
                )
                if resolved in ("json.dumps", "json.dump") and call.args:
                    if self._has_sorted_keys(call):
                        continue
                    if self._evident_dict(module, call.args[0], scope_node):
                        verb = resolved.split(".")[1]
                        yield ctx.finding(
                            self,
                            call,
                            f"json.{verb} of a dict without "
                            "sort_keys=True serializes in insertion "
                            "order; pass sort_keys=True for byte-stable "
                            "output",
                        )
                elif (
                    isinstance(call.func, ast.Name)
                    and call.func.id == "str"
                    and len(call.args) == 1
                    and self._evident_float(
                        module, call.args[0], scope_node
                    )
                ):
                    yield ctx.finding(
                        self,
                        call,
                        "str() on a float leaves field bytes to repr "
                        "heuristics; use an explicit format spec "
                        "(e.g. format(x, '.17g')) in emitter paths",
                    )

    @staticmethod
    def _scope_node(
        project, module: ModuleInfo, scope: Tuple[str, ...]
    ) -> ast.AST:
        if not scope:
            return module.tree
        info = project.symtab.functions.get(
            ".".join((module.name,) + scope)
        )
        return info.node if info is not None else module.tree

    @staticmethod
    def _has_sorted_keys(call: ast.Call) -> bool:
        return any(
            kw.arg == "sort_keys"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )

    def _evident_dict(
        self, module: ModuleInfo, payload: ast.AST, scope_node: ast.AST
    ) -> bool:
        if isinstance(payload, (ast.Dict, ast.DictComp)):
            return True
        if (
            isinstance(payload, ast.Call)
            and isinstance(payload.func, ast.Name)
            and payload.func.id == "dict"
        ):
            return True
        if isinstance(payload, ast.Name):
            value = _last_assignment(scope_node, payload)
            if value is None and scope_node is not module.tree:
                value = _last_assignment(module.tree, payload)
            if value is not None and value is not payload:
                return self._evident_dict_shallow(value)
        return False

    @staticmethod
    def _evident_dict_shallow(value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
        )

    def _evident_float(
        self, module: ModuleInfo, argument: ast.AST, scope_node: ast.AST
    ) -> bool:
        if self._evident_float_shallow(argument):
            return True
        if isinstance(argument, ast.Name):
            value = _last_assignment(scope_node, argument)
            if value is None and scope_node is not module.tree:
                value = _last_assignment(module.tree, argument)
            if value is not None:
                return self._evident_float_shallow(value)
        return False

    @staticmethod
    def _evident_float_shallow(value: ast.AST) -> bool:
        if isinstance(value, ast.Constant) and isinstance(
            value.value, float
        ):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "float"
        )
