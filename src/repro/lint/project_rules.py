"""The project rules DET002, DET011, DET013 and DET014.

These rules consume the :class:`~repro.lint.project.Project` built once
per run — symbol table, call graph, and seed lineage — rather than a
single file's AST.  That is what lets them follow a wall-clock read
through an import alias (``import time as clock``) and up the call
chain into sim scope, trace a literal seed through a default argument,
and resolve a class crossing a fork boundary to its (non-)frozen
definition in another module.

Retired codes (DET004, DET006, DET009, DET010, DET012) are never
renumbered or reused, because pragmas and SARIF fingerprints name them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from .callgraph import iter_scoped_calls
from .findings import Finding
from .lineage import AMBIENT, LITERAL, _last_assignment
from .project import SIM_SCOPE
from .registry import LintContext, ProjectRule, path_parts, register
from .symtab import ModuleInfo

__all__ = ["is_entropy_external"]

#: ``time`` functions that read a clock.
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
#: ``datetime``/``date`` constructors that read the wall clock.
NOW_CALLS = frozenset({"now", "utcnow", "today"})
DATETIME_ROOTS = frozenset({"datetime", "date"})


def is_entropy_external(name: str) -> bool:
    """Whether a resolved dotted call name is an ambient-entropy read.

    The one catalogue of entropy primitives: module RNG draws (anything
    on ``random`` but ``random.Random``), clock reads, ``datetime.now``
    and friends, ``os.urandom``, ``secrets`` and ``uuid``.  Names arrive
    resolved through the symbol table, so ``import time as clock;
    clock.time()`` is judged as ``time.time``.
    """
    parts = name.split(".")
    root, leaf = parts[0], parts[-1]
    if root == "random" and len(parts) >= 2:
        return parts[1] not in ("Random",)
    if root == "time":
        return leaf in CLOCK_CALLS
    if name == "os.urandom":
        return True
    if root in ("secrets", "uuid") and len(parts) >= 2:
        return True
    if leaf in NOW_CALLS and any(
        part in DATETIME_ROOTS for part in parts[:-1]
    ):
        return True
    return False


def _entropy_message(name: str) -> str:
    root = name.split(".")[0]
    if root == "random":
        return (
            f"{name}() draws from the shared module RNG; thread a "
            "random.Random instance instead"
        )
    if root in ("os", "secrets", "uuid"):
        return (
            f"{name}() is OS entropy; thread a seeded random.Random "
            "instead"
        )
    return (
        f"{name}() reads the wall clock inside a simulation path; "
        "results must not depend on it"
    )


@register
class AmbientEntropyRule(ProjectRule):
    """DET002: ambient RNG / wall-clock reads in or reached from sim scope."""

    code = "DET002"
    name = "ambient-entropy"
    description = (
        "Inside sim/, core/, algorithms/ or experiments/: a call that "
        "resolves, through any import alias, to a module RNG draw "
        "(random.* but random.Random), a clock read (time.time, "
        "perf_counter, ...), datetime.now, os.urandom, secrets or uuid; "
        "a `from random|time import` that binds one; or a function that "
        "reaches one only through its callees, possibly in a module "
        "outside that scope (the message names the shortest call "
        "chain).  Simulation paths must draw from a threaded "
        "random.Random and the simulation clock so runs replay "
        "byte-identically."
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
        for module_name in project.modules_sorted():
            module = project.symtab.modules[module_name]
            if not self.applies_to(module.path):
                continue
            ctx = project.contexts[module.path]
            for call, _scope, class_name in iter_scoped_calls(module):
                name = project.symtab.resolve_call(
                    module, call.func, class_name
                )
                if name is not None and is_entropy_external(name):
                    yield ctx.finding(self, call, _entropy_message(name))
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ImportFrom):
                    yield from self._check_import(ctx, node)
            if sinks:
                yield from self._check_chains(project, module, ctx, sinks)

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
            bad = [a.name for a in node.names if a.name in CLOCK_CALLS]
            if bad:
                yield ctx.finding(
                    self,
                    node,
                    f"importing {', '.join(bad)} from time pulls wall-clock "
                    "reads into a simulation path",
                )

    def _check_chains(
        self, project, module: ModuleInfo, ctx: LintContext, sinks: Set[str]
    ) -> Iterator[Finding]:
        """Functions that reach an entropy read only through callees."""
        graph = project.callgraph
        functions = sorted(
            (
                info
                for info in project.symtab.functions.values()
                if info.module == module.name
            ),
            key=lambda info: (info.node.lineno, info.qualname),
        )
        for info in functions:
            if info.qualname in sinks:
                continue  # its direct read is already flagged per call
            chain = graph.reach(info.qualname, sinks)
            if chain is None:
                continue
            primitive = sorted(
                n
                for n in graph.externals.get(chain[-1], ())
                if is_entropy_external(n)
            )[0]
            names = [project.symtab.functions[q].name for q in chain]
            yield ctx.finding(
                self,
                info.node,
                f"{info.name}() reaches {primitive}() via "
                f"{' -> '.join(names)}; thread a seeded "
                "random.Random / simulation clock through the chain",
            )


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
        "byte-identical.  Derive seeds with repro.seeds.derive, the one "
        "sha256 helper (or repro.seeds.default_rng for a default "
        "generator), instead."
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
class ForkBoundaryPayloadRule(ProjectRule):
    """DET013: unstable or unpicklable payloads crossing fork boundaries."""

    code = "DET013"
    name = "fork-boundary-payload"
    description = (
        "In a module that imports multiprocessing or concurrent, a "
        "positional or keyword argument of a pool dispatch (submit, map, "
        "starmap, apply_async, ...) or of a Pipe/Queue send (.send(), "
        ".put(), .put_nowait()) that is not in the picklable-frozen "
        "allowlist: lambdas and generators fail to pickle at all, sets "
        "pickle in iteration order (diverging payload bytes for equal "
        "payloads), locals() and the enclosing function's **kwargs carry "
        "the caller's unordered state and keyword order, and a "
        "non-frozen project class can be mutated after the snapshot the "
        "worker sees.  Ship tuples, sorted collections, or frozen "
        "dataclasses."
    )

    BOUNDARY_METHODS = frozenset(
        {
            "submit",
            "apply_async",
            "map",
            "map_async",
            "imap",
            "imap_unordered",
            "starmap",
            "starmap_async",
            "send",
            "put",
            "put_nowait",
        }
    )
    #: Class names accepted across the boundary even though the
    #: analyser cannot prove them frozen (extend as payload types are
    #: audited); frozen dataclasses and NamedTuple/tuple/Enum
    #: subclasses are allowlisted structurally.
    PICKLABLE_FROZEN = frozenset({"Finding"})

    def check_project(self, project) -> Iterator[Finding]:
        for module_name in project.modules_sorted():
            module = project.symtab.modules[module_name]
            if not _imports_multiprocessing(module.tree):
                continue
            ctx = project.contexts[module.path]
            for call, scope, class_name in iter_scoped_calls(module):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in self.BOUNDARY_METHODS
                ):
                    continue
                kwargs = _enclosing_kwargs(project, module, scope)
                for argument in call.args + [
                    keyword.value for keyword in call.keywords
                ]:
                    offense = self._first_offense(
                        project, module, argument, class_name, kwargs
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
        kwargs: Set[str],
    ) -> Optional[str]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                return "a lambda (unpicklable)"
            if isinstance(node, ast.GeneratorExp):
                return "a generator (unpicklable)"
            if isinstance(node, (ast.Set, ast.SetComp)):
                return "a set (pickles in iteration order)"
            if isinstance(node, ast.Name) and node.id in kwargs:
                return f"**{node.id} (caller keyword order)"
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


def _imports_multiprocessing(tree: ast.Module) -> bool:
    """Whether the module imports ``multiprocessing`` or ``concurrent``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            roots = [(node.module or "").split(".")[0]]
        else:
            continue
        if any(root in ("multiprocessing", "concurrent") for root in roots):
            return True
    return False


def _enclosing_kwargs(
    project, module: ModuleInfo, scope: Tuple[str, ...]
) -> Set[str]:
    """The ``**kwargs`` names of every function enclosing ``scope``."""
    names: Set[str] = set()
    for depth in range(1, len(scope) + 1):
        info = project.symtab.functions.get(
            ".".join((module.name,) + scope[:depth])
        )
        if info is not None and info.node.args.kwarg is not None:
            names.add(info.node.args.kwarg.arg)
    return names


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
