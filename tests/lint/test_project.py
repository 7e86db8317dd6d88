"""The project layer: symbol table, call graph, and seed lineage.

Unit tests drive ``SymbolTable``/``CallGraph`` directly on tiny virtual
modules; the interprocedural rules are exercised end-to-end through
``lint_sources`` so resolution, lineage, and reporting are tested as one
pipeline — exactly how ``python -m repro.lint`` uses them.
"""

import ast
from pathlib import Path

from repro.lint import lint_sources
from repro.lint.callgraph import CallGraph
from repro.lint.symtab import SymbolTable, module_name_for_path

REPO = Path(__file__).resolve().parents[2]


def _table(**sources):
    """Build a SymbolTable from ``{path: source}`` virtual modules."""
    table = SymbolTable()
    for path, source in sources.items():
        table.add_module(path, ast.parse(source))
    return table


# -- symbol table -------------------------------------------------------


def test_module_name_for_path_strips_src_and_init():
    assert module_name_for_path("src/repro/sim/engine.py") == (
        "repro.sim.engine"
    )
    assert module_name_for_path("src/repro/sim/__init__.py") == "repro.sim"


def test_import_alias_resolution():
    table = _table(**{
        "src/repro/sim/a.py": "import time as clock\nimport hashlib\n",
    })
    module = table.by_path["src/repro/sim/a.py"]
    assert table.resolve(module, "clock.time") == "time.time"
    assert table.resolve(module, "hashlib.sha256") == "hashlib.sha256"
    assert table.resolve(module, "unknown.name") is None


def test_from_import_and_asname_resolution():
    table = _table(**{
        "src/repro/sim/helpers.py": "def seed_of(n):\n    return n\n",
        "src/repro/sim/user.py": (
            "from repro.sim.helpers import seed_of as sd\n"
            "from repro.sim import helpers\n"
        ),
    })
    user = table.by_path["src/repro/sim/user.py"]
    assert table.resolve(user, "sd") == "repro.sim.helpers.seed_of"
    assert table.resolve(user, "helpers.seed_of") == (
        "repro.sim.helpers.seed_of"
    )


def test_relative_import_resolution():
    table = _table(**{
        "src/repro/sim/helpers.py": "def seed_of(n):\n    return n\n",
        "src/repro/sim/user.py": "from .helpers import seed_of\n",
        "src/repro/sim/__init__.py": "from .helpers import seed_of\n",
    })
    user = table.by_path["src/repro/sim/user.py"]
    package = table.by_path["src/repro/sim/__init__.py"]
    assert table.resolve(user, "seed_of") == "repro.sim.helpers.seed_of"
    assert table.resolve(package, "seed_of") == "repro.sim.helpers.seed_of"


def test_self_method_call_resolution():
    table = _table(**{
        "src/repro/sim/a.py": (
            "class Engine:\n"
            "    def seed(self):\n"
            "        return 1\n"
            "\n"
            "    def run(self):\n"
            "        return self.seed()\n"
        ),
    })
    module = table.by_path["src/repro/sim/a.py"]
    call = None
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            call = node
    assert table.resolve_call(module, call.func, "Engine") == (
        "repro.sim.a.Engine.seed"
    )


# -- call graph ---------------------------------------------------------

CHAIN = {
    "src/repro/sim/clockmod.py": (
        "import time as clock\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return clock.time()\n"
    ),
    "src/repro/sim/driver.py": (
        "from repro.sim.clockmod import stamp\n"
        "\n"
        "\n"
        "def middle():\n"
        "    return stamp()\n"
        "\n"
        "\n"
        "def top():\n"
        "    return middle()\n"
    ),
}


def test_callgraph_edges_methods_and_externals():
    table = _table(**CHAIN)
    graph = CallGraph.build(table)
    assert graph.calls["repro.sim.driver.middle"] == (
        "repro.sim.clockmod.stamp",
    )
    assert graph.calls["repro.sim.driver.top"] == ("repro.sim.driver.middle",)
    assert graph.externals["repro.sim.clockmod.stamp"] == ("time.time",)


def test_callgraph_reach_shortest_chain():
    table = _table(**CHAIN)
    graph = CallGraph.build(table)
    sinks = {"repro.sim.clockmod.stamp"}
    assert graph.reach("repro.sim.driver.top", sinks) == [
        "repro.sim.driver.top",
        "repro.sim.driver.middle",
        "repro.sim.clockmod.stamp",
    ]
    assert graph.reach("repro.sim.clockmod.stamp", sinks) == [
        "repro.sim.clockmod.stamp"
    ]
    assert graph.reach("repro.sim.driver.middle", {"absent"}) is None


def test_callgraph_closure_includes_callers():
    table = _table(**CHAIN)
    graph = CallGraph.build(table)
    closure = graph.transitive_closure_from({"repro.sim.clockmod.stamp"})
    assert closure == {
        "repro.sim.clockmod.stamp",
        "repro.sim.driver.middle",
        "repro.sim.driver.top",
    }


def test_method_owners_use_class_qualified_names():
    table = _table(**{
        "src/repro/sim/a.py": (
            "import time as clock\n"
            "\n"
            "\n"
            "class Engine:\n"
            "    def tick(self):\n"
            "        return clock.time()\n"
        ),
    })
    graph = CallGraph.build(table)
    assert graph.externals["repro.sim.a.Engine.tick"] == ("time.time",)


# -- interprocedural rules, end to end ----------------------------------


def test_cross_module_sha256_helper_keeps_det011_quiet():
    helper = (
        "import hashlib\n"
        "\n"
        "\n"
        "def derive(tag):\n"
        "    digest = hashlib.sha256(tag.encode()).digest()\n"
        "    return int.from_bytes(digest[:8], 'big')\n"
    )
    clean_user = (
        "import random\n"
        "\n"
        "from repro.sim.seeds import derive\n"
        "\n"
        "RNG = random.Random(derive('tag'))\n"
    )
    flagged_user = clean_user.replace("derive('tag')", "1234")
    assert lint_sources([
        ("src/repro/sim/seeds.py", helper),
        ("src/repro/sim/use.py", clean_user),
    ]) == []
    findings = lint_sources([
        ("src/repro/sim/seeds.py", helper),
        ("src/repro/sim/use.py", flagged_user),
    ])
    assert [f.rule for f in findings] == ["DET011"]
    assert findings[0].path == "src/repro/sim/use.py"


def test_det011_fires_outside_sim_dirs_only_when_sim_reaching():
    source = "import random\n\nRNG = random.Random(7)\n"
    # A viz module that never touches sim scope: out of DET011's reach.
    assert lint_sources([("src/repro/viz/palette.py", source)]) == []
    # The same construction in a module importing sim scope is flagged.
    reaching = source + "\nfrom repro.sim import engine  # noqa\n"
    findings = lint_sources([("src/repro/viz/driver.py", reaching)])
    assert [f.rule for f in findings] == ["DET011"]


def test_det012_chain_crosses_modules():
    """DET002 (which absorbed DET012) flags the aliased read where it
    happens and each caller with its cross-module chain."""
    findings = lint_sources(sorted(CHAIN.items()))
    assert [f.rule for f in findings] == ["DET002", "DET002", "DET002"]
    assert [f.path for f in findings] == [
        "src/repro/sim/clockmod.py",
        "src/repro/sim/driver.py",
        "src/repro/sim/driver.py",
    ]
    assert "time.time() reads the wall clock" in findings[0].message
    assert "middle() reaches time.time() via middle -> stamp" in (
        findings[1].message
    )
    assert "top() reaches time.time() via top -> middle -> stamp" in (
        findings[2].message
    )


def test_real_sim_tree_has_no_interprocedural_findings(monkeypatch):
    """Regression: the fixed seed sites stay fixed (PR acceptance gate)."""
    from repro.lint import lint_paths

    monkeypatch.chdir(REPO)
    findings = lint_paths(["src/repro/sim", "src/repro/routing"])
    assert findings == []


def test_src_has_one_seed_derivation(monkeypatch):
    """The seed helpers under ``src/repro`` (the linter aside) — functions
    that hash with ``hashlib`` and their direct callers — are exactly
    ``repro.seeds`` and its four public wrappers, so an ad-hoc sha256
    seed helper added anywhere else fails here."""
    from repro.lint.engine import iter_python_files
    from repro.lint.project import Project
    from repro.lint.registry import LintContext

    monkeypatch.chdir(REPO)
    contexts = []
    for path in iter_python_files(["src/repro"]):
        source = path.read_text(encoding="utf-8")
        contexts.append(
            LintContext(path.as_posix(), source, ast.parse(source))
        )
    project = Project(contexts)
    helpers = {
        name for name in project.lineage.sha256_helpers
        if not name.startswith("repro.lint.")
    }
    hashing = {
        name for name in helpers
        if any(
            external.startswith("hashlib.")
            for external in project.callgraph.externals.get(name, ())
        )
    }
    wrappers = {
        name for name in helpers
        if hashing & set(project.callgraph.calls.get(name, ()))
    }
    assert hashing | wrappers == {
        "repro.seeds.derive",
        "repro.seeds.default_rng",
        "repro.sim.service.service_seed",
        "repro.sim.traffic.traffic_seed",
        "repro.experiments.runner.point_seed",
        "repro.experiments.traffic.traffic_point_seed",
    }
