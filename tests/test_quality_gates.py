"""Repository-wide quality gates.

* every public module, class, and function in ``repro`` carries a
  docstring (deliverable: "doc comments on every public item");
* every module's ``__all__`` names resolve;
* a moderately large deployment (n = 150) broadcasts quickly — a coarse
  performance regression tripwire;
* no module reads a ``REPRO_*`` environment variable.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import random
import time

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=lambda m: m.__name__
)
def test_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=lambda m: m.__name__
)
def test_public_items_have_docstrings(module):
    missing = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name, None)
        if item is None:
            missing.append(f"{name} (unresolvable)")
            continue
        if inspect.isclass(item) or inspect.isfunction(item):
            if not inspect.getdoc(item):
                missing.append(name)
            if inspect.isclass(item):
                for attr_name, attr in vars(item).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr) and not inspect.getdoc(attr):
                        missing.append(f"{item.__name__}.{attr_name}")
    assert not missing, (
        f"{module.__name__}: missing docstrings on {missing}"
    )


@pytest.mark.parametrize(
    "module", ALL_MODULES, ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_scale_tripwire():
    """n = 150 dense-ish broadcast stays well under a second."""
    from repro.algorithms.generic import GenericSelfPruning
    from repro.graph.generators import random_connected_network
    from repro.sim.engine import run_broadcast

    rng = random.Random(5150)
    net = random_connected_network(150, 8.0, rng)
    started = time.perf_counter()
    outcome = run_broadcast(
        net.topology, GenericSelfPruning(), source=0, rng=rng
    )
    elapsed = time.perf_counter() - started
    assert outcome.delivered == set(net.topology.nodes())
    assert elapsed < 5.0, f"broadcast took {elapsed:.2f}s"


def _environment_keys(tree):
    """Constant keys read from ``os.environ`` or ``os.getenv`` in ``tree``.

    Walks expressions only, so a docstring naming a variable is no read.
    """

    def is_environ(node):
        name = getattr(node, "attr", getattr(node, "id", None))
        return isinstance(node, (ast.Attribute, ast.Name)) and name == "environ"

    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            if name == "getenv" or (
                name in ("get", "pop", "setdefault")
                and is_environ(getattr(func, "value", None))
            ):
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            key = node.slice
        elif isinstance(node, ast.Compare) and any(
            is_environ(c) for c in node.comparators
        ):
            key = node.left
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value


def test_no_repro_environment_switch():
    """No ``src/repro`` module reads a ``REPRO_*`` environment variable:
    the kernels have one production path each."""
    probe = ast.parse(
        '"""REPRO_DOC is documentation."""\n'
        'import os\n'
        'os.environ.get("REPRO_A")\n'
        'os.getenv("REPRO_B", "x")\n'
        'os.environ["REPRO_C"]\n'
        '"REPRO_D" in os.environ\n'
    )
    assert sorted(_environment_keys(probe)) == [
        "REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D",
    ]
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        (str(path.relative_to(root)), key)
        for path in sorted(root.rglob("*.py"))
        for key in _environment_keys(ast.parse(path.read_text("utf-8")))
        if key.startswith("REPRO_")
    ]
    assert not offenders
