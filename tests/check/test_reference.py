"""Whole runs on the reference predicates: :func:`substituted`.

Inside the block every registry protocol that evaluates a coverage
predicate reaches :mod:`repro.check.reference` (a call counter on its
ranking helper shows it) and forwards the same nodes as on the kernel.
On exit, also when the block raises, every module attribute points at its
production predicate again.  Sweeps run inside the block give the
kernel's tables at any ``jobs`` value, since forked workers inherit the
rebinding.
"""

import importlib
import random
import sys

import pytest

from repro.algorithms import REGISTRY, create
from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning
from repro.check import reference
from repro.core import coverage
from repro.experiments.config import RunSettings
from repro.experiments.export import tables_to_json
from repro.experiments.figures import fig16_backoff
from repro.experiments.runner import run_figure
from repro.experiments.traffic import TrafficSweepConfig, run_traffic_sweep
from repro.graph.generators import random_connected_network
from repro.instrument import collecting
from repro.sim.engine import run_broadcast

KERNEL = tuple(getattr(coverage, name) for name in coverage.__all__)
TWINS = tuple(getattr(reference, name) for name in coverage.__all__)


def _bindings():
    """``(module, attribute) -> function`` for every attribute of a loaded
    ``repro`` module, the reference aside, bound to a predicate or twin."""
    found = {}
    for name, module in list(sys.modules.items()):
        if (
            module is None
            or name == reference.__name__
            or name.split(".")[0] != "repro"
        ):
            continue
        for attr, value in vars(module).items():
            if any(value is f for f in KERNEL + TWINS):
                found[name, attr] = value
    return found


def _forward_nodes(name):
    graph = random_connected_network(30, 8.0, random.Random(3)).topology
    outcome = run_broadcast(graph, create(name), 0, rng=random.Random(1))
    return sorted(outcome.forward_nodes)


def test_every_protocol_that_decides_by_coverage_reaches_the_reference(
    monkeypatch,
):
    calls = []
    rank = reference._higher_priority_nodes

    def counted(view, v):
        calls.append(v)
        return rank(view, v)

    monkeypatch.setattr(reference, "_higher_priority_nodes", counted)
    evaluating, reached = set(), set()
    for name in sorted(REGISTRY):
        with collecting() as counters:
            kernel = _forward_nodes(name)
        assert not calls, name
        with reference.substituted():
            assert _forward_nodes(name) == kernel, name
        if counters.coverage_evaluations:
            evaluating.add(name)
        if calls:
            reached.add(name)
        del calls[:]
    assert reached == evaluating
    assert {"generic-fr", "span", "rule-k"} <= reached


#: Production modules that bind predicates with ``from ... import``.
FROM_IMPORTS = {
    ("repro.algorithms.generic", "coverage_condition"),
    ("repro.algorithms.generic", "strong_coverage_condition"),
    ("repro.algorithms.span", "span_condition"),
    ("repro.algorithms.rule_k", "strong_coverage_condition"),
    ("repro.algorithms.hybrid", "coverage_condition"),
    ("repro.core.conservative", "coverage_condition"),
    ("repro.core.refine", "coverage_condition"),
    ("repro.experiments.runner", "coverage_condition"),
}


def test_block_rebinds_every_predicate_and_restores_after_an_error():
    for module, _attr in FROM_IMPORTS:
        importlib.import_module(module)
    before = _bindings()
    assert FROM_IMPORTS <= before.keys()
    assert all(any(f is g for g in KERNEL) for f in before.values())
    with pytest.raises(RuntimeError, match="inside"):
        with reference.substituted():
            inside = _bindings()
            assert inside.keys() == before.keys()
            for key, twin in inside.items():
                assert twin is TWINS[KERNEL.index(before[key])], key
            raise RuntimeError("inside")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_sweeps_on_the_reference_match_the_kernel_at_any_jobs():
    graph = random_connected_network(25, 6.0, random.Random(71)).topology
    protocols = (
        ("FR", lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)),
    )
    figure = fig16_backoff(ns=[15, 20], degrees=[6.0])

    def tables(jobs):
        traffic = run_traffic_sweep(
            graph,
            protocols,
            TrafficSweepConfig(
                rates=(0.5, 2.0), count=10, seed=9, size_units=4, jobs=jobs
            ),
        )
        settings = RunSettings(
            min_runs=4, max_runs=6, relative_half_width=0.5, seed=7, jobs=jobs
        )
        return tables_to_json([traffic] + run_figure(figure, settings))

    kernel = tables(1)
    with reference.substituted():
        assert tables(1) == kernel
        assert tables(2) == kernel
