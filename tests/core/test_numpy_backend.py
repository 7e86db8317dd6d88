"""A second sample of the cross-backend agreement suites.

The 50-seed predicate and component checks of ``test_bitset_backend.py``
rerun here on views drawn with other seed offsets (graph ``+500``, view
rng ``+4000``/``+5000``), so they cover views the matching suites there
do not.  The module keeps the name it had while it also covered the
retired numpy word-table backend, whose name must still be refused.
"""

import random

import pytest

from repro.core import coverage as coverage_module
from repro.core.coverage import coverage_backend, higher_priority_components
from repro.core.priority import IdPriority
from repro.core.views import local_view
from repro.graph.topology import Topology

from .test_bitset_backend import (
    SEEDS,
    _random_graph,
    _random_view,
    check_backends_agree,
    component_sets,
    predicate_verdicts,
)


@pytest.mark.parametrize("seed", SEEDS)
def test_predicates_agree_across_all_backends(seed, monkeypatch):
    graph = _random_graph(seed + 500)
    check_backends_agree(
        monkeypatch,
        lambda: _random_view(graph, random.Random(seed + 4000)),
        predicate_verdicts,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_components_agree_across_all_backends(seed, monkeypatch):
    graph = _random_graph(seed + 500)
    check_backends_agree(
        monkeypatch,
        lambda: _random_view(graph, random.Random(seed + 5000)),
        component_sets,
    )


def test_invisible_node_still_ranked(monkeypatch):
    """Every backend handles v outside the view graph (invisible rank)."""
    # 2-hop view of a 7-node path: 4 and beyond lie outside the view.
    graph = Topology(edges=[(i, i + 1) for i in range(1, 7)])
    assert 5 not in local_view(graph, 1, 2, IdPriority()).graph
    check_backends_agree(
        monkeypatch,
        lambda: local_view(graph, 1, 2, IdPriority()),
        lambda view: frozenset(
            frozenset(c) for c in higher_priority_components(view, 5)
        ),
    )


def test_unknown_backend_still_rejected(monkeypatch):
    """The error names the live backends, so a stale setting is fixable."""
    assert "numpy" not in coverage_module._BACKENDS
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", "numpy")
    with pytest.raises(ValueError, match="'bitset', 'sets'"):
        coverage_backend()
