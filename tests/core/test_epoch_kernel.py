"""The bitset kernel's epoch cache: 50-seed properties and invalidation.

``SimulationEnvironment.make_view`` hands every view it builds over one
view graph a shared epoch cache holding status-free state: each decider's
``static_higher`` mask, uncovered pairs and strong verdict.  A view
graph's first decider fills its own state lazily; the second distinct
decider triggers one decreasing-priority sweep that fills every visible
decider's.  Each message's status is applied over that state as a mask
overlay.  The properties here pin down that:

* a view sharing the epoch cache answers ``uncovered_pairs``,
  ``coverage_condition`` and ``strong_coverage_condition`` exactly like
  a fresh view with no shared cache, and like the ``sets`` oracle, for
  deciders at every status and with ``visited_connected`` on and off;
* on a status-empty global view every node's answer comes from the sweep
  with no flood fill, and matches the fresh view and ``sets``;
* the monotone shortcut's premise holds: for an UNVISITED decider the
  dynamic uncovered list is an in-order sub-list of the status-free one;
* a one-decider epoch never sweeps, a multi-decider epoch sweeps once per
  topology epoch, and no view reads epoch state from before a topology
  change; scheme siblings never share it, and views built any other way
  keep per-view scope.
"""

import dataclasses
import random

import pytest

from repro.core import coverage
from repro.core import status as st
from repro.core.coverage import (
    coverage_condition,
    strong_coverage_condition,
    uncovered_pairs,
)
from repro.core.priority import DegreePriority, IdPriority, NcrPriority
from repro.core.views import (
    View,
    epoch_cache,
    local_view,
    share_epoch_cache,
    view_cache,
)
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.instrument import collecting
from repro.sim.engine import SimulationEnvironment

SEEDS = range(50)
SCHEMES = {
    "id": IdPriority(),
    "degree": DegreePriority(),
    "ncr": NcrPriority(),
}
CONDITIONS = {
    "generic": coverage_condition,
    "strong": strong_coverage_condition,
}


def _random_graph(rng: random.Random) -> Topology:
    """A random connected graph (spanning tree plus extra edges)."""
    n = rng.randint(6, 22)
    graph = Topology(nodes=range(n))
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        graph.add_edge(order[i], rng.choice(order[:i]))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


def _fresh(view: View, **changes) -> View:
    """An equal view with no shared epoch cache and no warm memo."""
    return View(
        graph=changes.get("graph", view.graph),
        status=dict(view.status),
        metrics=view.metrics,
        metric_padding=view.metric_padding,
        visited_connected=changes.get(
            "visited_connected", view.visited_connected
        ),
    )


def _verdicts(view: View, v: int, condition_first: bool = False):
    """``(uncovered_pairs, coverage_condition, strong_coverage_condition)``.

    With ``condition_first`` the condition is asked before the pair list,
    so it cannot read the list from the view's memo.
    """
    if condition_first:
        condition = coverage_condition(view, v)
        strong = strong_coverage_condition(view, v)
        return uncovered_pairs(view, v), condition, strong
    return (
        uncovered_pairs(view, v),
        coverage_condition(view, v),
        strong_coverage_condition(view, v),
    )


def _use_backend(monkeypatch, backend: str) -> None:
    monkeypatch.setenv("REPRO_COVERAGE_BACKEND", backend)


def _is_ordered_sublist(short, long) -> bool:
    remaining = iter(long)
    return all(item in remaining for item in short)


def _overlay(rng: random.Random, nodes, v: int, v_status: float):
    """Random visited/designated sets with ``v`` at ``v_status``."""
    others = [node for node in nodes if node != v]
    visited = set(rng.sample(others, rng.randint(0, len(others) // 2)))
    designated = set(
        rng.sample(others, rng.randint(0, len(others) // 3))
    ) - visited
    if v_status == st.VISITED:
        visited.add(v)
    elif v_status == st.DESIGNATED:
        designated.add(v)
    return frozenset(visited), frozenset(designated)


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_epoch_cache_matches_fresh_views_and_sets(seed, monkeypatch):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    scheme = rng.choice([IdPriority(), DegreePriority(), NcrPriority()])
    env = SimulationEnvironment(graph, scheme)
    hops = rng.choice([None, 1, 2, 3])
    center = rng.choice(graph.nodes())
    view_graph = env.view_graph(center, hops)
    nodes = view_graph.nodes()
    # The centre plus up to two more deciders over the same view graph, so
    # the shared suffix table (built for a second distinct decider) runs.
    deciders = [center] + rng.sample(nodes, min(2, len(nodes)))
    statuses = (st.UNVISITED, st.UNVISITED, st.DESIGNATED, st.VISITED)
    for _round in range(8):
        for v in deciders:
            v_status = rng.choice(statuses)
            visited, designated = _overlay(rng, nodes, v, v_status)
            shared = env.make_view(view_graph, visited, designated)
            assert shared.status_of(v) == v_status
            connected = rng.random() < 0.7
            if not connected:
                shared = share_epoch_cache(
                    dataclasses.replace(shared, visited_connected=False),
                    epoch_cache(shared),
                )
            _use_backend(monkeypatch, "bitset")
            got = _verdicts(shared, v, condition_first=rng.random() < 0.5)
            assert got == _verdicts(_fresh(shared), v)
            _use_backend(monkeypatch, "sets")
            assert got == _verdicts(_fresh(shared), v)
            if v_status == st.UNVISITED:
                _use_backend(monkeypatch, "bitset")
                status_free = env.make_view(
                    view_graph, frozenset(), frozenset()
                )
                assert _is_ordered_sublist(
                    got[0], uncovered_pairs(_fresh(status_free), v)
                )


def test_global_view_past_several_suffix_checkpoints(monkeypatch):
    """A 150-node global view: ranks span several checkpoint blocks."""
    _use_backend(monkeypatch, "bitset")
    net = random_connected_network(150, 8.0, random.Random(2))
    graph = net.topology
    env = SimulationEnvironment(graph, NcrPriority())
    view_graph = env.view_graph(graph.nodes()[0], None)
    rng = random.Random(9)
    for _decision in range(2):
        for v in graph.nodes():
            visited, designated = _overlay(
                rng, rng.sample(graph.nodes(), 12), v, st.UNVISITED
            )
            view = env.make_view(view_graph, visited, designated)
            assert _verdicts(view, v, condition_first=True) == _verdicts(
                _fresh(view), v
            )


def _count_sweeps(monkeypatch):
    """Record the bitset kernel's sweeps: one list entry per sweep."""
    calls = []
    sweep = coverage.priority_sweep

    def counting(*args, **kwargs):
        calls.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(coverage, "priority_sweep", counting)
    return calls


@pytest.mark.parametrize("condition", sorted(CONDITIONS))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_answers_every_node_of_a_status_empty_global_view(
    seed, scheme, condition, monkeypatch
):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph, SCHEMES[scheme])
    nodes = graph.nodes()
    view_graph = env.view_graph(nodes[0], None)
    decide = CONDITIONS[condition]
    _use_backend(monkeypatch, "bitset")
    sweeps = _count_sweeps(monkeypatch)
    shared = env.make_view(view_graph, frozenset(), frozenset())
    # The first decider flood-fills; the second triggers the sweep, and
    # from then on no decision flood-fills.
    got = {nodes[0]: decide(shared, nodes[0])}
    with collecting() as counters:
        for v in nodes[1:]:
            got[v] = decide(shared, v)
    assert len(sweeps) == 1
    assert counters.mask_floodfills == 0
    pairs = {v: uncovered_pairs(shared, v) for v in nodes}
    for backend in ("bitset", "sets"):
        _use_backend(monkeypatch, backend)
        for v in nodes:
            assert (pairs[v], got[v]) == (
                uncovered_pairs(_fresh(shared), v),
                decide(_fresh(shared), v),
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_overlays_after_the_sweep_match_sets(seed, monkeypatch):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph, rng.choice(list(SCHEMES.values())))
    nodes = graph.nodes()
    view_graph = env.view_graph(nodes[0], None)
    _use_backend(monkeypatch, "bitset")
    sweeps = _count_sweeps(monkeypatch)
    empty = env.make_view(view_graph, frozenset(), frozenset())
    for v in nodes[:2]:
        coverage_condition(empty, v)
    assert len(sweeps) == 1
    for v in nodes:
        for v_status in (st.UNVISITED, st.DESIGNATED, st.VISITED):
            visited, designated = _overlay(rng, nodes, v, v_status)
            shared = env.make_view(view_graph, visited, designated)
            if rng.random() < 0.5:
                shared = share_epoch_cache(
                    dataclasses.replace(shared, visited_connected=False),
                    epoch_cache(shared),
                )
            _use_backend(monkeypatch, "bitset")
            got = _verdicts(shared, v, condition_first=rng.random() < 0.5)
            _use_backend(monkeypatch, "sets")
            assert got == _verdicts(_fresh(shared), v)
    assert len(sweeps) == 1


def test_one_decider_epochs_never_sweep(monkeypatch):
    rng = random.Random(8)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph)
    _use_backend(monkeypatch, "bitset")
    sweeps = _count_sweeps(monkeypatch)
    nodes = graph.nodes()
    for _message in range(3):
        for node in nodes:
            view = env.make_view(
                env.view_graph(node, 2),
                frozenset(nodes[:2]) - {node},
                frozenset(nodes[2:4]) - {node},
            )
            _verdicts(view, node)
            assert epoch_cache(view).state.others is None
    assert not sweeps


@pytest.mark.parametrize("mutation", ["apply_delta", "mutator"])
def test_multi_decider_epoch_sweeps_once_per_topology_epoch(
    mutation, monkeypatch
):
    rng = random.Random(12)
    graph = _random_graph(rng)
    while graph.node_count() < 10:
        graph = _random_graph(rng)
    env = SimulationEnvironment(graph, NcrPriority())
    nodes = graph.nodes()
    view_graph = env.view_graph(nodes[0], None)
    _use_backend(monkeypatch, "bitset")
    sweeps = _count_sweeps(monkeypatch)

    def decide_all():
        verdicts = []
        for _message in range(2):
            for node in nodes:
                view = env.make_view(view_graph, frozenset(), frozenset())
                verdicts.append(_verdicts(view, node))
        return verdicts

    decide_all()
    assert len(sweeps) == 1
    added, removed = _flip_some_edges(graph, rng)
    if mutation == "apply_delta":
        assert graph.apply_delta(
            added_edges=added, removed_edges=removed
        ).fast_path
    else:
        for edge in removed:
            graph.remove_edge(*edge)
        for edge in added:
            graph.add_edge(*edge)
    after = decide_all()
    assert len(sweeps) == 2
    rebuilt = SimulationEnvironment(graph.copy(), NcrPriority())
    rebuilt_graph = rebuilt.view_graph(nodes[0], None)
    assert after == [
        _verdicts(
            _fresh(rebuilt.make_view(rebuilt_graph, frozenset(), frozenset())),
            node,
        )
        for _message in range(2)
        for node in nodes
    ]


def test_shortcut_engages_and_is_counted():
    rng = random.Random(7)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph)
    view_graph = env.view_graph(graph.nodes()[0], None)
    with collecting() as counters:
        for node in graph.nodes():
            for _decision in range(3):
                view = env.make_view(view_graph, frozenset(), frozenset())
                coverage_condition(view, node)
                strong_coverage_condition(view, node)
    # With no status at all, the third decision of every node is answered
    # from the epoch state (as is the second, which builds it).
    assert counters.coverage_epoch_reuses >= 2 * graph.node_count()


def _flip_some_edges(graph: Topology, rng: random.Random):
    nodes = graph.nodes()
    removed = rng.sample(sorted(graph.edges()), 2)
    added = []
    while len(added) < 2:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v) and (u, v) not in added:
            added.append((u, v))
    return added, removed


def _decide_everything(env: SimulationEnvironment, hops, statuses):
    """Verdicts of every node, three times each to fill the epoch state."""
    out = {}
    for node in env.graph.nodes():
        view_graph = env.view_graph(node, hops)
        for visited, designated in statuses:
            view = env.make_view(
                view_graph,
                frozenset(visited) - {node},
                frozenset(designated) - {node},
            )
            out[node, visited, designated] = _verdicts(view, node)
    return out


@pytest.mark.parametrize("hops", [None, 2])
@pytest.mark.parametrize("mutation", ["apply_delta", "mutator"])
def test_topology_change_never_reads_stale_epoch_state(hops, mutation):
    rng = random.Random(11)
    graph = _random_graph(rng)
    while graph.node_count() < 10:
        graph = _random_graph(rng)
    env = SimulationEnvironment(graph, DegreePriority())
    nodes = graph.nodes()
    statuses = [
        (frozenset(), frozenset()),
        (frozenset(nodes[:2]), frozenset(nodes[2:4])),
        (frozenset(), frozenset()),
    ]
    _decide_everything(env, hops, statuses)
    old_view = env.make_view(env.view_graph(nodes[0], None), *statuses[1])
    _decide_everything(env, None, statuses[:1] * 2)

    added, removed = _flip_some_edges(graph, rng)
    if mutation == "apply_delta":
        report = graph.apply_delta(added_edges=added, removed_edges=removed)
        assert report.fast_path
    else:
        for edge in removed:
            graph.remove_edge(*edge)
        for edge in added:
            graph.add_edge(*edge)

    rebuilt = SimulationEnvironment(graph.copy(), DegreePriority())
    assert _decide_everything(env, hops, statuses) == _decide_everything(
        rebuilt, hops, statuses
    )
    # A view built before the change (over the mutated global graph) must
    # not answer from the epoch state of the old topology either.
    for node in nodes:
        assert _verdicts(old_view, node) == _verdicts(_fresh(old_view), node)


def test_scheme_siblings_do_not_share_epoch_state():
    rng = random.Random(5)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph, IdPriority())
    sibling = env.with_scheme(DegreePriority())
    for node in graph.nodes():
        view_graph = env.view_graph(node, 2)
        assert sibling.view_graph(node, 2) is view_graph
        mine = env.make_view(view_graph, frozenset(), frozenset())
        theirs = sibling.make_view(view_graph, frozenset(), frozenset())
        assert epoch_cache(mine) is not epoch_cache(theirs)
        for view in (mine, theirs, mine, theirs, mine, theirs):
            assert _verdicts(view, node) == _verdicts(_fresh(view), node)


def test_make_view_views_share_one_epoch_cache_per_view_graph():
    rng = random.Random(3)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph)
    node = graph.nodes()[0]
    view_graph = env.view_graph(node, 2)
    first = env.make_view(view_graph, frozenset(), frozenset())
    second = env.make_view(view_graph, frozenset([node]), frozenset())
    assert epoch_cache(first) is epoch_cache(second)
    other = env.make_view(
        env.view_graph(graph.nodes()[1], 2), frozenset(), frozenset()
    )
    assert epoch_cache(other) is not epoch_cache(first)


def test_with_status_and_local_views_get_per_view_scope():
    rng = random.Random(4)
    graph = _random_graph(rng)
    env = SimulationEnvironment(graph)
    node = graph.nodes()[0]
    shared = env.make_view(env.view_graph(node, 2), frozenset(), frozenset())
    derived = shared.with_status({node: st.DESIGNATED})
    twin = shared.with_status({node: st.DESIGNATED})
    assert epoch_cache(derived) is epoch_cache(derived)
    assert epoch_cache(derived) is not epoch_cache(shared)
    assert epoch_cache(derived) is not epoch_cache(twin)
    local = local_view(graph, node, 2, env.scheme)
    local_twin = local_view(graph, node, 2, env.scheme)
    assert epoch_cache(local) is not epoch_cache(local_twin)
    for view in (derived, local):
        assert _verdicts(view, node) == _verdicts(_fresh(view), node)
    # Per-view scope: the state is dropped with the view's own memo.
    view_cache(local).clear()
    assert epoch_cache(local).state is None
