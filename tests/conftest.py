"""Shared fixtures: deterministic RNGs and sampled deployments."""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.check.reference import substituted
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG, fresh per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def on_backend():
    """``on_backend(name)`` is a context that runs its block on the
    coverage kernel (``"bitset"``) or, for ``"sets"``, on the reference
    predicates (:func:`repro.check.reference.substituted`)."""

    def block(backend: str):
        if backend == "sets":
            return substituted()
        return contextlib.nullcontext()

    return block


@pytest.fixture
def sparse_network(rng):
    """A 40-node, average-degree-6 connected deployment."""
    return random_connected_network(40, 6.0, rng)


@pytest.fixture
def dense_network(rng):
    """A 40-node, average-degree-12 connected deployment."""
    return random_connected_network(40, 12.0, rng)


@pytest.fixture
def small_graph() -> Topology:
    """A hand-built 8-node graph with bridges, a clique, and a pendant.

    Layout::

        0 - 1 - 2       5 - 6
        |   |   |      /|
        3 - 4 --+-- 5-+ |
                        7   (7 pendant off 6)

    Concretely: clique-ish block {0,1,3,4}, chain 2-5, fan {5,6}, pendant 7.
    """
    return Topology(
        edges=[
            (0, 1),
            (0, 3),
            (1, 2),
            (1, 4),
            (3, 4),
            (2, 4),
            (2, 5),
            (5, 6),
            (6, 7),
        ]
    )
