"""Pinned seed values: every derived RNG seed in the project, by value.

The byte-identity gates (ledger digests, service goldens, ``--jobs N``
equality) all rest on the seed derivation
``sha256("part|part|...")[:8]`` read big-endian.  These numbers were
recorded once and are never edited: a change that moves any of them
changes every random stream downstream of it.
"""

import importlib.util
import json
import os
import random
import re
import subprocess
import sys

import pytest

from repro import service_seed, traffic_seed
from repro.experiments import point_seed, traffic_point_seed
from repro.seeds import default_rng, derive


def _tagged(tag):
    return lambda sequence: derive(tag, sequence)


#: The four public helpers, and the default seeds of four constructors
#: whose own helpers were folded into :func:`repro.seeds.default_rng`
#: (the names are kept as the keys of their pinned values).
HELPERS = {
    "service_seed": service_seed,
    "traffic_seed": traffic_seed,
    "point_seed": point_seed,
    "traffic_point_seed": traffic_point_seed,
    "workload_seed": _tagged("BroadcastWorkload"),
    "reliable_seed": _tagged("ReliableBroadcastSession"),
    "lifetime_seed": _tagged("network_lifetime"),
    "linkstate_seed": _tagged("LinkStateRouting"),
}

PINNED = [
    ("service_seed", (0,), 1095333856279420056),
    ("service_seed", (1,), 171511433037657575),
    ("service_seed", (17,), 10437022478506551367),
    ("workload_seed", (0,), 3420255848984087903),
    ("workload_seed", (1,), 2529725737643910077),
    ("reliable_seed", (0,), 9194428157759319460),
    ("reliable_seed", (1,), 3460998827513104721),
    ("lifetime_seed", (0,), 15999285347142109455),
    ("lifetime_seed", (1,), 11660008263641606757),
    ("linkstate_seed", (0,), 18156288141598321388),
    ("linkstate_seed", (1,), 14403710285992767501),
    ("traffic_seed", ("poisson", 0), 15724460080824483187),
    ("traffic_seed", ("bursty", 7), 3728790104900659388),
    ("traffic_seed", ("zipf", 20030519), 31411701694948232),
    ("traffic_point_seed", (9, "FR", 2.0), 10383549576100660680),
    ("traffic_point_seed", (9, "FR", 2), 16481349394417303209),
    ("traffic_point_seed", (0, "Generic FRB", 0.1), 6292563670637018461),
    ("traffic_point_seed", (20030519, "MPR", 1e-05), 1235445443179325628),
    ("point_seed", (0, "", "FR", 20, 6.0), 12626849018296953362),
    ("point_seed", (20030519, "Fig. 11 (a)", "SP", 100, 18.0),
     2396756107773516460),
    ("point_seed", (1, "p", "l", 40, 6), 14173200030810459373),
    ("point_seed", (7, "panel", "label", 60, 0.1), 11553523643513263797),
]


@pytest.mark.parametrize(
    "name,args,expected",
    PINNED,
    ids=[f"{name}{args}" for name, args, _ in PINNED],
)
def test_seed_value_is_pinned(name, args, expected):
    assert HELPERS[name](*args) == expected


#: Two default-seeded objects of each kind, built interleaved in one
#: fresh process, so each kind's stream counts only its own requests.
_STREAMS_SCRIPT = """
import json, random
from repro.algorithms.registry import create
from repro.experiments.workload import BroadcastWorkload
from repro.graph.generators import random_connected_network
from repro.routing.link_state import LinkStateRouting
from repro.sim.energy import EnergyTracker, network_lifetime
from repro.sim.engine import SimulationEnvironment
from repro.sim.reliable import ReliableBroadcastSession
from repro.sim.service import ServiceEngine
from repro.sim.traffic import SingleShot

graph = random_connected_network(12, 4, random.Random(3)).topology
env = SimulationEnvironment(graph)
protocol = create("generic-fr")
protocol.prepare(env)
source = graph.nodes()[0]
draws = {name: [] for name in (
    "ServiceEngine", "ReliableBroadcastSession", "LinkStateRouting",
    "network_lifetime", "BroadcastWorkload.run",
)}
for _ in range(2):
    engine = ServiceEngine(env, protocol, SingleShot(source))
    draws["ServiceEngine"].append(engine.rng.getrandbits(64))
    session = ReliableBroadcastSession(env, protocol, source)
    draws["ReliableBroadcastSession"].append(session.rng.getrandbits(64))
    router = LinkStateRouting(graph)
    draws["LinkStateRouting"].append(router.rng.getrandbits(64))
    result = network_lifetime(
        graph,
        lambda: create("generic-fr"),
        EnergyTracker(graph.nodes(), initial=6.0),
    )
    draws["network_lifetime"].append(
        [result.broadcasts, sorted(result.final_energy.items())]
    )
    run = BroadcastWorkload(graph, lambda: create("generic-fr")).run(4)
    draws["BroadcastWorkload.run"].append(
        [sorted(run.load.items()), run.total_transmissions]
    )
print(json.dumps(draws, sort_keys=True))
"""

_PINNED_STREAMS = {
    "BroadcastWorkload.run": [
        [[[0, 1], [1, 3], [2, 0], [3, 0], [4, 3], [5, 1], [6, 4], [7, 4],
          [8, 0], [9, 3], [10, 2], [11, 4]], 25],
        [[[0, 0], [1, 4], [2, 0], [3, 0], [4, 4], [5, 0], [6, 4], [7, 4],
          [8, 0], [9, 3], [10, 3], [11, 4]], 26],
    ],
    "LinkStateRouting": [15505723002000960941, 3014040914371913375],
    "ReliableBroadcastSession": [17719588824348953278, 467952620086298415],
    "ServiceEngine": [15866139066670448420, 4557683712881339976],
    "network_lifetime": [
        [4, [[0, 2.800000000000001], [1, 0.40000000000000013],
             [2, 4.199999999999999], [3, 4.199999999999999],
             [4, 0.3999999999999998], [5, 4.399999999999999], [6, 0.0],
             [7, 0.19999999999999962], [8, 3.2], [9, 0.6000000000000001],
             [10, 3.3999999999999995], [11, 3.3306690738754696e-16]]],
        [4, [[0, 3.600000000000001], [1, 0.0], [2, 3.8000000000000003],
             [3, 4.199999999999999], [4, 0.3999999999999998],
             [5, 4.399999999999999], [6, 0.0], [7, 0.0], [8, 3.0],
             [9, 0.6000000000000001], [10, 1.3999999999999995], [11, 0.0]]],
    ],
}


def test_default_seeded_streams_are_pinned():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    completed = subprocess.run(
        [sys.executable, "-c", _STREAMS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(completed.stdout) == _PINNED_STREAMS


def test_default_rng_counts_requests_per_tag():
    tag = "test_seeds.default_rng"
    first = default_rng(tag)
    other = default_rng(tag + "-other")
    second = default_rng(tag)
    assert first.getstate() == random.Random(derive(tag, 0)).getstate()
    assert second.getstate() == random.Random(derive(tag, 1)).getstate()
    assert other.getstate() == (
        random.Random(derive(tag + "-other", 0)).getstate()
    )


def test_ledger_derive_agrees_with_repro_seeds():
    """The ledger keeps its own copy of the derivation; pin that the two
    agree on every ``(workload, purpose)`` its setups draw from."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir,
        "benchmarks", "ledger", "workloads.py",
    )
    spec = importlib.util.spec_from_file_location("ledger_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with open(path, encoding="utf-8") as handle:
        purposes = sorted(set(re.findall(
            r'derive\(seed, self\.name, "(\w+)"\)', handle.read()
        )))
    assert {"engine", "graph", "settings", "trace"} <= set(purposes)
    for name in sorted(workloads.WORKLOADS):
        for purpose in purposes:
            assert workloads.derive(20030519, name, purpose) == derive(
                20030519, name, purpose
            ), (name, purpose)
