"""The ledger's five workloads.

Each workload has a one-off ``setup`` (not timed as an op; it makes the
inputs from the seed) and a ``run`` that is one timed repetition.  A
repetition starts from fresh program state — a fresh ``graph.copy()``,
environment and protocol — so no cache warmth carries from one
repetition to the next, and every repetition returns:

* ``ops`` / ``failed`` — operations attempted and failed;
* ``seconds`` — wall time of the timed leg (for ``mobility-trace``, the
  serial leg);
* ``digest`` — sha256 over the outputs (forward sets, delivered sets,
  the figure table JSON), identical across repetitions of one seed.

Seeds come from ``sha256(seed|workload|purpose)``: the program sees only
the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import time
from typing import Dict, List, Tuple

from repro.algorithms.base import Timing
from repro.algorithms.generic import GenericSelfPruning, GenericStatic
from repro.core.priority import DegreePriority
from repro.experiments.config import RunSettings
from repro.experiments.export import tables_to_json
from repro.experiments.figures import fig10_timing, fig11_selection
from repro.experiments.runner import CoverageViolation, run_figure, run_trace_sweep
from repro.experiments.sharded import run_sharded_trace
from repro.graph.fliptrace import record_flip_trace
from repro.graph.generators import random_connected_network, random_grid_network
from repro.graph.geometry import Area, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.unit_disk import range_for_average_degree
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.sim.mac import IdealMac
from repro.sim.service import ServiceEngine
from repro.sim.traffic import PoissonTraffic

def derive(seed: int, workload: str, purpose: str) -> int:
    """The 64-bit seed ``sha256(seed|workload|purpose)``."""
    digest = hashlib.sha256(f"{seed}|{workload}|{purpose}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    ).hexdigest()


def _since(start: float) -> Dict[str, float]:
    """Wall seconds since ``start``, as a repetition field."""
    return {"seconds": time.perf_counter() - start}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Workload:
    """Defaults shared by the workloads below."""

    name = ""
    #: What one op is, for progress lines.
    op = ""
    #: MAC classes whose ``deliveries`` the traced run wraps.
    mac_classes: Tuple[type, ...] = ()
    #: Span names every traced repetition must record at least once.
    expected: Tuple[str, ...] = ()

    def protocol_classes(self, fixture: dict) -> Tuple[type, ...]:
        """Protocol classes whose hooks the traced run wraps."""
        return ()

    def check(self, reps: List[dict]) -> Tuple[dict, List[str]]:
        """Record fields and problems beyond the per-op failures."""
        return {}, []


class PaperSweep(Workload):
    """The paper's recipe: one broadcast per fresh random deployment."""

    name = "paper-sweep"
    op = "sample"
    sizes = {
        "full": {"ns": (20, 40, 60, 80, 100), "samples": 2},
        "smoke": {"ns": (20,), "samples": 2},
    }
    mac_classes = (IdealMac,)
    expected = (
        "run_figure",
        "random_connected_network",
        "random_network",
        "range_for_average_degree",
        "build_unit_disk_graph",
        "Topology.is_connected",
        "Topology.k_hop_view_graph",
        "SimulationEnvironment.make_view",
        "coverage_condition",
        "run_broadcast",
        "ServiceEngine.run",
        "IdealMac.deliveries",
    )

    def setup(self, seed: int, scale: str) -> dict:
        size = self.sizes[scale]
        figures = (fig10_timing(ns=size["ns"]), fig11_selection(ns=size["ns"]))
        settings = RunSettings(
            min_runs=size["samples"],
            max_runs=size["samples"],
            seed=derive(seed, self.name, "settings"),
        )
        points = sum(
            len(panel.series) * len(panel.ns)
            for figure in figures
            for panel in figure.panels
        )
        return {
            "figures": figures,
            "settings": settings,
            "ops": points * size["samples"],
        }

    def protocol_classes(self, fixture: dict) -> Tuple[type, ...]:
        classes = {
            type(spec.protocol_factory())
            for figure in fixture["figures"]
            for panel in figure.panels
            for spec in panel.series
        }
        return tuple(sorted(classes, key=lambda cls: cls.__name__))

    def run(self, fixture: dict) -> dict:
        ops = fixture["ops"]
        start = time.perf_counter()
        try:
            tables = [
                table
                for figure in fixture["figures"]
                for table in run_figure(figure, fixture["settings"])
            ]
        except CoverageViolation as violation:
            return dict(
                _since(start),
                ops=ops,
                failed=ops,
                digest=f"coverage-violation: {violation}",
            )
        timed = _since(start)
        digest = hashlib.sha256(tables_to_json(tables).encode()).hexdigest()
        return dict(timed, ops=ops, failed=0, digest=digest)


class ServiceStream(Workload):
    """A Poisson message stream over one long-lived deployment."""

    name = "service-stream"
    op = "message"
    sizes = {
        "full": {"n": 1000, "degree": 18.0, "count": 24},
        "smoke": {"n": 60, "degree": 18.0, "count": 4},
    }
    rate = 2.0
    #: Non-zero payload so the egress queue engages under overlap.
    size_units = 4
    mac_classes = (IdealMac,)
    expected = (
        "ServiceEngine.run",
        "GenericSelfPruning.prepare",
        "GenericSelfPruning.should_forward",
        "GenericSelfPruning.designate",
        "SimulationEnvironment.make_view",
        "Topology.k_hop_view_graph",
        "coverage_condition",
        "IdealMac.deliveries",
    )

    def setup(self, seed: int, scale: str) -> dict:
        size = self.sizes[scale]
        graph = random_connected_network(
            size["n"],
            size["degree"],
            random.Random(derive(seed, self.name, "graph")),
        ).topology
        return {
            "graph": graph,
            "count": size["count"],
            "traffic_seed": derive(seed, self.name, "traffic"),
            "engine_seed": derive(seed, self.name, "engine"),
        }

    def protocol_classes(self, fixture: dict) -> Tuple[type, ...]:
        return (GenericSelfPruning,)

    def run(self, fixture: dict) -> dict:
        start = time.perf_counter()
        env = SimulationEnvironment(fixture["graph"].copy())
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        protocol.prepare(env)
        traffic = PoissonTraffic(
            rate=self.rate,
            count=fixture["count"],
            seed=fixture["traffic_seed"],
            size_units=self.size_units,
        )
        outcome = ServiceEngine(
            env, protocol, traffic, rng=random.Random(fixture["engine_seed"])
        ).run()
        return dict(
            _since(start),
            ops=len(outcome.messages),
            failed=sum(1 for m in outcome.messages if not m.delivered_all),
            digest=_digest([
                [sorted(m.forward_nodes), sorted(m.delivered)]
                for m in outcome.messages
            ]),
        )


def _step_key(step) -> tuple:
    return (
        step.step,
        list(step.forward),
        step.redecided,
        step.added_edges,
        step.removed_edges,
    )


class MobilityTrace(Workload):
    """A recorded random-waypoint trace, replayed serially and sharded."""

    name = "mobility-trace"
    op = "step"
    sizes = {
        "full": {"n": 5000, "steps": 20},
        "smoke": {"n": 300, "steps": 4},
    }
    degree = 6.0
    speeds = (0.001, 0.003)
    k = 2
    shards = (2, 2)
    jobs = 2
    expected = (
        "run_trace_sweep",
        "run_sharded_trace",
        "build_unit_disk_graph",
        "Topology.apply_delta",
        "Topology.k_hop_view_graph",
        "local_view",
        "coverage_condition",
    )

    def setup(self, seed: int, scale: str) -> dict:
        size = self.sizes[scale]
        rng = random.Random(derive(seed, self.name, "trace"))
        positions = random_points(size["n"], Area(), rng)
        radius, _links = range_for_average_degree(positions, self.degree)
        model = RandomWaypointModel(
            positions,
            radius=radius,
            rng=rng,
            min_speed=self.speeds[0],
            max_speed=self.speeds[1],
        )
        return {"trace": record_flip_trace(model, size["steps"], 1.0)}

    def run(self, fixture: dict) -> dict:
        trace = fixture["trace"]
        start = time.perf_counter()
        serial = run_trace_sweep(trace, scheme=DegreePriority(), k=self.k)
        serial_timed = _since(start)
        children_before = _children_cpu_s()
        start = time.perf_counter()
        sharded = run_sharded_trace(
            trace,
            scheme=DegreePriority(),
            k=self.k,
            shards=self.shards,
            jobs=self.jobs,
        )
        sharded_s = _since(start)["seconds"]
        serial_keys = [_step_key(step) for step in serial]
        sharded_keys = [_step_key(step) for step in sharded]
        differing = sum(1 for a, b in zip(serial_keys, sharded_keys) if a != b)
        differing += abs(len(serial_keys) - len(sharded_keys))
        return dict(
            serial_timed,
            ops=len(trace.steps),
            failed=differing,
            sharded_seconds=sharded_s,
            # The fork pool is the only source of child processes here:
            # the in-process (one-worker) path spends no child CPU.
            workers_forked=_children_cpu_s() > children_before,
            digest=_digest(serial_keys),
        )

    def check(self, reps: List[dict]) -> Tuple[dict, List[str]]:
        """The sharded leg must have run a real pool of 2+ workers."""
        cores = os.cpu_count() or 1
        shards = self.shards[0] * self.shards[1]
        forked = all(rep["workers_forked"] for rep in reps)
        effective = min(self.jobs, shards, cores) if forked else 1
        fields = {
            "sharded": {
                "jobs": self.jobs,
                "shards": list(self.shards),
                "workers_effective": effective,
            }
        }
        if cores >= 2 and effective < 2:
            return fields, [
                f"sharded leg ran {effective} worker on a {cores}-core box"
            ]
        return fields, []


def _largest_component(graph) -> List[int]:
    """The largest connected component, by the benchmark's own BFS."""
    seen: set = set()
    best: List[int] = []
    for start in graph.nodes():
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:
            for neighbor in sorted(graph.neighbors(node)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.append(neighbor)
        if len(component) > len(best):
            best = component
    return sorted(best)


class StaticBroadcast(Workload):
    """``GenericStatic`` prepare plus one broadcast on a random grid."""

    op = "decision"
    occupancy = 0.7
    mac_classes = (IdealMac,)

    def __init__(self, name: str, hops, sides: Dict[str, int]) -> None:
        self.name = name
        self.hops = hops
        self.sides = sides
        self.expected = (
            "GenericStatic.prepare",
            "GenericStatic.should_forward",
            "GenericStatic.designate",
            "SimulationEnvironment.make_view",
            "coverage_condition",
            "run_broadcast",
            "ServiceEngine.run",
            "IdealMac.deliveries",
        ) + (("Topology.k_hop_view_graph",) if hops is not None else ())

    def setup(self, seed: int, scale: str) -> dict:
        graph = random_grid_network(
            self.sides[scale],
            self.occupancy,
            random.Random(derive(seed, self.name, "grid")),
        ).topology
        component = _largest_component(graph)
        source = random.Random(derive(seed, self.name, "source")).choice(component)
        return {
            "graph": graph,
            "source": source,
            "component": frozenset(component),
            "engine_seed": derive(seed, self.name, "engine"),
        }

    def protocol_classes(self, fixture: dict) -> Tuple[type, ...]:
        return (GenericStatic,)

    def run(self, fixture: dict) -> dict:
        start = time.perf_counter()
        graph = fixture["graph"].copy()
        env = SimulationEnvironment(graph)
        protocol = GenericStatic(hops=self.hops)
        protocol.prepare(env)
        outcome = run_broadcast(
            graph,
            protocol,
            fixture["source"],
            rng=random.Random(fixture["engine_seed"]),
            env=env,
        )
        timed = _since(start)
        ops = graph.node_count()
        # The broadcast must reach exactly the source's component.
        wrong = outcome.delivered != fixture["component"]
        return dict(
            timed,
            ops=ops,
            failed=ops if wrong else 0,
            digest=_digest(
                [sorted(outcome.forward_nodes), sorted(outcome.delivered)]
            ),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperSweep(),
        ServiceStream(),
        MobilityTrace(),
        StaticBroadcast("static-khop", 2, {"full": 120, "smoke": 14}),
        StaticBroadcast("static-global", None, {"full": 65, "smoke": 10}),
    )
}
