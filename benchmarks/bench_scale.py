"""Scale benchmark: the spatial-hash builder and the bitset coverage kernel.

Measures the two kernels that broke the 100-node ceiling, on random-grid
deployments (``random_grid_network``, occupancy 0.7, radius 1.5) at
n ≈ 1k / 10k / 100k:

* **construction** — unit-disk graph build throughput (nodes/sec) through
  the cell grid at every size, against the pairwise reference
  (:mod:`repro.check.reference`) where the O(n²) scan is still feasible
  (1k).  At 100k the pairwise scan would
  visit ~5e9 candidate pairs; the record marks it infeasible instead of
  timing it.
* **calibration** — ``range_for_link_count`` at nd/2 links through the
  grid's doubling search at 1k and 10k (10k is where the old
  sort-all-pairs calibration allocated ~50M distances), with a radius
  byte-identity gate against the pairwise reference at 1k.
* **full broadcast** — ``GenericStatic`` (global view) prepare + run
  on the bitset coverage kernel at 1k, with its forward set gated
  byte-identical to a run on the sets reference (inside
  :func:`repro.check.reference.substituted`), and again at 10k to record
  forward-set throughput at scale.  A shared global view costs bitset
  one decreasing-priority sweep for the whole deployment.

Byte-identity gates use :func:`bench_parallel.first_divergence` so a
failure names the first diverging edge / node instead of only reporting
that *something* diverged.  The record names its machine under ``env``
(cores, python, commit; :func:`bench_parallel.bench_env`).

Run directly for the full record (written to ``BENCH_scale.json`` at the
repo root so the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_scale.py
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke

``--smoke`` (the CI ``scale-kernel`` job) runs only the 1k fixture: the
construction and calibration identity gates and the sets-vs-bitset
forward-set identity gate.  Full mode additionally requires the 100k
grid build to complete.  Exits non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from bench_parallel import bench_env, first_divergence

from repro.algorithms.generic import GenericStatic
from repro.check import reference
from repro.core.priority import IdPriority
from repro.graph.generators import random_grid_network
from repro.graph.geometry import grid_points
from repro.graph.unit_disk import (
    build_unit_disk_graph,
    range_for_link_count,
)
from repro.sim.engine import SimulationEnvironment, run_broadcast

#: Default output location: repo root, next to the other BENCH records.
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_scale.json",
)

#: Random-grid fixtures (occupancy 0.7 of a side x side lattice): the side
#: lengths put the expected node count at ~1k / ~10k / ~100k.
FIXTURES = {
    "1k": {"side": 38, "occupancy": 0.7, "seed": 11},
    "10k": {"side": 120, "occupancy": 0.7, "seed": 12},
    "100k": {"side": 378, "occupancy": 0.7, "seed": 13},
}
RADIUS = 1.5
#: Pairwise construction is only timed where the O(n²) scan stays cheap.
PAIRWISE_FEASIBLE = {"1k"}
#: Grid calibration sizes (10k is where sort-all-pairs used to blow up).
CALIBRATION_SIZES = ("1k", "10k")
#: Broadcast identity-gate size, and the bitset-only scale point.
BROADCAST_AB_SIZE = "1k"
BROADCAST_SCALE_SIZE = "10k"


def _positions(name: str) -> Dict[int, object]:
    spec = FIXTURES[name]
    rng = random.Random(spec["seed"])
    lattice = grid_points(spec["side"], spec["side"])
    positions = {}
    node = 0
    for point in lattice.values():
        if rng.random() < spec["occupancy"]:
            positions[node] = point
            node += 1
    return positions


def _timed(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall-clock and the (stable) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _edge_payload(network) -> List[List[int]]:
    return [list(edge) for edge in sorted(network.topology.edges())]


def _broadcast(graph) -> Tuple[float, dict]:
    """GenericStatic global-view prepare + one session."""
    env = SimulationEnvironment(graph, IdPriority())
    protocol = GenericStatic(hops=None)
    start = time.perf_counter()
    protocol.prepare(env)
    outcome = run_broadcast(
        env.graph, protocol, 0, rng=random.Random(1), env=env,
    )
    elapsed = time.perf_counter() - start
    payload = {
        "forward_set": sorted(protocol.forward_set),
        "transmissions": outcome.transmissions,
    }
    return elapsed, payload


def _section_construction(record: dict, sizes: List[str], repeats: int) -> None:
    section: dict = {}
    for name in sizes:
        positions = _positions(name)
        n = len(positions)
        grid_seconds, network = _timed(
            lambda: build_unit_disk_graph(positions, RADIUS),
            repeats,
        )
        entry = {
            "nodes": n,
            "links": network.link_count,
            "grid_seconds": round(grid_seconds, 4),
            "grid_nodes_per_second": round(n / grid_seconds) if grid_seconds else None,
        }
        if name in PAIRWISE_FEASIBLE:
            pairwise_seconds, oracle = _timed(
                lambda: reference.build_unit_disk_graph(positions, RADIUS),
                repeats,
            )
            entry["pairwise_seconds"] = round(pairwise_seconds, 4)
            entry["speedup"] = (
                round(pairwise_seconds / grid_seconds, 2)
                if grid_seconds
                else None
            )
            entry["first_divergence"] = first_divergence(
                _edge_payload(oracle), _edge_payload(network)
            )
        else:
            entry["pairwise_seconds"] = None
            entry["pairwise_infeasible_pair_count"] = n * (n - 1) // 2
        section[name] = entry
    record["construction"] = section


def _section_calibration(record: dict, sizes: List[str], repeats: int) -> None:
    section: dict = {}
    for name in sizes:
        positions = _positions(name)
        n = len(positions)
        links = n * 6 // 2  # the paper's nd/2 recipe at d = 6
        grid_seconds, grid_radius = _timed(
            lambda: range_for_link_count(positions, links),
            repeats,
        )
        entry = {
            "nodes": n,
            "links_requested": links,
            "grid_seconds": round(grid_seconds, 4),
            "radius": grid_radius,
        }
        if name in PAIRWISE_FEASIBLE:
            pairwise_seconds, pairwise_radius = _timed(
                lambda: reference.range_for_link_count(positions, links),
                repeats,
            )
            entry["pairwise_seconds"] = round(pairwise_seconds, 4)
            entry["radius_identical"] = grid_radius == pairwise_radius
        section[name] = entry
    record["calibration"] = section


def _section_broadcast(
    record: dict, smoke: bool, repeats: int
) -> Optional[str]:
    """Time bitset; gate its forward set against the sets reference.

    Returns the first divergence path (or ``None`` when identical).
    """
    graph = random_grid_network(
        FIXTURES[BROADCAST_AB_SIZE]["side"],
        FIXTURES[BROADCAST_AB_SIZE]["occupancy"],
        random.Random(FIXTURES[BROADCAST_AB_SIZE]["seed"]),
        RADIUS,
    ).topology
    best = float("inf")
    for _ in range(repeats):
        elapsed, bitset = _broadcast(graph)
        best = min(best, elapsed)
    # The sets reference joins the identity gate once (it is the slow arm).
    with reference.substituted():
        _elapsed, sets = _broadcast(graph)
    divergence = first_divergence(sets, bitset)
    section = {
        "fixture": BROADCAST_AB_SIZE,
        "nodes": graph.node_count(),
        "bitset_seconds": round(best, 4),
        "forward_set_size": len(bitset["forward_set"]),
        "first_divergence": divergence,
    }
    if not smoke:
        large = random_grid_network(
            FIXTURES[BROADCAST_SCALE_SIZE]["side"],
            FIXTURES[BROADCAST_SCALE_SIZE]["occupancy"],
            random.Random(FIXTURES[BROADCAST_SCALE_SIZE]["seed"]),
            RADIUS,
        ).topology
        elapsed, payload = _broadcast(large)
        section["bitset_at_scale"] = {
            "fixture": BROADCAST_SCALE_SIZE,
            "nodes": large.node_count(),
            "bitset_seconds": round(elapsed, 4),
            "nodes_per_second": round(large.node_count() / elapsed)
            if elapsed
            else None,
            "forward_set_size": len(payload["forward_set"]),
        }
    record["full_broadcast"] = section
    return divergence


def run_benchmark(repeats: int, smoke: bool) -> dict:
    sizes = ["1k"] if smoke else list(FIXTURES)
    record: dict = {
        "benchmark": "bench_scale",
        "mode": "smoke" if smoke else "full",
        "env": bench_env(),
        "fixtures": {
            name: dict(FIXTURES[name], radius=RADIUS) for name in sizes
        },
        "repeats": repeats,
    }
    _section_construction(record, sizes, repeats)
    _section_calibration(
        record, [s for s in CALIBRATION_SIZES if s in sizes], repeats
    )
    divergence = _section_broadcast(record, smoke, repeats)

    construction_1k = record["construction"]["1k"]
    gates = {
        "construction_identity_1k": {
            "first_divergence": construction_1k["first_divergence"],
            "passed": construction_1k["first_divergence"] is None,
        },
        "calibration_identity_1k": {
            "passed": record["calibration"]["1k"]["radius_identical"],
        },
        "forward_sets_identical": {
            "backends": ["sets", "bitset"],
            "first_divergence": divergence,
            "passed": divergence is None,
        },
    }
    if not smoke:
        built_100k = record["construction"]["100k"]
        gates["grid_completes_100k"] = {
            "nodes": built_100k["nodes"],
            "grid_nodes_per_second": built_100k["grid_nodes_per_second"],
            "passed": built_100k["links"] > 0
            and built_100k["grid_seconds"] > 0,
        }
    record["gates"] = gates
    record["passed"] = all(gate["passed"] for gate in gates.values())
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cell-grid builder and bitset kernel scale benchmark."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="1k fixture only: the identity gates",
    )
    parser.add_argument(
        "--repeats", type=int, default=0,
        help="repetitions per timing (0 = 1 in smoke mode, 3 in full)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record (default: BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.smoke else 3)

    record = run_benchmark(repeats, args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["passed"]:
        print("FAIL: a scale gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
