"""Bitset coverage kernel A/B benchmark: masks vs the sets reference.

Times every kernel the bitset layer accelerates — coverage condition,
strong coverage, span condition, k-hop view extraction (against an
in-bench brute-force Definition 2 reference), and one full broadcast —
on the kernel and on the frozenset/union-find predicates of
:mod:`repro.check.reference` (the whole kernel run inside its
``substituted()``), on the dense 100-node / average-degree-18 fixture
shared with ``bench_micro``.

Run directly for the full record (written to ``BENCH_coverage_kernel.json``
at the repo root so the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_coverage_kernel.py
    PYTHONPATH=src python benchmarks/bench_coverage_kernel.py --smoke
    PYTHONPATH=src python benchmarks/bench_coverage_kernel.py --repeats 20

Every kernel asserts that the kernel and the reference produce identical
results (``first_divergence`` null) before any timing is trusted.  Full
mode gates the acceptance thresholds (coverage >= 3x, full broadcast >=
1.5x); ``--smoke`` shrinks repetition counts for CI and only requires the
bitset kernel not to lose (>= 1.0x), exiting non-zero on a regression
either way.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable, List, Optional, Tuple

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from bench_parallel import first_divergence

from repro.check.reference import substituted
from repro.core import coverage
from repro.core.priority import IdPriority
from repro.core.views import global_view
from repro.graph.generators import random_connected_network
from repro.graph.topology import Topology
from repro.sim.engine import SimulationEnvironment, run_broadcast
from repro.algorithms.generic import GenericSelfPruning

#: Default output location: repo root, next to the other BENCH records.
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_coverage_kernel.json",
)

#: The dense fixture shared with bench_micro: 100 nodes, average degree 18.
FIXTURE = {"nodes": 100, "avg_degree": 18.0, "seed": 4242}

#: Full-mode acceptance gates (speedup of bitset over the reference).
GATES_FULL = {"coverage_condition": 3.0, "full_broadcast": 1.5}
#: Smoke mode only requires the bitset backend not to lose.
GATE_SMOKE = 1.0


def _fixture_graph() -> Topology:
    net = random_connected_network(
        FIXTURE["nodes"], FIXTURE["avg_degree"], random.Random(FIXTURE["seed"])
    )
    return net.topology


def _timed(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Best-of-``repeats`` wall-clock and the (stable) result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _ab(
    kernel: Callable[[], object], repeats: int
) -> Tuple[float, float, Optional[str]]:
    """Time ``kernel`` on the reference and on the bitset kernel; assert
    identical results."""
    with substituted():
        reference_seconds, expected = _timed(kernel, repeats)
    bitset_seconds, got = _timed(kernel, repeats)
    divergence = first_divergence(expected, got)
    assert divergence is None, (
        f"bitset kernel diverges from the reference: {divergence}"
    )
    return reference_seconds, bitset_seconds, divergence


# ----------------------------------------------------------------------
# Kernels.  Fresh views/graphs per call so per-view memoisation measures
# the kernel, not the cache.  Predicates are looked up on the module at
# call time, so ``substituted()`` swaps them.
# ----------------------------------------------------------------------


def _kernel_coverage(graph: Topology) -> Callable[[], object]:
    def run():
        view = global_view(graph, IdPriority())
        return [coverage.coverage_condition(view, v) for v in graph.nodes()]

    return run


def _kernel_strong(graph: Topology) -> Callable[[], object]:
    def run():
        view = global_view(graph, IdPriority())
        return [
            coverage.strong_coverage_condition(view, v)
            for v in graph.nodes()
        ]

    return run


def _kernel_span(graph: Topology) -> Callable[[], object]:
    def run():
        view = global_view(graph, IdPriority())
        return [coverage.span_condition(view, v) for v in graph.nodes()]

    return run


def _kernel_broadcast(graph: Topology) -> Callable[[], object]:
    def run():
        env = SimulationEnvironment(graph, IdPriority())
        protocol = GenericSelfPruning()
        protocol.prepare(env)
        outcome = run_broadcast(
            env.graph, protocol, 0, rng=random.Random(1), env=env,
        )
        return (frozenset(outcome.forward_nodes), outcome.transmissions)

    return run


def _brute_force_view_graph(graph: Topology, center: int, k: int) -> Topology:
    """Definition 2 by direct transcription (the in-bench reference).

    Produces the same artifact as ``Topology.k_hop_view_graph`` — a
    ``Topology`` — so both arms pay the same construction cost.
    """
    hops = {center: 0}
    frontier = [center]
    for hop in range(1, k + 1):
        nxt = []
        for node in frontier:
            for neighbor in sorted(graph.neighbors(node)):
                if neighbor not in hops:
                    hops[neighbor] = hop
                    nxt.append(neighbor)
        frontier = nxt
    view = Topology(nodes=hops)
    for u in hops:
        for w in graph.neighbors(u):
            if u < w and w in hops and (hops[u] < k or hops[w] < k):
                view.add_edge(u, w)
    return view


def _time_extraction(graph: Topology, repeats: int) -> Tuple[float, float]:
    """Mask-based k-hop view extraction vs the brute-force reference.

    Each rep rebuilds the topology so the epoch cache cannot serve the
    answer; both arms pay the same construction cost outside the timer.
    """
    edges = graph.edges()
    nodes = graph.nodes()[:20]

    def _shapes(views):
        return [
            (frozenset(g.nodes()),
             frozenset(tuple(sorted(e)) for e in g.edges()))
            for g in views
        ]

    def mask_arm():
        fresh = Topology(edges=edges)
        start = time.perf_counter()
        views = [fresh.k_hop_view_graph(v, 2) for v in nodes]
        elapsed = time.perf_counter() - start
        return elapsed, _shapes(views)

    def brute_arm():
        fresh = Topology(edges=edges)
        start = time.perf_counter()
        views = [_brute_force_view_graph(fresh, v, 2) for v in nodes]
        elapsed = time.perf_counter() - start
        return elapsed, _shapes(views)

    best_mask = best_brute = float("inf")
    mask_shapes = brute_shapes = None
    for _ in range(repeats):
        elapsed, brute_shapes = brute_arm()
        best_brute = min(best_brute, elapsed)
        elapsed, mask_shapes = mask_arm()
        best_mask = min(best_mask, elapsed)
    assert mask_shapes == brute_shapes, (
        "mask extraction diverges from Definition 2"
    )
    return best_brute, best_mask


def run_benchmark(repeats: int, smoke: bool) -> dict:
    graph = _fixture_graph()
    kernels = {
        "coverage_condition": _kernel_coverage(graph),
        "strong_coverage_condition": _kernel_strong(graph),
        "span_condition": _kernel_span(graph),
        "full_broadcast": _kernel_broadcast(graph),
    }
    record: dict = {
        "benchmark": "bench_coverage_kernel",
        "mode": "smoke" if smoke else "full",
        "fixture": dict(FIXTURE),
        "repeats": repeats,
        "kernels": {},
        "gates": {},
    }
    for name, kernel in kernels.items():
        reference, bitset, divergence = _ab(kernel, repeats)
        record["kernels"][name] = {
            "reference": "sets",
            "reference_seconds": round(reference, 4),
            "bitset_seconds": round(bitset, 4),
            "speedup": round(reference / bitset, 2) if bitset else None,
            "first_divergence": divergence,
        }
    reference, bitset = _time_extraction(graph, repeats)
    record["kernels"]["k_hop_view_extraction"] = {
        "reference": "brute-force-definition-2",
        "reference_seconds": round(reference, 4),
        "bitset_seconds": round(bitset, 4),
        "speedup": round(reference / bitset, 2) if bitset else None,
    }

    gates = (
        {name: GATE_SMOKE for name in GATES_FULL} if smoke else GATES_FULL
    )
    passed = True
    for name, floor in gates.items():
        speedup = record["kernels"][name]["speedup"]
        ok = speedup is not None and speedup >= floor
        record["gates"][name] = {
            "required_speedup": floor, "observed": speedup, "passed": ok,
        }
        passed = passed and ok
    record["passed"] = passed
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Bitset coverage kernel vs sets reference benchmark."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer repeats; gate only on the bitset backend not losing",
    )
    parser.add_argument(
        "--repeats", type=int, default=0,
        help="repetitions per kernel (0 = 3 in smoke mode, 10 in full)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record "
        "(default: BENCH_coverage_kernel.json)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (3 if args.smoke else 10)

    record = run_benchmark(repeats, args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["passed"]:
        print("FAIL: bitset kernel below required speedup", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
