"""Broadcast service benchmark: stream throughput plus the cross-backend
byte-identity gate on single-message runs.

Run directly for the full record (written to ``BENCH_traffic.json`` at
the repo root so the perf trajectory is tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_traffic.py
    PYTHONPATH=src python benchmarks/bench_traffic.py --smoke
    PYTHONPATH=src python benchmarks/bench_traffic.py --out my.json

Two legs:

* **identity** — a one-message :class:`~repro.sim.traffic.SingleShot`
  run on the bitset coverage backend must reproduce the ``sets``
  oracle byte for byte:
  forward/delivered sets, receipt counts, designations, completion
  time, byte counts, and the typed event stream.  Any mismatch fails
  the benchmark and is localised with a ``first_divergence`` JSON path.
  (The engine's own event and RNG order is pinned by the golden traces
  under ``tests/``.)
* **throughput** — the service drives Poisson streams over a large
  deployment (1000 nodes in full mode) at a ladder of offered loads and
  records simulated messages per wall-clock second per point.

``--smoke`` shrinks both legs to seconds for the CI gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from repro.algorithms.base import Timing
from repro.algorithms.dominant_pruning import DominantPruning
from repro.algorithms.flooding import Flooding
from repro.algorithms.generic import GenericSelfPruning
from repro.graph.generators import random_connected_network
from repro.sim.engine import SimulationEnvironment
from repro.sim.events import events_to_jsonl
from repro.sim.service import ServiceEngine
from repro.sim.traffic import PoissonTraffic, SingleShot

#: Default output location: repo root, next to EXPERIMENTS.md.
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_traffic.json",
)

#: Coverage backends the identity gate covers (``sets`` is the oracle
#: the others are compared against).
BACKENDS = ("sets", "bitset")

IDENTITY_PROTOCOLS = (
    ("flooding", Flooding),
    ("FR", lambda: GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)),
    ("DP", DominantPruning),
)

FULL_RATES = (0.5, 2.0, 8.0)
SMOKE_RATES = (0.5, 2.0, 8.0)

SEED = 20030519


def first_divergence(expected, actual, path="$"):
    """The JSON path of the first byte difference, or ``None`` if equal."""
    if type(expected) is not type(actual):
        return (
            f"{path}: type {type(expected).__name__} != "
            f"{type(actual).__name__}"
        )
    if isinstance(expected, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                return f"{path}.{key}: only in actual payload"
            if key not in actual:
                return f"{path}.{key}: only in expected payload"
            found = first_divergence(expected[key], actual[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_divergence(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if expected != actual:
        return f"{path}: expected={expected!r} actual={actual!r}"
    return None


def _outcome_payload(outcome) -> Dict:
    """A broadcast outcome as plain JSON-able data, events included."""
    return {
        "forward_nodes": sorted(outcome.forward_nodes),
        "delivered": sorted(outcome.delivered),
        "transmissions": outcome.transmissions,
        "completion_time": outcome.completion_time,
        "bytes_transmitted": outcome.bytes_transmitted,
        "receipt_counts": {
            str(node): count
            for node, count in sorted(outcome.receipt_counts.items())
        },
        "designations": {
            str(node): sorted(designated)
            for node, designated in sorted(outcome.designations.items())
        },
        "events": events_to_jsonl(outcome.events).splitlines(),
    }


def _single_message(n: int, degree: float, factory, seed: int) -> Dict:
    """One single-message run on a fresh deployment, as a payload.

    A fresh graph per run keeps query-cache warmth from leaking between
    backends; protocol, source and decision-RNG seeds are identical, so
    any divergence is the backends', not the inputs'.
    """
    graph = random_connected_network(
        n, degree, random.Random(SEED + seed)
    ).topology
    env = SimulationEnvironment(graph)
    protocol = factory()
    protocol.prepare(env)
    source = random.Random(seed).choice(graph.nodes())
    outcome = ServiceEngine(
        env, protocol, SingleShot(source), rng=random.Random(SEED ^ seed),
        collect_trace=True,
    ).run().single_outcome()
    return _outcome_payload(outcome)


def check_identity(n: int, degree: float, seeds: int) -> Dict:
    """Every backend's single-message runs against the ``sets`` oracle."""
    checks = 0
    divergence = None
    ambient = os.environ.get("REPRO_COVERAGE_BACKEND")
    for label, factory in IDENTITY_PROTOCOLS:
        for seed in range(seeds):
            payloads = {}
            for backend in BACKENDS:
                os.environ["REPRO_COVERAGE_BACKEND"] = backend
                payloads[backend] = _single_message(n, degree, factory, seed)
            for backend in BACKENDS[1:]:
                checks += 1
                found = first_divergence(payloads["sets"], payloads[backend])
                if found is not None and divergence is None:
                    divergence = (
                        f"backend={backend} protocol={label} seed={seed} "
                        f"{found}"
                    )
    # Restore the ambient backend (CI matrixes it for the throughput leg).
    if ambient is None:
        os.environ.pop("REPRO_COVERAGE_BACKEND", None)
    else:
        os.environ["REPRO_COVERAGE_BACKEND"] = ambient
    return {
        "backends": list(BACKENDS),
        "protocols": [label for label, _ in IDENTITY_PROTOCOLS],
        "seeds_per_combination": seeds,
        "checks": checks,
        "divergence": divergence,
        "byte_identical": divergence is None,
    }


def measure_throughput(n: int, degree: float, count: int, rates) -> Dict:
    """Service messages per wall-clock second at each offered load."""
    graph = random_connected_network(n, degree, random.Random(SEED)).topology
    points = []
    for rate in rates:
        env = SimulationEnvironment(graph.copy())
        protocol = GenericSelfPruning(Timing.FIRST_RECEIPT, hops=2)
        protocol.prepare(env)
        traffic = PoissonTraffic(
            rate=rate, count=count, seed=SEED, size_units=4
        )
        engine = ServiceEngine(
            env, protocol, traffic, rng=random.Random(SEED ^ int(rate * 1000))
        )
        start = time.perf_counter()
        outcome = engine.run()
        seconds = time.perf_counter() - start
        points.append(
            {
                "offered_rate": rate,
                "messages": len(outcome.messages),
                "delivered_messages": outcome.delivered_count,
                "goodput": round(outcome.goodput(), 6),
                "queue_depth_max": outcome.queue_depth_max,
                "messages_dropped": outcome.messages_dropped,
                "wall_seconds": round(seconds, 4),
                "messages_per_second": (
                    round(len(outcome.messages) / seconds, 2)
                    if seconds
                    else None
                ),
            }
        )
    return {"n": n, "degree": degree, "count": count, "points": points}


def run_benchmark(smoke: bool) -> Dict:
    if smoke:
        identity = check_identity(n=40, degree=6.0, seeds=4)
        throughput = measure_throughput(
            n=60, degree=6.0, count=10, rates=SMOKE_RATES
        )
    else:
        identity = check_identity(n=200, degree=6.0, seeds=6)
        throughput = measure_throughput(
            n=1000, degree=6.0, count=30, rates=FULL_RATES
        )
    return {
        "benchmark": "bench_traffic",
        "mode": "smoke" if smoke else "full",
        "identity": identity,
        "throughput": throughput,
        "byte_identical": identity["byte_identical"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Broadcast service throughput + cross-backend "
        "byte-identity gate."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fixtures; non-zero exit if a coverage backend "
        "diverges from the sets oracle",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record (default: BENCH_traffic.json)",
    )
    args = parser.parse_args(argv)

    record = run_benchmark(args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["byte_identical"]:
        print(
            "FAIL: byte-identity gate — a coverage backend diverges "
            "from the sets oracle.  First divergence:\n"
            f"  {record['identity']['divergence']}",
            file=sys.stderr,
        )
        return 1
    return 0


def test_first_divergence_localises_the_mismatch():
    """The gate's failure message names the first divergent JSON path."""
    expected = {"events": ["a", "b"], "forward_nodes": [1, 2]}
    actual = {"events": ["a", "c"], "forward_nodes": [1, 2]}
    assert first_divergence(expected, expected) is None
    detail = first_divergence(expected, actual)
    assert detail == "$.events[1]: expected='b' actual='c'"
    assert "length" in first_divergence([1], [1, 2])
    assert "only in expected" in first_divergence({"a": 1}, {})


def test_backends_match_the_sets_oracle(benchmark):
    """pytest-benchmark entry: the smoke comparison must stay identical."""
    record = benchmark.pedantic(
        lambda: run_benchmark(smoke=True), rounds=1, iterations=1
    )
    assert record["byte_identical"], record["identity"]["divergence"]
    assert len(record["throughput"]["points"]) >= 3
    assert all(
        point["messages_per_second"] > 0
        for point in record["throughput"]["points"]
    )


if __name__ == "__main__":
    sys.exit(main())
