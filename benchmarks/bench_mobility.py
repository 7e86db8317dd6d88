"""Mobility ablation: stale versus conservative forward sets, plus the
incremental-delta A/B that gates the topology-delta engine.

The paper: "the effect of moderate mobility can be balanced by a slight
increase in the broadcast redundancy."  We quantify both sides: nodes
move between the decision snapshot and the broadcast; the *stale* exact
forward set loses coverage with speed, while the *conservative* set
(union-neighbors / intersection-links, ``repro.core.conservative``)
holds delivery near 100% at the cost of a larger forward set.

Run directly for the delta-engine A/B (written to
``BENCH_mobility_delta.json`` at the repo root so the perf trajectory is
tracked across PRs)::

    PYTHONPATH=src python benchmarks/bench_mobility.py
    PYTHONPATH=src python benchmarks/bench_mobility.py --smoke

The A/B times ``run_trace_sweep(record_flip_trace(...))`` (one mutable
:class:`Topology` mutated through ``apply_delta``, dirty-scoped
re-decisions) at ``jobs=1`` and at ``identity_jobs`` against the
full-rebuild oracle :func:`repro.check.reference.mobility_sweep_by_rebuild`
(rebuild + re-decide every node per step) on a 100-node random-waypoint
fixture, on the coverage kernel and on the reference predicates
(``sets``, inside :func:`repro.check.reference.substituted`), and exits
non-zero if any step's forward set or flip counts diverge — the
equivalence gate the CI smoke job runs.  The full mode additionally
gates on a >= 3x per-step speedup of the ``jobs=1`` leg.
"""

import argparse
import contextlib
import json
import os
import random
import statistics
import sys
import time
from typing import List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from bench_parallel import first_divergence
from conftest import write_result

from repro.algorithms.precomputed import PrecomputedForwardSet
from repro.check.reference import mobility_sweep_by_rebuild, substituted
from repro.core.conservative import conservative_forward_set
from repro.core.coverage import coverage_condition
from repro.core.priority import DegreePriority, IdPriority
from repro.core.views import local_view
from repro.experiments.runner import run_trace_sweep
from repro.graph.fliptrace import record_flip_trace
from repro.graph.geometry import Area, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.unit_disk import range_for_average_degree
from repro.sim.engine import SimulationEnvironment, run_broadcast

SCHEME = IdPriority()
TRIALS = 15
N = 30


def _exact_forward_set(graph):
    return {
        v
        for v in graph.nodes()
        if not coverage_condition(local_view(graph, v, 2, SCHEME), v)
    }


def _trial(seed: int, speed: float):
    rng = random.Random(seed)
    for _attempt in range(200):
        positions = random_points(N, Area(), rng)
        model = RandomWaypointModel(
            positions, radius=35.0, rng=rng,
            min_speed=max(0.01, speed / 2), max_speed=max(0.02, speed),
        )
        decision = model.snapshot().topology
        model.advance(2.0)
        broadcast_time = model.snapshot().topology
        if decision.is_connected() and broadcast_time.is_connected():
            break
    else:  # pragma: no cover - connectivity at this density is easy
        raise RuntimeError("no connected snapshot pair")

    results = {}
    for name, forward in (
        ("stale", _exact_forward_set(decision)),
        ("conservative", conservative_forward_set(
            decision, broadcast_time, SCHEME, k=2
        )),
    ):
        env = SimulationEnvironment(broadcast_time, SCHEME)
        source = min(forward) if forward else 0
        outcome = run_broadcast(
            env.graph, PrecomputedForwardSet(forward, name=name), source,
            rng=random.Random(seed), env=env,
        )
        results[name] = (
            len(outcome.delivered) / N,
            len(forward),
        )
    return results


def test_conservative_views_absorb_mobility(benchmark):
    def sweep():
        table = {}
        for speed in (0.0, 2.0, 5.0):
            stale_delivery, stale_size = [], []
            cons_delivery, cons_size = [], []
            for trial in range(TRIALS):
                results = _trial(1000 * trial + int(speed * 10), speed)
                stale_delivery.append(results["stale"][0])
                stale_size.append(results["stale"][1])
                cons_delivery.append(results["conservative"][0])
                cons_size.append(results["conservative"][1])
            table[speed] = (
                statistics.mean(stale_delivery),
                statistics.mean(stale_size),
                statistics.mean(cons_delivery),
                statistics.mean(cons_size),
            )
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "mobility: stale vs conservative forward sets (n=30, 2s gap)",
        f"  {'speed':>6s} {'stale del.':>11s} {'stale fwd':>10s} "
        f"{'cons del.':>10s} {'cons fwd':>9s}",
    ]
    for speed, (sd, ss, cd, cs) in table.items():
        lines.append(
            f"  {speed:6.1f} {sd:11.1%} {ss:10.1f} {cd:10.1%} {cs:9.1f}"
        )
    write_result("mobility", "\n".join(lines))

    # Zero speed: both are exact and fully deliver.
    assert table[0.0][0] > 0.999
    assert table[0.0][2] > 0.999
    # Under motion, the conservative set delivers at least as well ...
    assert table[5.0][2] >= table[5.0][0]
    # ... at the cost of some extra redundancy (the paper's trade).
    assert table[5.0][3] >= table[5.0][1]
    # And the conservative set keeps delivery high under fast motion.
    assert table[5.0][2] > 0.97


# ----------------------------------------------------------------------
# Incremental delta engine A/B (BENCH_mobility_delta.json)
# ----------------------------------------------------------------------

#: Default output location: repo root, next to EXPERIMENTS.md.
DELTA_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_mobility_delta.json",
)

DELTA_N = 100
DELTA_DEGREE = 6.0
DELTA_SEED = 11
FULL_STEPS = 40
SMOKE_STEPS = 8
BACKENDS = ("bitset", "sets")


def _delta_fixture() -> RandomWaypointModel:
    """The 100-node mobility fixture every sweep leg runs.

    Slow walkers (0.02..0.05 distance units per time unit in a 100x100
    area, radius calibrated for average degree ~6) so most steps flip a
    handful of links at most — the moderate-mobility regime the
    incremental engine is for.  Every leg constructs this identically
    and only :meth:`advance` draws from the RNG, so their mobility
    traces are byte-identical.
    """
    rng = random.Random(DELTA_SEED)
    positions = random_points(DELTA_N, Area(), rng)
    radius, _ = range_for_average_degree(positions, DELTA_DEGREE)
    return RandomWaypointModel(
        positions, radius=radius, rng=rng,
        min_speed=0.02, max_speed=0.05,
    )


def _sweep_payload(steps) -> list:
    return [
        {
            "step": entry.step,
            "forward": list(entry.forward),
            "added": entry.added_edges,
            "removed": entry.removed_edges,
        }
        for entry in steps
    ]


def _timed(sweep):
    """``(sweep(), seconds)``."""
    start = time.perf_counter()
    steps = sweep()
    return steps, time.perf_counter() - start


def _trace_sweep(steps: int, dt: float, jobs: int):
    """Record the fixture's flip trace and replay it at ``jobs``."""
    return run_trace_sweep(
        record_flip_trace(_delta_fixture(), steps, dt),
        scheme=DegreePriority(), k=2, jobs=jobs,
    )


def run_delta_ab(smoke: bool, jobs: int = 4) -> dict:
    """Time the trace sweep against the rebuild oracle, on the kernel
    and on the reference predicates.

    Each trace-sweep leg records the fixture's flip trace and replays it
    through ``run_trace_sweep``: once at ``jobs=1`` (the timed
    incremental leg) and once at ``identity_jobs`` on a real fork pool.
    ``identity_jobs`` is at least 2 even on a single-core box, matching
    ``bench_parallel``'s convention, and ``run_trace_sweep`` never
    clamps it to the core count.  The equivalence gate compares each
    leg's full per-step payload (forward sets and flip counts) with the
    oracle's through :func:`bench_parallel.first_divergence`, so a
    failure names the exact leg, step and field that diverged.  Timing
    claims clamp to the core count (``jobs_effective``); identity claims
    do not.
    """
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    dt = 1.0
    cores = os.cpu_count() or 1
    jobs_effective = max(1, min(jobs, cores))
    identity_jobs = max(2, jobs_effective)
    backends = {}
    divergence = None
    for backend in BACKENDS:
        on_reference = (
            substituted() if backend == "sets" else contextlib.nullcontext()
        )
        with on_reference:
            incremental, incremental_seconds = _timed(
                lambda: _trace_sweep(steps, dt, jobs=1)
            )
            sharded, sharded_seconds = _timed(
                lambda: _trace_sweep(steps, dt, jobs=identity_jobs)
            )
            rebuild, rebuild_seconds = _timed(
                lambda: mobility_sweep_by_rebuild(
                    _delta_fixture(), steps, dt, scheme=DegreePriority(), k=2
                )
            )
        for leg, leg_steps in (
            ("incremental", incremental), ("sharded", sharded)
        ):
            found = first_divergence(
                _sweep_payload(rebuild), _sweep_payload(leg_steps)
            )
            if found is not None and divergence is None:
                divergence = f"[{backend}] ({leg} leg) {found}"
        backends[backend] = {
            "incremental_seconds": round(incremental_seconds, 3),
            "rebuild_seconds": round(rebuild_seconds, 3),
            "sharded_seconds": round(sharded_seconds, 3),
            "incremental_per_step_ms": round(
                1000 * incremental_seconds / steps, 3
            ),
            "rebuild_per_step_ms": round(1000 * rebuild_seconds / steps, 3),
            "speedup": round(rebuild_seconds / incremental_seconds, 3)
            if incremental_seconds else None,
            "redecided_total": sum(s.redecided for s in incremental),
            "redecided_rebuild": sum(s.redecided for s in rebuild),
            "flip_steps": sum(
                1 for s in incremental if s.added_edges or s.removed_edges
            ),
        }
    speedups = [
        entry["speedup"] for entry in backends.values()
        if entry["speedup"] is not None
    ]
    return {
        "benchmark": "bench_mobility_delta",
        "mode": "smoke" if smoke else "full",
        "n": DELTA_N,
        "degree": DELTA_DEGREE,
        "steps": steps,
        "dt": dt,
        "scheme": "degree",
        "k": 2,
        "cpu_count": cores,
        "jobs_requested": jobs,
        "jobs_effective": jobs_effective,
        "identity_jobs": identity_jobs,
        "backends": backends,
        "min_speedup": round(min(speedups), 3) if speedups else None,
        "divergence": divergence,
        "equivalent": divergence is None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Incremental-delta vs full-rebuild mobility sweep."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short trace; non-zero exit only on an equivalence failure",
    )
    parser.add_argument(
        "--out", default=DELTA_OUT,
        help="where to write the JSON record "
        "(default: BENCH_mobility_delta.json)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="workers for the sharded identity leg; timing clamps to "
        "the core count, identity runs on >= 2 real fork workers "
        "regardless (default 4)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")

    record = run_delta_ab(args.smoke, jobs=args.jobs)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["equivalent"]:
        print(
            "FAIL: equivalence gate — a trace sweep leg diverges "
            "from the full-rebuild oracle; first divergence "
            "(serial=rebuild, parallel=the named leg):\n"
            f"  {record['divergence']}",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and (record["min_speedup"] or 0) < 3:
        print(
            "FAIL: speedup gate — the incremental path must be >= 3x "
            f"faster per step; measured min {record['min_speedup']}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_delta_engine_matches_rebuild(benchmark):
    """pytest-benchmark entry: the smoke A/B must stay equivalent."""
    record = benchmark.pedantic(
        lambda: run_delta_ab(smoke=True), rounds=1, iterations=1
    )
    assert record["equivalent"], record["divergence"]
    assert set(record["backends"]) == set(BACKENDS)
    for entry in record["backends"].values():
        # Quiet steps must not re-decide all n nodes every step.
        assert entry["redecided_total"] < entry["redecided_rebuild"]


if __name__ == "__main__":
    sys.exit(main())
