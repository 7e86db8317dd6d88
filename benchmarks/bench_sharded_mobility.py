"""Sharded mobility engine: steps/sec scaling and the identity gate.

Replays one 10k-node random-waypoint trace (recorded once as a
:class:`~repro.graph.fliptrace.FlipTrace`, so every leg sees exactly the
same flip stream) through the serial incremental sweep and through the
partial-replica sharded driver at every (shard grid, worker count)
cell, and writes ``BENCH_sharded_mobility.json`` at the repo root so
the perf trajectory is tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_sharded_mobility.py
    PYTHONPATH=src python benchmarks/bench_sharded_mobility.py --smoke

Gates:

* **identity** (always): every sharded run's per-step payload (forward
  sets and flip counts) must match the serial incremental sweep
  byte-for-byte; a failure names the exact divergent step and field via
  :func:`bench_parallel.first_divergence`.  The timed runs use
  ``clamp=True`` (a clamped cell degrades to the in-process
  short-circuit instead of paying pipe overhead for fake parallelism,
  reported as ``clamped: true``), so a dedicated ``identity_runs``
  block replays every grid through a real >= 2-worker fork pool with
  ``clamp=False`` — the fork protocol is genuinely exercised even on a
  1-core box.
* **partial-replica bound** (full mode): ``replica_nodes_max`` — the
  high-water node count of any single shard replica, captured per run
  from :class:`~repro.instrument.InstrumentationCounters` — must stay
  strictly below ``n`` on every multi-shard run.  Hitting ``n`` means
  a shard's universe silently grew to the whole deployment and the
  O(core + halo) memory bound was bypassed; that is a hard failure,
  not a skip.  (The smoke fixture is too small for the bound to bind:
  a few cells of halo cover its whole box.)
* **scaling** (full mode, only when the box has >= 4 cores): the best
  4-worker sharded steps/sec must be >= 2.5x the 1-worker sharded
  steps/sec.  On smaller boxes the gate is recorded as skipped with
  the reason.  ``--no-scaling-gate`` records the measurement without
  failing the exit code (for CI runners with unknown core counts).
"""

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from bench_parallel import first_divergence

from repro.core.priority import DegreePriority
from repro.experiments.runner import run_trace_sweep
from repro.experiments.sharded import run_sharded_trace
from repro.graph.fliptrace import record_flip_trace
from repro.graph.geometry import Area, random_points
from repro.graph.mobility import RandomWaypointModel
from repro.graph.unit_disk import range_for_average_degree
from repro.instrument import collecting

#: Default output location: repo root, next to BENCH_mobility_delta.json.
OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_sharded_mobility.json",
)

SEED = 19
DEGREE = 6.0
FULL_N = 10_000
FULL_STEPS = 10
SMOKE_N = 400
SMOKE_STEPS = 5
GRIDS = ((2, 2), (4, 2))
WORKERS = (1, 2, 4)
K = 2


def _record_trace(n: int, steps: int):
    """Record the shared flip stream once from a seeded waypoint model.

    Slow walkers (0.0005..0.0015 distance units per time unit for the
    10k fixture's short radius) keep per-step flip counts moderate —
    the dirty-region regime the sharded engine targets — while the
    10k-node scale makes the per-step re-decide work big enough to
    amortise a fork pool.
    """
    rng = random.Random(SEED)
    positions = random_points(n, Area(), rng)
    radius, _ = range_for_average_degree(positions, DEGREE)
    model = RandomWaypointModel(
        positions, radius=radius, rng=rng,
        min_speed=0.0005, max_speed=0.0015,
    )
    return record_flip_trace(model, steps, 1.0)


def _payload(steps) -> list:
    return [
        {
            "step": entry.step,
            "forward": list(entry.forward),
            "added": entry.added_edges,
            "removed": entry.removed_edges,
        }
        for entry in steps
    ]


def run_scaling(smoke: bool) -> dict:
    """Time every (grid, workers) cell against the serial sweep."""
    n = SMOKE_N if smoke else FULL_N
    steps = SMOKE_STEPS if smoke else FULL_STEPS
    cores = os.cpu_count() or 1
    scheme = DegreePriority()
    trace = _record_trace(n, steps)
    flips = sum(entry.flip_count for entry in trace.steps)

    start = time.perf_counter()
    serial = run_trace_sweep(trace, scheme=scheme, k=K)
    serial_seconds = time.perf_counter() - start
    oracle = _payload(serial)

    runs = []
    divergence = None
    replica_bound_violations = []
    baseline = {}  # grid key -> 1-worker steps/sec
    for grid in GRIDS:
        shard_count = grid[0] * grid[1]
        for workers in WORKERS:
            effective = min(workers, shard_count, cores)
            clamped = effective < workers
            start = time.perf_counter()
            with collecting() as counters:
                sharded = run_sharded_trace(
                    trace, scheme=scheme, k=K, shards=grid, jobs=workers
                )
            seconds = time.perf_counter() - start
            found = first_divergence(oracle, _payload(sharded))
            key = f"{grid[0]}x{grid[1]}"
            steps_per_sec = steps / seconds if seconds else None
            if workers == 1 and steps_per_sec:
                baseline[key] = steps_per_sec
            # A clamped cell measures the short-circuit, not the pool:
            # no speedup claim, the clamped flag explains the row.
            speedup = None
            if not clamped and steps_per_sec and baseline.get(key):
                speedup = round(steps_per_sec / baseline[key], 3)
            if found is not None and divergence is None:
                divergence = f"[shards={key} workers={workers}] {found}"
            replica_peak = counters.replica_nodes_max
            if not smoke and shard_count > 1 and replica_peak >= n:
                replica_bound_violations.append(
                    f"shards={key} workers={workers}: "
                    f"replica_nodes_max={replica_peak} == n={n}"
                )
            runs.append({
                "shards": key,
                "workers": workers,
                "workers_effective": effective,
                "clamped": clamped,
                "seconds": round(seconds, 3),
                "steps_per_sec": round(steps_per_sec, 3)
                if steps_per_sec else None,
                "speedup": speedup,
                # Per-worker peak memory proxy: the largest partial
                # replica any shard held, as nodes and as a fraction
                # of the deployment.
                "replica_nodes_max": replica_peak,
                "replica_fraction": round(replica_peak / n, 3) if n else None,
                "shard_flips_applied": counters.shard_flips_applied,
                "handoff_redecides": sum(
                    s.handoff_redecides for s in sharded
                ),
                "boundary_flips": sum(s.boundary_flips for s in sharded),
                "first_divergence": found,
            })

    # Real fork pools regardless of core count: the wire protocol
    # (flip routing, local-id stale shipping) must be exercised through
    # actual pipes, not just the inline short-circuit a 1-core box
    # clamps to.
    identity_runs = []
    for grid in GRIDS:
        with collecting() as counters:
            sharded = run_sharded_trace(
                trace, scheme=scheme, k=K, shards=grid, jobs=2, clamp=False
            )
        found = first_divergence(oracle, _payload(sharded))
        key = f"{grid[0]}x{grid[1]}"
        if found is not None and divergence is None:
            divergence = f"[identity shards={key} workers=2 fork] {found}"
        replica_peak = counters.replica_nodes_max
        if not smoke and grid[0] * grid[1] > 1 and replica_peak >= n:
            replica_bound_violations.append(
                f"identity shards={key} workers=2: "
                f"replica_nodes_max={replica_peak} == n={n}"
            )
        identity_runs.append({
            "shards": key,
            "workers": 2,
            "pool": "fork",
            "replica_nodes_max": replica_peak,
            "replica_fraction": round(replica_peak / n, 3) if n else None,
            "first_divergence": found,
        })

    if cores >= 4:
        best_4w = max(
            (r["steps_per_sec"] or 0) for r in runs if r["workers"] == 4
        )
        best_1w = max(
            (r["steps_per_sec"] or 0) for r in runs if r["workers"] == 1
        )
        scaling = {
            "required": 2.5,
            "measured": round(best_4w / best_1w, 3) if best_1w else None,
            "passed": bool(best_1w) and best_4w / best_1w >= 2.5,
            "skipped": None,
        }
    else:
        scaling = {
            "required": 2.5,
            "measured": None,
            "passed": None,
            "skipped": f"needs >= 4 cores to measure, box has {cores}",
        }

    return {
        "benchmark": "bench_sharded_mobility",
        "mode": "smoke" if smoke else "full",
        "n": n,
        "degree": DEGREE,
        "steps": steps,
        "total_flips": flips,
        "scheme": "degree",
        "k": K,
        "cpu_count": cores,
        "serial_seconds": round(serial_seconds, 3),
        "serial_steps_per_sec": round(steps / serial_seconds, 3)
        if serial_seconds else None,
        "runs": runs,
        "identity_runs": identity_runs,
        "scaling_gate": scaling,
        "replica_bound_violations": replica_bound_violations,
        "first_divergence": divergence,
        "byte_identical": divergence is None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded vs serial incremental mobility sweep scaling."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced fixture; non-zero exit only on an identity failure",
    )
    parser.add_argument(
        "--no-scaling-gate", action="store_true",
        help="record the scaling measurement without failing the exit "
        "code (identity and replica-bound gates still fail hard)",
    )
    parser.add_argument(
        "--out", default=OUT,
        help="where to write the JSON record "
        "(default: BENCH_sharded_mobility.json)",
    )
    args = parser.parse_args(argv)

    record = run_scaling(args.smoke)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if not record["byte_identical"]:
        print(
            "FAIL: identity gate — a sharded run diverges from the "
            "serial incremental sweep; first divergence "
            "(serial=serial, parallel=sharded):\n"
            f"  {record['first_divergence']}",
            file=sys.stderr,
        )
        return 1
    if record["replica_bound_violations"]:
        print(
            "FAIL: partial-replica bound — a multi-shard run held a "
            "full-size replica (the O(core + halo) bound was "
            "bypassed):\n  "
            + "\n  ".join(record["replica_bound_violations"]),
            file=sys.stderr,
        )
        return 1
    gate = record["scaling_gate"]
    if (
        not args.smoke
        and not args.no_scaling_gate
        and gate["skipped"] is None
        and not gate["passed"]
    ):
        print(
            "FAIL: scaling gate — 4-worker sharded steps/sec must be "
            f">= {gate['required']}x the 1-worker path; measured "
            f"{gate['measured']}x",
            file=sys.stderr,
        )
        return 1
    return 0


def test_sharded_engine_identity_gate(benchmark):
    """pytest-benchmark entry: the smoke run must stay byte-identical."""
    record = benchmark.pedantic(
        lambda: run_scaling(smoke=True), rounds=1, iterations=1
    )
    assert record["byte_identical"], record["first_divergence"]
    assert record["total_flips"] > 0, "fixture flipped no links; vacuous"
    # Every (grid, workers) cell ran and reported against the oracle.
    assert len(record["runs"]) == len(GRIDS) * len(WORKERS)
    # Real >= 2-worker fork pools ran per grid even on a 1-core box.
    assert len(record["identity_runs"]) == len(GRIDS)
    assert all(r["workers"] >= 2 for r in record["identity_runs"])
    assert all(
        r["replica_nodes_max"] > 0 for r in record["identity_runs"]
    )


if __name__ == "__main__":
    sys.exit(main())
