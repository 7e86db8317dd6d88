"""Instrumentation overhead benchmark: counters on vs. off.

The event-bus refactor promises that observability is (close to) free
when disabled: the null bus skips event construction and counter sites
are a single ``if _STACK:`` check.  This benchmark times the same sweep
two ways — baseline (no bus, no counters) and counters on — and records
the ratio so the trajectory is tracked over time::

    PYTHONPATH=src python benchmarks/bench_instrumentation.py
    PYTHONPATH=src python benchmarks/bench_instrumentation.py --smoke
    PYTHONPATH=src python benchmarks/bench_instrumentation.py --gate 1.05

``--gate`` exits non-zero when the counters-on run is slower than the
baseline by more than the given factor (the CI smoke gate uses a
generous factor because shared runners are noisy; the recorded full-run
numbers are the authoritative measurement).  The record names its
machine under ``env`` (cores, python, commit).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import List, Optional

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

from bench_parallel import bench_env

from repro.experiments.config import RunSettings
from repro.experiments.figures import fig11_selection
from repro.experiments.runner import run_figure

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Default output location: the repo root.
DEFAULT_OUT = os.path.join(_REPO_ROOT, "BENCH_instrumentation.json")

FULL_NS = (20, 40, 60, 80, 100)
SMOKE_NS = (15, 20)


def _settings(smoke: bool, instrument: bool) -> RunSettings:
    if smoke:
        return RunSettings(
            min_runs=4, max_runs=6, relative_half_width=0.5,
            seed=20030519, instrument=instrument,
        )
    return RunSettings(
        min_runs=10, max_runs=25, relative_half_width=0.02,
        seed=20030519, instrument=instrument,
    )


def _time_sweep(smoke: bool, instrument: bool) -> float:
    ns = SMOKE_NS if smoke else FULL_NS
    figure = fig11_selection(ns=ns)
    start = time.perf_counter()
    run_figure(figure, _settings(smoke, instrument))
    return time.perf_counter() - start


def run_comparison(smoke: bool, repeats: int) -> dict:
    """Time the Fig. 11 sweep with instrumentation off and on."""
    ns = SMOKE_NS if smoke else FULL_NS
    # Interleave the legs: shared machines drift by 10%+ over minutes,
    # and an off/off/off-then-on/on/on order folds that drift straight
    # into the ratio.
    baseline: List[float] = []
    instrumented: List[float] = []
    for _ in range(repeats):
        baseline.append(_time_sweep(smoke, instrument=False))
        instrumented.append(_time_sweep(smoke, instrument=True))
    base = statistics.median(baseline)
    inst = statistics.median(instrumented)
    return {
        "benchmark": "bench_instrumentation",
        "figure": "fig11",
        "mode": "smoke" if smoke else "full",
        "ns": list(ns),
        "repeats": repeats,
        "env": bench_env(),
        "baseline_seconds": round(base, 3),
        "instrumented_seconds": round(inst, 3),
        "overhead_ratio": round(inst / base, 4) if base else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Instrumentation on/off overhead benchmark."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sweep for CI; pair with --gate for a pass/fail exit",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per leg (median is recorded)",
    )
    parser.add_argument(
        "--gate", type=float, default=None,
        help="fail when instrumented/baseline exceeds this ratio",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help="where to write the JSON record "
        "(default: BENCH_instrumentation.json)",
    )
    args = parser.parse_args(argv)

    record = run_comparison(args.smoke, max(1, args.repeats))
    if args.gate is not None:
        record["gate_ratio"] = args.gate
        record["gate_passed"] = record["overhead_ratio"] <= args.gate
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(json.dumps(record, indent=2))
    print(f"wrote {args.out}", file=sys.stderr)
    if args.gate is not None and not record["gate_passed"]:
        print(
            f"FAIL: instrumentation overhead ratio "
            f"{record['overhead_ratio']} exceeds gate {args.gate}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
