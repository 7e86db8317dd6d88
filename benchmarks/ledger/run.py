"""Layer-ledger benchmark: end-to-end and per-layer metrics on five workloads.

Three modes::

    # one workload in this process (what each suite subprocess runs)
    python3 benchmarks/ledger/run.py --workload service-stream \\
        --seed 20030519 --seconds 15 --trace 0

    # every workload, each in its own fresh subprocess, one after another
    python3 benchmarks/ledger/run.py --seed 20030519 --out r.json \\
        [--trace 1 --spans DIR] [--scale smoke]

    # regression gate between two suite records
    python3 benchmarks/ledger/run.py compare A.json B.json

A workload run sets up its inputs from the seed three times (``setup_s``
is the import time plus the median build), then times repetitions until
``--seconds`` have passed and at least three ran.  Each repetition's
outputs are checked (coverage, delivery, sharded == serial) and hashed.
With ``--trace 1`` two more repetitions run with span wrappers installed
on every layer boundary (see ``spans.py``) and under
``repro.instrument.collecting()``; they give the per-layer metrics.

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}`` — the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The line
before it is the full record: per-repetition values and quartiles,
digests, counters, ratios with numerator and denominator, and ``env``.
Every ``REPRO_*`` override is removed first, so the default backends
are measured.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from spans import LAYERS, SpanRecorder, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Fewest untraced repetitions a run times, however short ``--seconds``.
MIN_REPS = 3
#: Traced repetitions; their counters must match exactly.
TRACED_REPS = 2
#: Set-up builds per run; ``setup_s`` reports their median.
SETUP_BUILDS = 3
#: A workload subprocess that runs longer than this is a failure.
WORKLOAD_TIMEOUT_S = 600


class LedgerError(Exception):
    """The benchmark cannot run here (missing program or spec)."""


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise LedgerError(f"cannot read {SPEC_PATH}: {error}") from None


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return {"q1": values[0], "value": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "value": median, "q3": q3}


def ratio(num: float, den: float) -> dict:
    return {"value": num / den if den else 0.0, "num": num, "den": den}


def _git_sha() -> Optional[str]:
    """HEAD's commit read from ``.git`` itself (the checkout may have none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _environment() -> dict:
    from importlib import metadata

    from repro.core.coverage import coverage_backend
    from repro.graph.unit_disk import udg_builder

    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "coverage_backend": coverage_backend(),
        "udg_builder": udg_builder(),
    }


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def _layer_metrics(
    untraced: List[dict],
    traced: List[dict],
    counters: dict,
    summaries: List[dict],
) -> Dict[str, dict]:
    """Every per-layer metric (ratios keep numerator and denominator)."""
    calls = summaries[0]["calls"]
    c = counters

    def count(*names: str) -> dict:
        return {"value": sum(calls.get(name, 0) for name in names)}

    def value(number: float) -> dict:
        return {"value": number}

    metrics: Dict[str, dict] = {
        f"{layer}.self_s": value(
            statistics.median(s["self_s"][layer] for s in summaries)
        )
        for layer in LAYERS
    }
    serial = statistics.median(r["ops"] / r["seconds"] for r in untraced)
    sharded = [
        r["ops"] / r["sharded_seconds"] for r in untraced if "sharded_seconds" in r
    ]
    sharded_ops = statistics.median(sharded) if sharded else 0.0
    traced_ops = statistics.median(r["ops"] / r["seconds"] for r in traced)
    attempts = count("random_network", "random_grid_network")["value"]
    accepted = count("random_connected_network", "random_grid_network")["value"]
    metrics.update({
        "graph.generators.attempts": value(attempts),
        "graph.generators.accept_ratio": ratio(accepted, attempts),
        "graph.unit_disk.calls": count(
            "range_for_average_degree", "build_unit_disk_graph", "edge_flips"
        ),
        "graph.topology.view_extractions": count("Topology.k_hop_view_graph"),
        "graph.topology.cache_hit_ratio": ratio(
            c["topology_cache_hits"],
            c["topology_cache_hits"] + c["topology_cache_misses"],
        ),
        "graph.topology.delta_applies": value(c["delta_applies"]),
        "graph.topology.dirty_nodes_invalidated": value(
            c["dirty_nodes_invalidated"]
        ),
        "core.views.calls": count("SimulationEnvironment.make_view", "local_view"),
        "core.coverage.evaluations": value(c["coverage_evaluations"]),
        "core.coverage.memo_hit_ratio": ratio(
            c["coverage_memo_hits"],
            c["coverage_memo_hits"] + c["coverage_memo_misses"],
        ),
        "core.coverage.floodfills": value(c["mask_floodfills"]),
        "algorithms.decisions": value(c["decisions"]),
        "sim.service.events": value(c["scheduler_events"]),
        "sim.service.reuse_ratio": ratio(c["forward_set_reuses"], c["decisions"]),
        "sim.service.queue_depth_max": value(c["queue_depth_max"]),
        "sim.service.drops": value(c["messages_dropped"]),
        "sim.mac.deliveries": value(c["mac_deliveries"]),
        "experiments.sharded.ops_per_s": value(sharded_ops),
        "experiments.sharded.speedup": ratio(sharded_ops, serial),
        "experiments.sharded.handoff_ratio": ratio(
            c["shard_handoff_redecides"], c["shard_redecides"]
        ),
        "experiments.sharded.flips_applied": value(c["shard_flips_applied"]),
        "experiments.sharded.replica_nodes_max": value(c["replica_nodes_max"]),
        "experiments.sharded.rehomes": value(c["shard_rehomes"]),
        "experiments.sharded.worker_rss_mb": value(
            _maxrss_mb(resource.RUSAGE_CHILDREN) if sharded else 0.0
        ),
        "trace.overhead": ratio(serial, traced_ops),
    })
    return metrics


def _with_units(values: Dict[str, dict], specs: List[dict]) -> Dict[str, dict]:
    """Attach each spec'd metric's unit; the two name sets must agree."""
    names = [spec["name"] for spec in specs]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise LedgerError(
            f"metrics disagree with BENCHMARK.json: missing {missing}, "
            f"unlisted {extra}"
        )
    return {
        spec["name"]: dict(values[spec["name"]], unit=spec["unit"])
        for spec in specs
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    spans_dir: Optional[str],
) -> int:
    for key in sorted(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise LedgerError(f"no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import workloads

    import_s = time.perf_counter() - _STARTED
    if name not in workloads.WORKLOADS:
        raise LedgerError(
            f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[name]

    builds: List[float] = []
    for _ in range(SETUP_BUILDS):
        fixture = None  # release the previous build before timing the next
        start = time.perf_counter()
        fixture = workload.setup(seed, scale)
        builds.append(time.perf_counter() - start)
    setup_values = [import_s + build for build in builds]

    untraced: List[dict] = []
    start = time.perf_counter()
    while len(untraced) < MIN_REPS or time.perf_counter() - start < seconds:
        # Every repetition starts from the same collected heap.
        gc.collect()
        rep = workload.run(fixture)
        untraced.append(rep)
        print(
            f"ledger: {name} rep {len(untraced)}: {rep['ops']} {workload.op}s "
            f"in {rep['seconds']:.3f} s, {rep['failed']} failed",
            file=sys.stderr,
        )
    peak_rss_mb = _maxrss_mb(resource.RUSAGE_SELF)

    ops_values = [rep["ops"] / rep["seconds"] for rep in untraced]
    end_to_end = {
        "ops_per_s": dict(quartiles(ops_values), values=ops_values),
        "setup_s": dict(quartiles(setup_values), values=setup_values),
        "peak_rss_mb": dict(quartiles([peak_rss_mb]), values=[peak_rss_mb]),
    }
    record = {
        "workload": name,
        "op": workload.op,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "env": _environment(),
        "setup": {"import_s": import_s, "build_s": builds},
        "reps": untraced,
        "end_to_end": _with_units(end_to_end, spec["end_to_end"]),
    }
    problems: List[str] = []

    traced: List[dict] = []
    if trace:
        from repro.instrument import collecting

        recorder = SpanRecorder()
        recorder.install(
            workload.protocol_classes(fixture),
            workload.mac_classes,
            extra_modules=(workloads,),
        )
        roots = []
        counter_dicts = []
        for _ in range(TRACED_REPS):
            gc.collect()
            with collecting() as counters, recorder.root() as root_id:
                traced.append(workload.run(fixture))
            roots.append(root_id)
            counter_dicts.append(counters.as_dict())
        summaries = [
            summarize(recorder.spans, recorder.layer_of, root) for root in roots
        ]
        if any(counts != counter_dicts[0] for counts in counter_dicts[1:]):
            problems.append(
                "traced repetitions report different counters "
                "(cache warmth leaked between repetitions)"
            )
        per_layer = _layer_metrics(untraced, traced, counter_dicts[0], summaries)
        record.update({
            "traced_reps": traced,
            "counters": counter_dicts,
            "span_summaries": summaries,
            "boundaries_missing": sorted(
                boundary
                for boundary in workload.expected
                if any(boundary not in s["calls"] for s in summaries)
            ),
            "per_layer": _with_units(per_layer, spec["per_layer"]),
        })
        if spans_dir:
            os.makedirs(spans_dir, exist_ok=True)
            recorder.write_jsonl(os.path.join(spans_dir, f"spans-{name}.jsonl"))

    every = untraced + traced
    digests = sorted({rep["digest"] for rep in every})
    record["digest"] = digests[0] if len(digests) == 1 else digests
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions: {digests}")
    attempted = sum(rep["ops"] for rep in every)
    failed = sum(rep["failed"] for rep in every)
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    fields, found = workload.check(every)
    record.update(fields)
    problems.extend(found)
    record.update({
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    })
    chosen = record["per_layer"] if trace else record["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in chosen.items()
        },
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# The suite: every workload in its own subprocess
# ----------------------------------------------------------------------


def run_suite(
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    spans_dir: Optional[str],
    out: Optional[str],
) -> int:
    spec = load_spec()
    records = {}
    for entry in spec["workloads"]:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", entry["name"],
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--scale", scale,
        ]
        if spans_dir:
            command += ["--spans", spans_dir]
        started = time.perf_counter()
        proc = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKLOAD_TIMEOUT_S,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise LedgerError(
                f"workload {entry['name']} exited {proc.returncode} "
                "without a result"
            )
        records[entry["name"]] = record = json.loads(lines[-2])
        print(
            f"ledger: {entry['name']} done in "
            f"{time.perf_counter() - started:.1f} s, "
            f"correct={record['correct']}",
            file=sys.stderr,
        )
    envelope = {
        "benchmark": "ledger",
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "env": next(iter(records.values()))["env"],
        "workloads": records,
    }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(format_record(envelope, spec))
    return 0 if all(record["correct"] for record in records.values()) else 1


def _spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def format_record(envelope: dict, spec: dict) -> str:
    """A human table: medians [q1, q3] per workload and metric."""
    lines = [
        f"ledger seed={envelope['seed']} scale={envelope['scale']} "
        f"env={json.dumps(envelope['env'], sort_keys=True)}"
    ]
    for name, record in envelope["workloads"].items():
        digest = record["digest"]
        lines.append(
            f"{name}: correct={record['correct']} attempted={record['attempted']} "
            f"failed={record['failed']} digest="
            f"{digest[:16] if isinstance(digest, str) else digest}"
        )
        for metric in spec["end_to_end"]:
            entry = record["end_to_end"][metric["name"]]
            lines.append(
                f"  {metric['name']:<12} {entry['value']:12.4f} {entry['unit']:<5}"
                f" [{entry['q1']:.4f}, {entry['q3']:.4f}]"
            )
        for metric, entry in sorted(record.get("per_layer", {}).items()):
            if metric.endswith(".self_s") or metric == "trace.overhead":
                lines.append(f"  {metric:<32} {entry['value']:10.4f} {entry['unit']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare A.json B.json
# ----------------------------------------------------------------------


def judge(before: dict, after: dict, bound: float, better: str) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one (workload, metric).

    ``unresolved`` when either side's spread (q3 - q1 over the median)
    is wider than the bound, unless every value of ``after`` beats every
    value of ``before``.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(_spread(before), _spread(after)) > bound:
        if all(
            sign * (b - a) < 0 for a in before["values"] for b in after["values"]
        ):
            return "ok"
        return "unresolved"
    change = sign * (after["value"] - before["value"]) / before["value"]
    return "worse" if change > bound else "ok"


def compare(path_before: str, path_after: str) -> int:
    spec = load_spec()
    with open(path_before, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(path_after, encoding="utf-8") as handle:
        after = json.load(handle)
    worse = 0
    print(
        f"{'workload':<15}{'metric':<13}{'A median [q1, q3]':>34}"
        f"{'B median [q1, q3]':>34}  verdict"
    )
    for entry in spec["workloads"]:
        name = entry["name"]
        if name not in before["workloads"] or name not in after["workloads"]:
            print(f"{name:<15}(missing from one record)")
            continue
        for metric in spec["end_to_end"]:
            a = before["workloads"][name]["end_to_end"][metric["name"]]
            b = after["workloads"][name]["end_to_end"][metric["name"]]
            verdict = judge(a, b, metric["bound"], metric["better"])
            worse += verdict == "worse"
            print(
                f"{name:<15}{metric['name']:<13}"
                f"{a['value']:>12.4f} [{a['q1']:.4f}, {a['q3']:.4f}]"
                f"{b['value']:>12.4f} [{b['q1']:.4f}, {b['q3']:.4f}]  {verdict}"
            )
    return 1 if worse else 0


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare two suite records against BENCHMARK.json bounds.",
        )
        parser.add_argument("before")
        parser.add_argument("after")
        args = parser.parse_args(argv[1:])
        return compare(args.before, args.after)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=20030519)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time to spend on timed repetitions (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", metavar="DIR", help="write spans-<workload>.jsonl")
    parser.add_argument("--out", help="suite mode: write the record here")
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds
        if seconds is None:
            seconds = float(load_spec()["run_seconds"])
        if args.workload:
            return run_workload(
                args.workload, args.seed, seconds, bool(args.trace),
                args.scale, args.spans,
            )
        return run_suite(
            args.seed, seconds, bool(args.trace), args.scale, args.spans,
            args.out,
        )
    except LedgerError as error:
        print(f"ledger: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
