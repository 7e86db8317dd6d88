"""Smoke self-test of the ledger benchmark: ``pytest benchmarks/ledger``.

Runs the whole suite once at ``--scale smoke`` with tracing on (a few
seconds) and checks the benchmark's own contract: every metric of
``BENCHMARK.json`` is reported with its unit, every wrapped layer
boundary fired, layer self times account for the root span, no op
failed, and the result line has exactly the agreed shape.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("ledger")
    out = out_dir / "r.json"
    proc = _run(
        "--scale", "smoke", "--seed", "7", "--seconds", "0", "--trace", "1",
        "--out", str(out), "--spans", str(out_dir / "spans"),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), out_dir


def test_every_metric_is_reported_with_its_unit(suite):
    record, _ = suite
    assert sorted(record["workloads"]) == sorted(
        workload["name"] for workload in SPEC["workloads"]
    )
    for workload in record["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            assert sorted(workload[kind]) == sorted(m["name"] for m in SPEC[kind])
            for metric in SPEC[kind]:
                entry = workload[kind][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))


def test_every_wrapped_boundary_fired(suite):
    record, _ = suite
    for name, workload in record["workloads"].items():
        assert workload["boundaries_missing"] == [], name


def test_layer_self_times_account_for_the_root_span(suite):
    record, _ = suite
    for name, workload in record["workloads"].items():
        for summary in workload["span_summaries"]:
            assert all(value >= 0 for value in summary["self_s"].values()), name
            total = sum(summary["self_s"].values())
            assert abs(total - summary["root_s"]) <= 0.05 * summary["root_s"], name


def test_no_op_fails_and_outputs_repeat(suite):
    record, _ = suite
    for name, workload in record["workloads"].items():
        assert workload["correct"], (name, workload["problems"])
        assert workload["attempted"] > 0 and workload["failed"] == 0, name
        assert isinstance(workload["digest"], str), name
        assert workload["counters"][0] == workload["counters"][1], name


def test_spans_are_written_per_workload(suite):
    _, out_dir = suite
    for workload in SPEC["workloads"]:
        path = out_dir / "spans" / f"spans-{workload['name']}.jsonl"
        with open(path, encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        assert sorted(first) == ["end_ns", "id", "name", "parent", "start_ns"]
        assert first["parent"] is None and first["name"] == "repetition"


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_the_agreed_shape(trace, kind):
    proc = _run(
        "--workload", "static-global", "--scale", "smoke", "--seed", "3",
        "--seconds", "0", "--trace", trace,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[kind])
    for metric in SPEC[kind]:
        assert sorted(result["metrics"][metric["name"]]) == ["unit", "value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "static-global",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_of_a_record_with_itself_finds_nothing_worse(suite):
    _, out_dir = suite
    record = str(out_dir / "r.json")
    proc = _run("compare", record, record)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " worse" not in proc.stdout
