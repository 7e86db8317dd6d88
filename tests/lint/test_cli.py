"""The CLI gate: a clean repo, failing findings, and stable report bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.__main__ import main

REPO = Path(__file__).resolve().parents[2]

#: A minimal DET001 violation (unordered loop feeding a list build) used
#: to prove the gate actually fails on a regression.
INJECTED_DET001 = (
    "def collect(view, v):\n"
    "    out = []\n"
    "    for u in view.graph.neighbors(v):\n"
    "        out.append(u)\n"
    "    return out\n"
)

#: A corpus with findings across several rules and files.
CORPUS = {
    "src/repro/sim/a.py": (
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    ),
    "src/repro/sim/b.py": (
        "import random\n\nSHARED = random.Random(3)\n"
    ),
    "src/repro/metrics/c.py": (
        "def agg(vals):\n    return sum({v for v in vals})\n"
    ),
    "src/repro/algorithms/d.py": INJECTED_DET001,
    "src/repro/sim/clean.py": "VALUE = 1\n",
}


def test_whole_repo_is_clean(monkeypatch):
    """``python -m repro.lint`` passes at repo root."""
    monkeypatch.chdir(REPO)
    assert main([]) == 0


def test_fresh_run_over_src_is_clean(monkeypatch):
    monkeypatch.chdir(REPO)
    assert lint_paths(["src"]) == []


def test_injected_det001_fails_the_gate(tmp_path, monkeypatch, capsys):
    """The CI job fails when a new DET001 violation lands."""
    package = tmp_path / "src" / "repro" / "algorithms"
    package.mkdir(parents=True)
    (package / "regression.py").write_text(INJECTED_DET001, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["src"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out
    assert "regression.py:3" in out
    assert out.endswith("detlint: 1 files, 1 finding(s)\n")


def test_json_report_shape(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "repro" / "algorithms"
    package.mkdir(parents=True)
    (package / "regression.py").write_text(INJECTED_DET001, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["--json", "src"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert sorted(payload) == ["checked_files", "findings"]
    assert payload["checked_files"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET001"]


@pytest.mark.parametrize(
    "payload, reason",
    [
        pytest.param(b'x = "\xff"\n', "encoding", id="invalid-utf8"),
        # Past the two lines a coding cookie may occupy, the decoder
        # itself fails (UnicodeDecodeError).
        pytest.param(
            b'"""Doc."""\n\n\nx = "\xff"\n', "can't decode",
            id="invalid-utf8-after-line-2",
        ),
        pytest.param(b'x = "\x00"\n', "null bytes", id="nul-byte"),
    ],
)
def test_unreadable_file_is_det000_and_the_rest_is_linted(
    tmp_path, monkeypatch, capsys, payload, reason
):
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "bad.py").write_bytes(payload)
    (package / "stamp.py").write_text(
        CORPUS["src/repro/sim/a.py"], encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    code = main(["src"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("src/repro/sim/bad.py:0:0: DET000 ")
    assert reason in lines[0]
    assert lines[1].startswith("src/repro/sim/stamp.py:5:11: DET002 ")
    assert lines[2] == "detlint: 2 files, 2 finding(s)"


def test_report_is_byte_identical_across_hash_seeds(tmp_path):
    """Set and dict order never leaks into the JSON or SARIF bytes."""
    for rel, source in CORPUS.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    outputs = []
    for seed in ("1", "2"):
        sarif = tmp_path / f"seed{seed}.sarif"
        env = dict(
            os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(REPO / "src")
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--json",
             "--sarif", str(sarif), "src"],
            cwd=tmp_path, env=env, capture_output=True, check=False,
        )
        assert result.returncode == 1, result.stderr
        outputs.append((result.stdout, sarif.read_bytes()))
    assert json.loads(outputs[0][0])["findings"], "corpus must have findings"
    assert outputs[0] == outputs[1]
