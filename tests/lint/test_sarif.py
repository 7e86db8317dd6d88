"""SARIF 2.1.0 rendering: structure, determinism, and CLI wiring."""

import json

from repro.lint import all_rules, lint_source, render_sarif
from repro.lint.__main__ import main

SIM_PATH = "src/repro/sim/sample.py"

AMBIENT = "import time\n\n\ndef stamp():\n    return time.time()\n"


def test_document_skeleton_and_rule_catalogue():
    document = json.loads(render_sarif([]))
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "detlint"
    assert [r["id"] for r in driver["rules"]] == [
        rule.code for rule in all_rules()
    ]
    assert len(driver["rules"]) == 11
    assert run["results"] == []


def test_result_location_and_fingerprint():
    findings = lint_source(AMBIENT, SIM_PATH)
    document = json.loads(render_sarif(findings))
    (result,) = document["runs"][0]["results"]
    assert result["ruleId"] == "DET002"
    assert result["level"] == "error"
    physical = result["locations"][0]["physicalLocation"]
    assert physical["artifactLocation"]["uri"] == SIM_PATH
    # SARIF regions are 1-based; Finding.col is 0-based.
    assert physical["region"]["startLine"] == 5
    assert physical["region"]["startColumn"] == findings[0].col + 1
    fingerprint = result["partialFingerprints"]["detlintFingerprint/v1"]
    assert len(fingerprint) == 16
    rules = document["runs"][0]["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "DET002"


def test_rendering_is_deterministic():
    findings = lint_source(AMBIENT, SIM_PATH)
    assert render_sarif(findings) == render_sarif(list(findings))
    assert render_sarif(findings).endswith("\n")


def test_cli_writes_sarif_file(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "sample.py").write_text(AMBIENT, encoding="utf-8")
    target = tmp_path / "detlint.sarif"
    monkeypatch.chdir(tmp_path)
    code = main(["--no-baseline", "--sarif", str(target), "src"])
    capsys.readouterr()
    assert code == 1
    document = json.loads(target.read_text(encoding="utf-8"))
    results = document["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["DET002"]


def test_cli_sarif_stdout_precedes_report(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["--no-baseline", "--sarif", "-", "src"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{")
    assert '"results": []' in out
