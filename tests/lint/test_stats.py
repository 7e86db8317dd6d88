"""The ``--stats`` subreport: hit counts, stale pragmas, exit code 3."""

from repro.lint import run_sources
from repro.lint.__main__ import main

SIM_PATH = "src/repro/sim/sample.py"

AMBIENT = "import time\n\n\ndef stamp():\n    return time.time()\n"

SUPPRESSED = AMBIENT.replace(
    "return time.time()",
    "return time.time()  # detlint: disable=DET002",
)


def test_pragma_hit_is_counted():
    run = run_sources([(SIM_PATH, SUPPRESSED)])
    assert run.findings == []
    (pragma,) = run.pragmas
    assert pragma.path == SIM_PATH
    assert pragma.line == 5
    assert pragma.hits == 1
    assert run.stale_pragmas() == []


def test_one_pragma_absorbs_multiple_findings():
    source = (
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time() + time.time()  # detlint: disable=DET002\n"
    )
    run = run_sources([(SIM_PATH, source)])
    assert run.findings == []
    assert [p.hits for p in run.pragmas] == [2]


def test_skip_file_pragma_counts_swallowed_findings():
    source = "# detlint: skip-file\n" + AMBIENT
    run = run_sources([(SIM_PATH, source)])
    assert run.findings == []
    (pragma,) = run.pragmas
    assert pragma.verb == "skip-file"
    assert pragma.hits == 1


def test_pragma_suppressing_nothing_is_stale():
    source = "X = 1  # detlint: disable=DET002\n"
    run = run_sources([(SIM_PATH, source)])
    assert run.findings == []
    assert [p.line for p in run.stale_pragmas()] == [1]


def test_stats_renders_and_stale_pragma_exits_3(
    tmp_path, monkeypatch, capsys
):
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "useful.py").write_text(SUPPRESSED, encoding="utf-8")
    (package / "stale.py").write_text(
        "X = 1  # detlint: disable=DET002\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)

    # Without --stats the stale pragma is not an error.
    assert main(["src"]) == 0
    capsys.readouterr()

    code = main(["--stats", "src"])
    out = capsys.readouterr().out
    assert code == 3
    assert "pragmas: 2 total, 1 stale" in out
    assert "useful.py:5 disable=DET002 suppressed 1 finding(s)" in out
    assert "stale.py:1 disable=DET002 suppressed 0 finding(s)  [stale]" in out


def test_stats_all_pragmas_live_exits_0(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "repro" / "sim"
    package.mkdir(parents=True)
    (package / "useful.py").write_text(SUPPRESSED, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["--stats", "src"]) == 0
    out = capsys.readouterr().out
    assert "pragmas: 1 total, 0 stale" in out
    assert "findings by rule: none" in out
