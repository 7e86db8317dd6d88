"""Tests for the experiments CLI."""

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_fig9_with_svg(self, capsys, tmp_path, monkeypatch):
        assert main(["fig9", "--svg-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        svgs = list(tmp_path.glob("*.svg"))
        assert len(svgs) == 6

    def test_quick_figure_run(self, capsys):
        code = main(
            [
                "fig16",
                "--quick",
                "--ns", "15",
                "--min-runs", "3",
                "--max-runs", "4",
                "--no-charts",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SBA" in out and "Generic" in out
        assert "15" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_jobs_flag_matches_serial_output(self, capsys):
        argv = [
            "fig16", "--quick", "--ns", "15",
            "--min-runs", "3", "--max-runs", "4",
            "--no-charts", "--format", "json",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_sharded_mobility_target(self, capsys):
        code = main(
            [
                "sharded-mobility", "--quick",
                "--mobility-nodes", "60", "--steps", "3", "--jobs", "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(
            index for index, line in enumerate(lines)
            if line.split() == ["step", "forward", "redecided", "flips"]
        )
        rows = lines[header + 1:]
        assert len(rows) == 3 + 1  # one row per step, then the totals
        assert [int(row.split()[0]) for row in rows[:3]] == [0, 1, 2]
        assert rows[-1].startswith("totals: ")


class TestCliChartDir:
    def test_chart_svgs_written(self, capsys, tmp_path):
        code = main(
            [
                "fig16", "--quick", "--ns", "15",
                "--min-runs", "3", "--max-runs", "4",
                "--no-charts", "--chart-dir", str(tmp_path),
            ]
        )
        assert code == 0
        charts = list(tmp_path.glob("fig16_*.svg"))
        assert len(charts) == 4  # 2 degrees x 2 radii
        assert charts[0].read_text().startswith("<svg")
