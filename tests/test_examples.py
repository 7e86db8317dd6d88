"""Smoke tests: every example script runs and prints what it promises."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(script: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = _run("quickstart.py")
    assert "forward nodes" in out
    assert "connected dominating set: True" in out
    assert "Transmit(" in out
    assert "vs flooding" in out


def test_compare_protocols():
    out = _run("compare_protocols.py", "30", "6")
    assert "flooding" in out
    assert "generic-frb" in out
    assert "NO" not in out  # every forward set was a CDS


def test_virtual_backbone():
    out = _run("virtual_backbone.py")
    assert "CDS: True" in out
    assert "unicast routes" in out
    assert "clusterheads" in out


def test_paper_gallery():
    out = _run("paper_gallery.py")
    assert "MAX_MIN path: [10, 9, 6, 4, 11]" in out
    assert "Figure 6(a)" in out
    assert "non-forward" in out


def test_mobility_broadcast():
    out = _run("mobility_broadcast.py")
    assert "stale forward sets" in out
    assert "collisions" in out


def test_gossip_vs_deterministic():
    out = _run("gossip_vs_deterministic.py")
    assert "gossip p=0.3" in out
    assert "generic coverage (FR)" in out
    assert "100.0%" in out


def test_olsr_link_state():
    out = _run("olsr_link_state.py")
    assert "TC dissemination" in out
    assert "saved" in out
    assert "complete link-state databases: 40/40" in out
    assert "backbone" in out


def test_energy_lifetime():
    out = _run("energy_lifetime.py")
    assert "lifetime" in out
    assert "flooding" in out
    assert "energy-aware" in out


def test_heterogeneous_ranges():
    out = _run("heterogeneous_ranges.py")
    assert "unidirectional links" in out
    assert "bidirectional core" in out
    assert "assumption 3" in out
