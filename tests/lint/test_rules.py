"""Every DET rule fires on its flagged fixture and stays silent on the
clean one.

Fixtures live under ``tests/lint/fixtures/`` (excluded from normal lint
runs by the engine's discovery) and are linted here under *virtual*
paths, because most rules are path-scoped — e.g. DET002 only applies
inside ``sim/``/``core/``/``algorithms/``/``experiments/``.
"""

import re
from pathlib import Path

import pytest

from repro.lint import all_rules, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: fixture pair (its stem, upper-cased) → (rule, virtual path the pair is
#: linted under, expected finding count in the flagged file).  DET003's
#: ownership table owns two pairs, one per owner; det009 is the pair of
#: the rule it absorbed.
CASES = {
    "DET001": ("DET001", "src/repro/algorithms/sample.py", 4),
    "DET002": ("DET002", "src/repro/sim/sample.py", 5),
    "DET003": ("DET003", "src/repro/experiments/sample.py", 4),
    "DET005": ("DET005", "src/repro/sim/events.py", 3),
    "DET006": ("DET006", "src/repro/experiments/sample.py", 3),
    "DET007": ("DET007", "src/repro/metrics/sample.py", 2),
    "DET008": ("DET008", "src/repro/sim/sample.py", 2),
    "DET009": ("DET003", "src/repro/sim/sample.py", 4),
    "DET011": ("DET011", "src/repro/sim/sample.py", 5),
    "DET012": ("DET012", "src/repro/sim/sample.py", 2),
    "DET013": ("DET013", "src/repro/experiments/sample.py", 4),
    "DET014": ("DET014", "src/repro/experiments/sample.py", 4),
}

#: Rules with no path scope: they apply everywhere they can match.
UNSCOPED = {"DET001", "DET003", "DET006", "DET013", "DET014"}


def _lint_fixture(case: str, suffix: str, virtual_path: str):
    path = FIXTURES / f"{case.lower()}_{suffix}.py"
    return lint_source(path.read_text(encoding="utf-8"), virtual_path)


def test_every_rule_has_a_fixture_pair():
    codes = {rule.code for rule in all_rules()}
    assert codes == {rule for rule, _path, _count in CASES.values()}
    for case in CASES:
        assert (FIXTURES / f"{case.lower()}_flagged.py").exists()
        assert (FIXTURES / f"{case.lower()}_clean.py").exists()


@pytest.mark.parametrize("case", sorted(CASES))
def test_rule_fires_on_flagged_fixture(case):
    rule, virtual_path, expected = CASES[case]
    findings = _lint_fixture(case, "flagged", virtual_path)
    assert [f.rule for f in findings] == [rule] * expected, findings


@pytest.mark.parametrize("case", sorted(CASES))
def test_rule_silent_on_clean_fixture(case):
    _rule, virtual_path, _expected = CASES[case]
    findings = _lint_fixture(case, "clean", virtual_path)
    assert findings == [], findings


@pytest.mark.parametrize("case", sorted(CASES))
def test_rule_out_of_scope_path_is_silent(case):
    """Path scoping: the flagged fixture is clean under a foreign path."""
    rule, _virtual_path, _expected = CASES[case]
    if rule in UNSCOPED:
        pytest.skip("not path-scoped (applies everywhere it can match)")
    source = (FIXTURES / f"{case.lower()}_flagged.py").read_text(
        encoding="utf-8"
    )
    findings = lint_source(source, "src/repro/viz/sample.py")
    assert [f for f in findings if f.rule == rule] == []


def test_docs_rule_table_matches_registry():
    """The rule table in ``docs/API.md`` lists exactly the live codes."""
    api = Path(__file__).parents[2] / "docs" / "API.md"
    rows = re.findall(
        r"^\| `(DET\d{3})` \|", api.read_text(encoding="utf-8"), re.M
    )
    documented = set(rows)
    assert documented == {rule.code for rule in all_rules()}


def test_rule_catalogue_is_complete():
    for rule in all_rules():
        assert rule.code.startswith("DET")
        assert rule.name
        assert rule.description


def test_det012_does_not_cover_det002():
    """DET002 stays: on its flagged fixture DET012 reports nothing.

    DET012 reports per function, not per call; it skips functions that
    read entropy directly (those are DET002's); and it cannot see an
    import-only binding such as ``from random import shuffle``.
    """
    _rule, virtual_path, expected = CASES["DET002"]
    findings = _lint_fixture("DET002", "flagged", virtual_path)
    assert [f.rule for f in findings] == ["DET002"] * expected
    assert not [f for f in findings if f.rule == "DET012"]
