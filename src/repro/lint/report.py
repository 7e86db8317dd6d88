"""Human, JSON, and ``--stats`` reporters for detlint runs."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Sequence, TextIO

from .findings import Finding
from .registry import all_rules

if TYPE_CHECKING:  # pragma: no cover — type-only import
    from .engine import LintRun

__all__ = ["render_human", "render_json", "render_rule_list", "render_stats"]


def render_human(
    stream: TextIO, findings: Sequence[Finding], checked_files: int
) -> None:
    """``file:line:col: CODE message`` lines plus a one-line summary."""
    for finding in findings:
        stream.write(
            f"{finding.location()}: {finding.rule} {finding.message}\n"
        )
    stream.write(
        f"detlint: {checked_files} files, {len(findings)} finding(s)\n"
    )


def render_json(
    stream: TextIO, findings: Sequence[Finding], checked_files: int
) -> None:
    """A machine-readable record of the whole run."""
    payload = {
        "checked_files": checked_files,
        "findings": [finding.to_dict() for finding in findings],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def render_rule_list(stream: TextIO) -> None:
    """The rule catalogue (``--list-rules``)."""
    for rule in all_rules():
        stream.write(f"{rule.code}  {rule.name}\n")
        stream.write(f"    {rule.description}\n")


def render_stats(stream: TextIO, run: "LintRun") -> bool:
    """The ``--stats`` subreport; returns True when any pragma is stale.

    Reports per-rule counts over the run's (post-suppression) findings,
    and every pragma with its suppression hit count and ``file:line``
    location.  A pragma that suppressed zero findings is *stale* — the
    violation it excused is gone (or the pragma never matched) and it
    should be deleted; the CLI turns stale pragmas into exit code 3
    under ``--stats``.
    """
    stale = run.stale_pragmas()
    stream.write("detlint stats:\n")
    counts: Dict[str, int] = {}
    for finding in run.findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    if counts:
        stream.write("  findings by rule:\n")
        for code in sorted(counts):
            stream.write(f"    {code}: {counts[code]}\n")
    else:
        stream.write("  findings by rule: none\n")
    stream.write(
        f"  pragmas: {len(run.pragmas)} total, {len(stale)} stale\n"
    )
    for pragma in run.pragmas:
        marker = "  [stale]" if pragma.hits == 0 else ""
        stream.write(
            f"    {pragma.path}:{pragma.line} {pragma.label()} "
            f"suppressed {pragma.hits} finding(s){marker}\n"
        )
    return bool(stale)
