"""Command-line entry point: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 clean (all findings baselined), 1 new findings (or, under
``--check-baseline``, stale baseline entries), 2 usage errors, 3 stale
pragmas under ``--stats`` (a pragma that suppressed zero findings).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import rules as _rules  # noqa: F401  — registers DET001–DET008.
from . import project_rules as _project_rules  # noqa: F401  — DET011–DET014.
from .baseline import diff_against_baseline, load_baseline, write_baseline
from .engine import run_paths
from .report import render_human, render_json, render_rule_list, render_stats
from .sarif import render_sarif

DEFAULT_PATHS = ("src", "tests", "benchmarks")
DEFAULT_BASELINE = "detlint_baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & invariant linter for the repro "
            "simulation stack (per-file rules DET001-DET008 plus the "
            "interprocedural seed-lineage / call-graph rules "
            "DET011-DET014)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        f"(default: the existing subset of {', '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="baseline JSON of accepted findings "
        f"(default: {DEFAULT_BASELINE}; missing file = empty baseline)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report and fail on every finding",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="also fail when the baseline holds stale entries, so the "
        "committed file always matches a fresh run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings: rewrite the baseline and exit 0",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the per-file rule pass over N fork workers (findings "
        "are merged deterministically: output bytes are identical at "
        "any N; serial fallback where fork is unavailable)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write the new findings as a SARIF 2.1.0 document "
        "for GitHub code scanning ('-' = stdout)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="append the stats subreport (per-rule counts, pragma "
        "suppression hits with file:line, baseline size); exits 3 if "
        "any pragma suppressed zero findings",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        render_rule_list(sys.stdout)
        return 0
    if args.jobs < 1:
        print("repro-lint: --jobs must be >= 1", file=sys.stderr)
        return 2

    paths = args.paths or [p for p in DEFAULT_PATHS if os.path.isdir(p)]
    if not paths:
        print(
            "repro-lint: no paths given and none of "
            f"{', '.join(DEFAULT_PATHS)} exist here",
            file=sys.stderr,
        )
        return 2

    run = run_paths(paths, jobs=args.jobs)
    findings = run.findings

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"wrote {args.baseline}: {len(findings)} accepted finding(s)",
            file=sys.stderr,
        )
        return 0

    baseline = {} if args.no_baseline else load_baseline(args.baseline)
    new, accepted, stale = diff_against_baseline(findings, baseline)
    if not args.check_baseline:
        stale = []  # informational only outside --check-baseline

    if args.sarif:
        document = render_sarif(new)
        if args.sarif == "-":
            sys.stdout.write(document)
        else:
            Path(args.sarif).write_text(document, encoding="utf-8")

    renderer = render_json if args.json else render_human
    renderer(sys.stdout, new, accepted, stale, run.checked_files)

    stale_pragmas = False
    if args.stats:
        stale_pragmas = render_stats(sys.stdout, run, len(baseline))

    if new:
        return 1
    if args.check_baseline and stale:
        return 1
    if args.stats and stale_pragmas:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
