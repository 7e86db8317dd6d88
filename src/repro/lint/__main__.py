"""Command-line entry point: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 clean, 1 findings, 2 usage errors, 3 stale pragmas under
``--stats`` (a pragma that suppressed zero findings).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

# Importing the rule modules registers them: DET001/003/005/007/008 per
# file, DET002/011/013/014 over the project.
from . import rules as _rules  # noqa: F401
from . import project_rules as _project_rules  # noqa: F401
from .engine import run_paths
from .report import render_human, render_json, render_rule_list, render_stats
from .sarif import render_sarif

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & invariant linter for the repro "
            "simulation stack (per-file rules DET001, DET003, DET005, "
            "DET007, DET008 plus the interprocedural entropy, "
            "seed-lineage, fork-payload and JSON rules DET002, DET011, "
            "DET013, DET014)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint "
        f"(default: the existing subset of {', '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write the findings as a SARIF 2.1.0 document "
        "for GitHub code scanning ('-' = stdout)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="append the stats subreport (per-rule counts, pragma "
        "suppression hits with file:line); exits 3 if any pragma "
        "suppressed zero findings",
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

    paths = args.paths or [p for p in DEFAULT_PATHS if os.path.isdir(p)]
    if not paths:
        print(
            "repro-lint: no paths given and none of "
            f"{', '.join(DEFAULT_PATHS)} exist here",
            file=sys.stderr,
        )
        return 2

    run = run_paths(paths)

    if args.sarif:
        document = render_sarif(run.findings)
        if args.sarif == "-":
            sys.stdout.write(document)
        else:
            Path(args.sarif).write_text(document, encoding="utf-8")

    renderer = render_json if args.json else render_human
    renderer(sys.stdout, run.findings, run.checked_files)

    stale_pragmas = render_stats(sys.stdout, run) if args.stats else False

    if run.findings:
        return 1
    if stale_pragmas:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
