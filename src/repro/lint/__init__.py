"""detlint — AST-based determinism & invariant linter for the simulation stack.

The repro's headline guarantees (Theorem 1/2 correctness under per-node
local views; byte-identical sweep results at any ``--jobs N`` and either
``REPRO_COVERAGE_BACKEND``) hinge on coding invariants that no runtime
test can enforce exhaustively: no unordered iteration feeding ordered
decisions, no ambient RNG or wall-clock reads in simulation paths, and
private cache and delta state changed only by its owner.  This
package enforces them statically::

    python -m repro.lint src tests benchmarks
    python -m repro.lint --stats
    python -m repro.lint --sarif detlint.sarif
    repro-lint --list-rules

Two rule families run in one process over one shared parse:

* the per-file rules DET001, DET003, DET005, DET007 and DET008 (a
  single module's AST);
* the project rules DET002, DET011, DET013 and DET014, which consume
  the whole-run :class:`~repro.lint.project.Project` graph — symbol
  table with
  import-alias resolution (``lint/symtab.py``), project call graph
  (``lint/callgraph.py``), and the flow-sensitive seed-lineage
  analysis (``lint/lineage.py``) classifying every
  ``random.Random(...)`` site as sha256-derived, literal, or unknown.

Everything is stdlib-only (``ast`` + ``argparse``); see
``docs/API.md`` ("Static analysis") for the rule catalogue, the
``# detlint: disable=DETxxx`` pragma syntax (the one way to suppress a
finding), and the SARIF/code-scanning walkthrough.
"""

from .engine import (
    LintRun,
    PragmaUse,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
    run_paths,
    run_sources,
)
from .findings import Finding
from .project import Project
from .registry import (
    LintContext,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    per_file_rules,
)
from .sarif import fingerprint_findings, render_sarif
# Importing the rule modules registers them: DET001/003/005/007/008 per
# file, DET002/011/013/014 over the project.
from . import rules  # noqa: F401
from . import project_rules as _project_rules  # noqa: F401

__all__ = [
    "Finding",
    "LintContext",
    "LintRun",
    "PragmaUse",
    "Project",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "per_file_rules",
    "lint_source",
    "lint_sources",
    "lint_paths",
    "run_sources",
    "run_paths",
    "iter_python_files",
    "fingerprint_findings",
    "render_sarif",
]
