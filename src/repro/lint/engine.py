"""File discovery, pragma handling, and the lint driver.

The engine parses each file exactly once and, in one process, runs two
passes over the parsed records: the per-file rules (DET001, DET003,
DET005, DET007, DET008) and the project rules (DET002, DET011, DET013,
DET014), which consume the
:class:`~repro.lint.project.Project` graph built from *all* records.
Pragma suppression is applied to the merged raw findings, counting
every hit, and the result is sorted, so the report depends only on the
linted sources.

``# detlint:`` pragma comments:

``# detlint: disable=DET001,DET007``
    Suppress the named rules on the line the pragma appears on.  For a
    pragma on a continuation line of a multi-line statement, the
    suppression also covers the statement's first line (where findings
    are reported).
``# detlint: disable``
    Suppress every rule on that line.
``# detlint: skip-file``
    Skip the file — honoured only in the file header, i.e. on or
    before the first statement after the module docstring.  A
    ``skip-file`` later in the file is inert (and reported as a stale
    pragma by ``--stats``).

Files are decoded as Python decodes a module: a PEP 263 coding cookie
(or a UTF-8 BOM) names the encoding, UTF-8 otherwise.  A file that
fails to decode or to parse yields a single ``DET000`` finding rather
than crashing the run, so one broken file cannot hide the rest.
``DET000`` is not suppressible.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .findings import Finding
from .project import Project
from .registry import (
    LintContext,
    ProjectRule,
    Rule,
    all_rules,
    path_parts,
)

__all__ = [
    "lint_source",
    "lint_sources",
    "lint_paths",
    "run_sources",
    "run_paths",
    "iter_python_files",
    "LintRun",
    "PragmaUse",
    "PRAGMA_PATTERN",
]

PRAGMA_PATTERN = re.compile(
    r"#\s*detlint\s*:\s*(?P<verb>disable|skip-file)"
    r"(?:\s*=\s*(?P<codes>[A-Z0-9,\s]+?))?\s*(?:#|$)"
)

#: Directory components never linted: bytecode caches.  The fixture
#: corpus under ``tests/lint/fixtures``, whose files are *deliberate*
#: violations for the linter's own test suite, is skipped by
#: :func:`iter_python_files`.
_SKIPPED_DIRS = ("__pycache__",)


@dataclass
class PragmaUse:
    """One ``# detlint:`` pragma and how many findings it suppressed."""

    path: str
    line: int
    verb: str  # "disable" | "skip-file"
    codes: Optional[Tuple[str, ...]] = None  # None = all rules
    hits: int = 0
    #: False for a ``skip-file`` appearing after the first statement —
    #: recorded (so ``--stats`` can call it stale) but never honoured.
    active: bool = True

    def label(self) -> str:
        """Short human form for the stats subreport (``disable=...``)."""
        if self.verb == "skip-file":
            return "skip-file" if self.active else "skip-file (inert: not in file header)"
        if self.codes is None:
            return "disable"
        return "disable=" + ",".join(self.codes)


@dataclass
class LintRun:
    """The full result of one lint run (findings plus pragma accounting)."""

    findings: List[Finding]
    checked_files: int
    pragmas: List[PragmaUse] = field(default_factory=list)

    def stale_pragmas(self) -> List[PragmaUse]:
        """Pragmas that suppressed nothing in this run."""
        return [p for p in self.pragmas if p.hits == 0]


@dataclass
class _FileRecord:
    """One parsed (or unparsable) input file, ready for the rule passes."""

    path: str
    context: Optional[LintContext]
    parse_finding: Optional[Finding]
    pragmas: List[PragmaUse]
    skip_pragma: Optional[PragmaUse]
    #: finding line -> pragmas covering that line, in source order.
    suppress: Dict[int, List[PragmaUse]]


def _first_code_line(tree: ast.Module) -> Optional[int]:
    """First statement line, skipping the module docstring."""
    body = list(tree.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body[0].lineno if body else None


def _covering_statement_line(
    tree: ast.Module, line: int
) -> Optional[int]:
    """First line of the innermost statement spanning physical ``line``."""
    best: Optional[Tuple[int, int]] = None  # (lineno, end_lineno)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None)
        if end is None or not (node.lineno <= line <= end):
            continue
        if best is None or (node.lineno, -end) > (best[0], -best[1]):
            best = (node.lineno, end)
    return best[0] if best is not None else None


def _decode(data: bytes) -> str:
    """Module source text, decoded and newline-translated like ``open()``."""
    encoding, _lines = tokenize.detect_encoding(io.BytesIO(data).readline)
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding).read()


def _build_record(path: str, source: Union[str, bytes]) -> _FileRecord:
    try:
        if isinstance(source, bytes):
            source = _decode(source)
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        # ValueError: undecodable bytes (UnicodeDecodeError), or a NUL
        # byte, which Python 3.10's parser rejects with ValueError.
        error = exc if isinstance(exc, SyntaxError) else SyntaxError(str(exc))
        return _FileRecord(
            path=path,
            context=None,
            parse_finding=Finding(
                path=path,
                line=error.lineno or 0,
                col=error.offset or 0,
                rule="DET000",
                message=f"file does not parse: {error.msg}",
                snippet=(error.text or "").strip(),
            ),
            pragmas=[],
            skip_pragma=None,
            suppress={},
        )
    ctx = LintContext(path, source, tree)
    pragmas: List[PragmaUse] = []
    skip_pragma: Optional[PragmaUse] = None
    suppress: Dict[int, List[PragmaUse]] = {}
    first_code = _first_code_line(tree)
    for number, line in enumerate(ctx.lines, start=1):
        if "#" not in line or "detlint" not in line:
            continue
        match = PRAGMA_PATTERN.search(line)
        if match is None:
            continue
        if match.group("verb") == "skip-file":
            honoured = first_code is None or number <= first_code
            pragma = PragmaUse(
                path=path, line=number, verb="skip-file", active=honoured
            )
            pragmas.append(pragma)
            if honoured and skip_pragma is None:
                skip_pragma = pragma
            continue
        raw = match.group("codes")
        codes: Optional[Tuple[str, ...]] = None
        if raw is not None:
            codes = tuple(
                sorted({code.strip() for code in raw.split(",") if code.strip()})
            )
        pragma = PragmaUse(path=path, line=number, verb="disable", codes=codes)
        pragmas.append(pragma)
        lines_covered = {number}
        anchor = _covering_statement_line(tree, number)
        if anchor is not None:
            # A pragma on a continuation line also covers the line the
            # finding is reported on — the statement's first line.
            lines_covered.add(anchor)
        for covered in sorted(lines_covered):
            suppress.setdefault(covered, []).append(pragma)
    return _FileRecord(
        path=path,
        context=ctx,
        parse_finding=None,
        pragmas=pragmas,
        skip_pragma=skip_pragma,
        suppress=suppress,
    )


def _check_context(ctx: LintContext, rules: Sequence[Rule]) -> List[Finding]:
    """Run the per-file rules over one parsed file (no suppression)."""
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx.path):
            continue
        findings.extend(rule.check(ctx))
    return findings


def _filter_record(
    record: _FileRecord, findings: Iterable[Finding]
) -> List[Finding]:
    """Apply the record's pragmas, counting every suppression hit."""
    ordered = sorted(findings)
    if record.skip_pragma is not None:
        record.skip_pragma.hits += len(ordered)
        return []
    kept: List[Finding] = []
    for finding in ordered:
        matched: Optional[PragmaUse] = None
        for pragma in record.suppress.get(finding.line, ()):
            if pragma.codes is None or finding.rule in pragma.codes:
                matched = pragma
                break
        if matched is not None:
            matched.hits += 1
        else:
            kept.append(finding)
    return kept


# -- drivers -----------------------------------------------------------


def run_sources(
    items: Sequence[Tuple[str, Union[str, bytes]]],
    rules: Optional[Sequence[Rule]] = None,
) -> LintRun:
    """Lint ``(path, source)`` pairs as one project; the core driver.

    A source given as ``bytes`` is decoded as Python decodes a module
    file.  Findings from the per-file and project passes are merged,
    filtered through pragmas (counting every suppression hit), and
    globally sorted.
    """
    records = [_build_record(path, source) for path, source in items]
    selected = list(rules) if rules is not None else all_rules()
    file_rules = [r for r in selected if not isinstance(r, ProjectRule)]
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    per_file: Dict[int, List[Finding]] = {
        index: _check_context(record.context, file_rules)
        for index, record in enumerate(records)
        if record.context is not None
    }
    contexts = [r.context for r in records if r.context is not None]
    if project_rules and contexts:
        project = Project(contexts)
        by_path = {
            record.path: index
            for index, record in enumerate(records)
            if record.context is not None
        }
        for rule in project_rules:
            for finding in rule.check_project(project):
                index = by_path.get(finding.path)
                if index is not None:
                    per_file.setdefault(index, []).append(finding)
    findings: List[Finding] = []
    pragmas: List[PragmaUse] = []
    for index, record in enumerate(records):
        if record.parse_finding is not None:
            findings.append(record.parse_finding)
        else:
            findings.extend(
                _filter_record(record, per_file.get(index, []))
            )
        pragmas.extend(record.pragmas)
    return LintRun(
        findings=sorted(findings),
        checked_files=len(records),
        pragmas=sorted(pragmas, key=lambda p: (p.path, p.line)),
    )


def lint_sources(
    items: Sequence[Tuple[str, str]],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Findings for a set of ``(path, source)`` modules linted together."""
    return run_sources(items, rules).findings


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one module's source under a (possibly virtual) ``path``.

    ``path`` drives rule scoping only — it need not exist on disk, which
    is how the fixture tests exercise path-scoped rules
    (``lint_source(bad, "src/repro/sim/sample.py")``).  Project rules
    run over the single-module project.
    """
    return run_sources([(path, source)], rules).findings


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, excluding caches and fixtures."""
    for entry in paths:
        root = Path(entry)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for candidate in sorted(root.rglob("*.py")):
            parts = candidate.parts
            if any(part in _SKIPPED_DIRS for part in parts):
                continue
            if "fixtures" in parts and "lint" in parts:
                continue
            yield candidate


def run_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> LintRun:
    """Lint every Python file under ``paths`` (files or directories).

    Paths in the findings are reported as given (relative stays
    relative), normalised to forward slashes so fingerprints are
    portable.
    """
    items = [
        ("/".join(path_parts(str(file_path))), file_path.read_bytes())
        for file_path in iter_python_files(paths)
    ]
    return run_sources(items, rules)


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Findings for every Python file under ``paths``."""
    return run_paths(paths, rules).findings
