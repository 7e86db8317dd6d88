"""SARIF 2.1.0 output for GitHub code-scanning annotations.

``render_sarif`` serializes the run's findings into the Static
Analysis Results Interchange Format consumed by
``github/codeql-action/upload-sarif``.  Each result carries a stable
fingerprint from :func:`fingerprint_findings` so code scanning can
track a finding across unrelated edits.  The document is dumped with
``sort_keys=True`` and a fixed indent, and findings arrive pre-sorted
from the engine, so SARIF bytes, like JSON report bytes, depend only
on the linted sources.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Sequence, Tuple

from .findings import Finding
from .registry import all_rules

__all__ = [
    "fingerprint_findings",
    "render_sarif",
    "SARIF_VERSION",
    "SARIF_SCHEMA",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
TOOL_VERSION = "2.0.0"
FINGERPRINT_KEY = "detlintFingerprint/v1"


def _fingerprint(rule: str, path: str, snippet: str, occurrence: int) -> str:
    digest = hashlib.sha256(
        f"{rule}|{path}|{snippet}|{occurrence}".encode()
    ).hexdigest()
    return digest[:16]


def fingerprint_findings(
    findings: Iterable[Finding],
) -> List[Tuple[Finding, str]]:
    """Pair each finding with its stable fingerprint.

    The fingerprint hashes the finding's rule, path, stripped source
    line and occurrence index, deliberately **not** the line number, so
    unrelated edits above a finding leave it unchanged.  Identical
    ``(rule, path, snippet)`` triples are disambiguated by occurrence
    index in report order, so two textually identical violations in one
    file fingerprint differently.
    """
    seen: Dict[Tuple[str, str, str], int] = {}
    pairs: List[Tuple[Finding, str]] = []
    for finding in sorted(findings):
        key = (finding.rule, finding.path, finding.snippet)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        pairs.append(
            (
                finding,
                _fingerprint(
                    finding.rule, finding.path, finding.snippet, occurrence
                ),
            )
        )
    return pairs


def _rule_descriptors() -> List[Dict[str, object]]:
    return [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules()
    ]


def render_sarif(findings: Sequence[Finding]) -> str:
    """The SARIF 2.1.0 document for ``findings``, as a string."""
    rule_index = {rule.code: i for i, rule in enumerate(all_rules())}
    results: List[Dict[str, object]] = []
    for finding, fingerprint in fingerprint_findings(findings):
        result: Dict[str, object] = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {FINGERPRINT_KEY: fingerprint},
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        results.append(result)
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "detlint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/API.md"
                        ),
                        "version": TOOL_VERSION,
                        "rules": _rule_descriptors(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
