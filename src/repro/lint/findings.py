"""The :class:`Finding` record every detlint rule emits.

Kept in its own tiny module so rules, engine and reporters can all
import it without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is ``(path, line, col, rule)`` so reports are stable
    regardless of rule execution order.  ``snippet`` is the stripped
    source line — it anchors the SARIF fingerprint, which must survive
    unrelated line-number drift (see
    :func:`repro.lint.sarif.fingerprint_findings`).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of a report line."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready plain dict."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        return cls(**payload)  # type: ignore[arg-type]
