"""Structured finding records — the analyzer's one output type.

Every check produces :class:`Finding` values; emitters
(:mod:`repro.analyze.emit`), the baseline filter
(:mod:`repro.analyze.baseline`) and the repo-wide run
(:mod:`repro.analyze.run`) all consume them.  The ``path:line:col: RULE message`` text rendering is kept
byte-compatible with the pre-refactor flat walker so existing tooling
(editors, CI grep) keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Finding severities, ordered most to least severe.  They map onto the
#: SARIF ``level`` vocabulary; *every* severity gates (exit code 1)
#: unless suppressed or baselined — severity is reporting metadata, not
#: a gate bypass.
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordering is ``(path, line, col, rule)`` so sorted finding lists are
    deterministic for identical inputs (the byte-identity contract of
    the emitters).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str = field(compare=False)
    severity: str = field(default="error", compare=False)

    def format(self) -> str:
        """The classic ``path:line:col: RULE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "severity": self.severity,
                "message": self.message}
