"""``repro.analyze`` — dataflow-based static analysis for the repro.

This package replaces the flat ``repro-lint`` AST walker with a real
analysis stack: per-function CFGs (:mod:`repro.analyze.cfg`), a
dataflow engine (:mod:`repro.analyze.dataflow`), a plugin check
registry (:mod:`repro.analyze.registry`) and structured findings with
text/JSON/SARIF emitters (:mod:`repro.analyze.emit`) plus committed
baselines (:mod:`repro.analyze.baseline`).  The legacy SAN101–SAN105
rules live on unchanged (same ids, same suppressions, same findings)
as plugins in :mod:`repro.analyze.checks.invariants`.

Driver entry points: :func:`analyze_source` for one module's text,
:func:`analyze_paths` for trees of files; both apply the suppression
comments and return sorted :class:`~repro.analyze.findings.Finding`
lists inside an :class:`AnalysisResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import repro.analyze.checks  # noqa: F401  (registers the built-ins)
from repro.analyze.context import ModuleContext
from repro.analyze.findings import Finding
from repro.analyze.registry import (CheckSpec, all_checks, check_ids,
                                    get_check, rule_catalog)

__all__ = [
    "AnalysisResult", "Finding", "CheckSpec",
    "analyze_source", "analyze_file", "analyze_paths",
    "all_checks", "check_ids", "get_check", "rule_catalog",
    "LEGACY_RULES",
]

#: The rules the pre-refactor ``repro-lint`` walker implemented (plus
#: SAN100, its bare-suppression fix).
LEGACY_RULES = ("SAN100", "SAN101", "SAN102", "SAN103", "SAN104", "SAN105")


@dataclass(frozen=True)
class AnalysisResult:
    """Findings plus the parse-failure records of one analyzer run.

    ``errors`` are SAN000 records (files that did not parse); they are
    reported like findings but drive the exit-code-2 usage/parse
    contract instead of the exit-code-1 findings gate.
    """

    findings: tuple[Finding, ...]
    errors: tuple[Finding, ...] = ()
    files: int = 0

    @property
    def all_findings(self) -> tuple[Finding, ...]:
        return tuple(sorted(self.errors + self.findings))


def _selected(checks: Sequence[str] | None) -> tuple[CheckSpec, ...]:
    if checks is None:
        return all_checks()
    return tuple(get_check(check_id) for check_id in checks)


def analyze_source(source: str, path: str,
                   checks: Sequence[str] | None = None) -> AnalysisResult:
    """Analyze one module's source text.  ``path`` is used for
    reporting, the package-based check exemptions, and baselines."""
    try:
        ctx = ModuleContext(source, path)
    except SyntaxError as exc:
        record = Finding(path=path, line=exc.lineno or 1,
                         col=exc.offset or 0, rule="SAN000",
                         message=f"syntax error: {exc.msg}")
        return AnalysisResult(findings=(), errors=(record,), files=1)
    findings: list[Finding] = []
    for spec in _selected(checks):
        if not spec.applies_to(ctx.parts):
            continue
        findings.extend(f for f in spec.run(ctx) if not ctx.suppressed(f))
    return AnalysisResult(findings=tuple(sorted(findings)), files=1)


def analyze_file(path: str | Path,
                 checks: Sequence[str] | None = None) -> AnalysisResult:
    path = Path(path)
    return analyze_source(path.read_text(encoding="utf-8"), str(path),
                          checks=checks)


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` under each path (files are analyzed directly),
    deterministic order."""
    files: list[Path] = []
    for spec in paths:
        p = Path(spec)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return files


def analyze_paths(paths: Sequence[str | Path],
                  checks: Sequence[str] | None = None) -> AnalysisResult:
    """Analyze every ``.py`` under each path."""
    findings: list[Finding] = []
    errors: list[Finding] = []
    files = 0
    for file in iter_python_files(paths):
        result = analyze_file(file, checks=checks)
        findings.extend(result.findings)
        errors.extend(result.errors)
        files += result.files
    return AnalysisResult(findings=tuple(sorted(findings)),
                          errors=tuple(sorted(errors)), files=files)
