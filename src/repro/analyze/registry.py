"""Plugin check registry.

A check, to the driver, is: a SAN rule id, a one-line summary, a
severity, the package parts it is exempt in, and a ``run`` callable
over a :class:`~repro.analyze.context.ModuleContext`.  Registering two
checks under one id is a typed error
(:class:`~repro.errors.CheckRegistrationError`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

from repro.analyze.context import ModuleContext
from repro.analyze.findings import SEVERITIES, Finding
from repro.errors import AnalysisError, CheckRegistrationError

_ID_RE = re.compile(r"^SAN\d{3}[a-z]?$")

CheckFn = Callable[[ModuleContext], list[Finding]]


@dataclass(frozen=True)
class CheckSpec:
    """Declarative description of one static check.

    Attributes
    ----------
    id : str
        Rule id (``SAN201``); the suppression and baseline key.
    name : str
        Short slug used in SARIF rule metadata (``static-racecheck``).
    summary : str
        One line for ``--list-rules`` and the docs table.
    severity : str
        ``error`` / ``warning`` / ``note`` — SARIF level; every
        severity gates unless suppressed or baselined.
    run : callable
        ``ModuleContext -> list[Finding]``.
    skip_parts : tuple of str
        Path components (package names) the check is exempt in, e.g.
        SAN101 does not apply inside ``gpusim`` (which *is* the model).
    """

    id: str
    name: str
    summary: str
    severity: str
    run: CheckFn = field(repr=False)
    skip_parts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not _ID_RE.match(self.id):
            raise CheckRegistrationError(
                self.id, "rule ids look like SAN201 or SAN203b")
        if self.severity not in SEVERITIES:
            raise CheckRegistrationError(
                self.id, f"severity {self.severity!r} not in {SEVERITIES}")

    def applies_to(self, parts: tuple[str, ...]) -> bool:
        return not any(part in parts for part in self.skip_parts)

    def finding(self, path: str, node_line: int, node_col: int,
                message: str) -> Finding:
        """A :class:`Finding` stamped with this check's id/severity."""
        return Finding(path=path, line=node_line, col=node_col,
                       rule=self.id, message=message,
                       severity=self.severity)


_REGISTRY: dict[str, CheckSpec] = {}


def register(spec: CheckSpec) -> CheckSpec:
    """Add ``spec`` to the registry (idempotent for the same object);
    a different spec under an existing id is a typed error."""
    existing = _REGISTRY.get(spec.id)
    if existing is not None and existing is not spec:
        raise CheckRegistrationError(
            spec.id, f"check id already registered by {existing.name!r}; "
                     f"refusing to shadow it with {spec.name!r}")
    _REGISTRY[spec.id] = spec
    return spec


def check_ids() -> tuple[str, ...]:
    """Registered rule ids, sorted."""
    return tuple(sorted(_REGISTRY))


def all_checks() -> tuple[CheckSpec, ...]:
    return tuple(_REGISTRY[check_id] for check_id in check_ids())


def get_check(check_id: str) -> CheckSpec:
    spec = _REGISTRY.get(check_id)
    if spec is None:
        raise AnalysisError(
            f"unknown check {check_id!r}; registered: {check_ids()}")
    return spec


def rule_catalog() -> dict[str, str]:
    """id -> one-line summary (the ``--list-rules`` table)."""
    return {spec.id: spec.summary for spec in all_checks()}
