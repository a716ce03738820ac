"""Config-file experiment sweeps: the declarative grid schema.

A sweep is a TOML (or JSON) file describing a full experiment grid —
launch geometry × kernel × scale per device — that the
autotuner (:mod:`repro.bench.autotune`) measures point by point.  The
point of declarativity (the Wang/Owens comparative-study lesson, see
PAPERS.md) is that a kernel/launch choice only means something when the
whole grid it won is regenerable from one committed file:
``configs/sweep.toml`` is that file, and ``configs/tuned.json`` is its
winning-per-device output, which the serve scheduler consumes
(:mod:`repro.serve.tuned`).

Schema (annotated example in ``docs/reproducibility.md``)::

    [sweep]
    name = "paper-grid"        # free-form label (stamped into tuned.json)
    workload = "kron17"        # graphs.datasets registry name
    seed = 0                   # graph-build RNG seed
    objective = "kernel_ms"    # "kernel_ms" (simulated) | "host_s" (wall)

    [grid]                     # every list is one grid axis
    device = ["gtx980", "c2050"]
    kernel = ["merge", "warp_intersect"]
    threads_per_block = [32, 64, 256, 1024]
    blocks_per_sm = [1, 2, 8, 16]
    scale = [1.0]              # multiplier on the workload default scale

    [emit]
    tuned = "configs/tuned.json"   # optional: where autotune writes winners

Every schema violation raises a typed
:class:`~repro.errors.SweepConfigError` whose ``key`` attribute names
the offending entry (``"grid.kernel"``, ``"sweep.objective"``, ...) —
never a silent default, never a bare ``KeyError``.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from repro.errors import SweepConfigError
from repro.gpusim.device import DEVICES

#: Kernels a sweep may grid over: the registry names whose launches go
#: through the plain counting pipeline (``local`` needs the per-vertex
#: accumulator path and is not a tuning candidate).
SWEEP_KERNELS = ("merge", "warp_intersect")
#: Autotune objectives: simulated kernel milliseconds (deterministic) or
#: measured host seconds of the same run (machine-dependent).
OBJECTIVES = ("kernel_ms", "host_s")


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the expanded grid."""

    device: str
    kernel: str
    threads_per_block: int
    blocks_per_sm: int
    scale: float

    def label(self) -> str:
        return (f"{self.device}/{self.kernel} "
                f"{self.threads_per_block}x{self.blocks_per_sm} "
                f"scale={self.scale:g}")


@dataclass(frozen=True)
class SweepConfig:
    """A validated sweep file (see the module docstring for the schema)."""

    name: str
    workload: str
    seed: int
    objective: str
    devices: tuple[str, ...]
    kernels: tuple[str, ...]
    threads_per_block: tuple[int, ...]
    blocks_per_sm: tuple[int, ...]
    scales: tuple[float, ...]
    emit_tuned: str | None = None

    def points(self) -> list[SweepPoint]:
        """Expand the full grid, in deterministic axis order."""
        return [SweepPoint(d, k, tpb, bps, s)
                for d, k, tpb, bps, s in itertools.product(
                    self.devices, self.kernels, self.threads_per_block,
                    self.blocks_per_sm, self.scales)]

    def doc(self) -> dict:
        """JSON-ready echo of the config (stamped into tuned.json)."""
        return {
            "name": self.name,
            "workload": self.workload,
            "seed": self.seed,
            "objective": self.objective,
            "grid": {
                "device": list(self.devices),
                "kernel": list(self.kernels),
                "threads_per_block": list(self.threads_per_block),
                "blocks_per_sm": list(self.blocks_per_sm),
                "scale": list(self.scales),
            },
        }


# ---------------------------------------------------------------------- #
# parsing
# ---------------------------------------------------------------------- #

_SWEEP_KEYS = ("name", "workload", "seed", "objective")
_GRID_KEYS = ("device", "kernel", "threads_per_block", "blocks_per_sm",
              "scale")
_EMIT_KEYS = ("tuned",)


def _parse_toml_value(raw: str, key: str):
    """One scalar or flat array (the fallback parser's value grammar)."""
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_toml_value(part, key)
                for part in inner.split(",") if part.strip()]
    if (raw.startswith('"') and raw.endswith('"') and len(raw) >= 2) or \
       (raw.startswith("'") and raw.endswith("'") and len(raw) >= 2):
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise SweepConfigError(key, f"cannot parse TOML value {raw!r}")


def _strip_comment(raw: str) -> str:
    """Drop a trailing ``#`` comment, honouring quoted strings."""
    quote = None
    for i, ch in enumerate(raw):
        if quote:
            if ch == quote:
                quote = None
        elif ch in ('"', "'"):
            quote = ch
        elif ch == "#":
            return raw[:i]
    return raw


def _parse_toml_minimal(text: str) -> dict:
    """Flat-table TOML subset: ``[section]`` headers, ``key = value``
    lines, scalars and one-line arrays, ``#`` comments.

    Python 3.11+ uses the stdlib :mod:`tomllib`; this fallback keeps the
    sweep schema loadable on 3.10 without adding a dependency (the
    schema deliberately needs nothing deeper).
    """
    doc: dict = {}
    section = doc
    section_name = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section_name = stripped[1:-1].strip()
            section = doc.setdefault(section_name, {})
            continue
        if "=" not in stripped:
            raise SweepConfigError(
                f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        value = _strip_comment(raw)
        dotted = f"{section_name}.{key.strip()}" if section_name else key.strip()
        section[key.strip()] = _parse_toml_value(value, dotted)
    return doc


def _load_doc(path: str) -> dict:
    if not os.path.exists(path):
        raise SweepConfigError(path, "sweep config file does not exist")
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        try:
            return json.loads(data.decode("utf-8"))
        except json.JSONDecodeError as exc:
            raise SweepConfigError(path, f"invalid JSON: {exc}") from exc
    try:
        import tomllib
    except ModuleNotFoundError:            # Python 3.10
        return _parse_toml_minimal(data.decode("utf-8"))
    try:
        return tomllib.loads(data.decode("utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise SweepConfigError(path, f"invalid TOML: {exc}") from exc


def _check_keys(table: dict, section: str, allowed: tuple[str, ...]) -> None:
    for key in table:
        if key not in allowed:
            raise SweepConfigError(
                f"{section}.{key}",
                f"unknown key (valid {section} keys: {', '.join(allowed)})")


def _str_list(table: dict, section: str, key: str, default: list,
              valid: tuple[str, ...] | None, what: str) -> tuple[str, ...]:
    raw = table.get(key, default)
    dotted = f"{section}.{key}"
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not raw or \
            not all(isinstance(v, str) for v in raw):
        raise SweepConfigError(dotted, f"expected a non-empty list of "
                                       f"strings, got {raw!r}")
    if valid is not None:
        for v in raw:
            if v not in valid:
                raise SweepConfigError(
                    dotted, f"unknown {what} {v!r} "
                            f"(valid: {', '.join(valid)})")
    return tuple(raw)


def _num_list(table: dict, section: str, key: str, default: list,
              kind=int) -> tuple:
    raw = table.get(key, default)
    dotted = f"{section}.{key}"
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = [raw]
    ok = isinstance(raw, list) and bool(raw) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    if not ok:
        raise SweepConfigError(dotted, f"expected a non-empty list of "
                                       f"numbers, got {raw!r}")
    values = tuple(kind(v) for v in raw)
    if any(v <= 0 for v in values):
        raise SweepConfigError(dotted, f"values must be positive, got {raw!r}")
    return values


def validate_sweep_doc(doc: dict, source: str = "<doc>") -> SweepConfig:
    """Validate a parsed sweep document into a :class:`SweepConfig`.

    Every violation is a :class:`SweepConfigError` naming the bad key.
    """
    from repro.graphs.datasets import WORKLOADS

    if not isinstance(doc, dict):
        raise SweepConfigError(source, f"expected a table, got {type(doc)}")
    for section in doc:
        if section not in ("sweep", "grid", "emit"):
            raise SweepConfigError(
                section, "unknown section (valid: sweep, grid, emit)")
    sweep = doc.get("sweep", {})
    grid = doc.get("grid", {})
    emit = doc.get("emit", {})
    for name, table in (("sweep", sweep), ("grid", grid), ("emit", emit)):
        if not isinstance(table, dict):
            raise SweepConfigError(name, f"expected a table, got {table!r}")
    _check_keys(sweep, "sweep", _SWEEP_KEYS)
    _check_keys(grid, "grid", _GRID_KEYS)
    _check_keys(emit, "emit", _EMIT_KEYS)

    label = sweep.get("name", "sweep")
    if not isinstance(label, str):
        raise SweepConfigError("sweep.name", f"expected a string, got {label!r}")
    workload = sweep.get("workload", "kron17")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        raise SweepConfigError(
            "sweep.workload", f"unknown workload {workload!r} "
                              f"(valid: {', '.join(WORKLOADS)})")
    seed = sweep.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SweepConfigError("sweep.seed", f"expected an int, got {seed!r}")
    objective = sweep.get("objective", "kernel_ms")
    if objective not in OBJECTIVES:
        raise SweepConfigError(
            "sweep.objective", f"unknown objective {objective!r} "
                               f"(valid: {', '.join(OBJECTIVES)})")

    devices = _str_list(grid, "grid", "device", ["gtx980"],
                        tuple(DEVICES), "device")
    kernels = _str_list(grid, "grid", "kernel", ["merge"],
                        SWEEP_KERNELS, "kernel")
    tpb = _num_list(grid, "grid", "threads_per_block", [64], int)
    bps = _num_list(grid, "grid", "blocks_per_sm", [8], int)
    scales = _num_list(grid, "grid", "scale", [1.0], float)
    if any(s > 1.0 for s in scales):
        raise SweepConfigError(
            "grid.scale", f"scale multipliers must be <= 1.0 "
                          f"(fractions of the workload default), got {scales}")

    tuned = emit.get("tuned")
    if tuned is not None and not isinstance(tuned, str):
        raise SweepConfigError("emit.tuned", f"expected a path string, "
                                             f"got {tuned!r}")

    return SweepConfig(name=label, workload=workload, seed=seed,
                       objective=objective, devices=devices, kernels=kernels,
                       threads_per_block=tpb,
                       blocks_per_sm=bps, scales=scales, emit_tuned=tuned)


def load_sweep_config(path: str) -> SweepConfig:
    """Load and validate a sweep config file (TOML or JSON)."""
    return validate_sweep_doc(_load_doc(path), source=path)
