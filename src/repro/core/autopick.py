"""Stats-driven kernel auto-pick: ``GpuOptions(kernel="auto")``.

The intersection strategies trade streaming work for probing work
(merge is O(|A|+|B|) sequential reads; binary-search and hash loop over
the *shorter* list only), so which kernel wins is a property of the
graph's degree structure — skewed graphs hand the probing kernels short
outer loops, dense regular graphs hand merge long overlapping streams.

Rather than hard-coding that folklore, the pick is **measured**:
``repro-bench kernelzoo`` sweeps every registered kernel over a small
zoo of generator graphs spanning the (degree_skew, density) plane and
commits the per-graph timings to ``BENCH_kernelzoo.json``.  This module
loads that calibration, locates the cell nearest the input graph in
range-normalized (degree_skew, density) space, and picks the cell's
fastest kernel among those the launch's options can run.  On the
bench's own graphs the nearest cell is the graph itself, so the pick
equals the measured winner by construction — the property
``tests/test_autopick.py`` pins.

Both statistics are degree-only (:func:`repro.graphs.stats.degree_skew`
/ :func:`~repro.graphs.stats.density` — no triangle counting), so
resolution costs O(V log V) on the host, far below preprocessing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.intersect import strategy_names
from repro.core.options import GpuOptions
from repro.errors import ReproError
from repro.graphs.edgearray import EdgeArray
from repro.graphs.stats import degree_skew, density

#: Schema tag of the committed calibration artifact.
KERNELZOO_FORMAT = "repro-kernelzoo/v1"
#: Environment override for the calibration path.
KERNELZOO_ENV = "REPRO_KERNELZOO"
#: Default artifact name (committed at the repo root by the bench).
KERNELZOO_FILENAME = "BENCH_kernelzoo.json"


@dataclass(frozen=True)
class CalibrationCell:
    """One bench graph: its pick coordinates and measured timings."""

    graph: str
    family: str
    degree_skew: float
    density: float
    #: ``GpuOptions.kernel`` value -> simulated ``kernel_ms``.
    kernel_ms: tuple[tuple[str, float], ...]
    #: argmin of ``kernel_ms`` (name tie-break), as committed.
    winner: str

    def fastest(self, allowed: frozenset[str]) -> str:
        """The cell's fastest kernel among ``allowed`` (ms, then name)."""
        candidates = [(ms, k) for k, ms in self.kernel_ms if k in allowed]
        if not candidates:
            raise ReproError(
                f"calibration cell {self.graph!r} has no timing for any "
                f"of {tuple(sorted(allowed))}; re-run repro-bench kernelzoo")
        return min(candidates)[1]


@dataclass(frozen=True)
class KernelZooCalibration:
    """The parsed ``BENCH_kernelzoo.json``."""

    source: str
    device: str
    cells: tuple[CalibrationCell, ...]

    @classmethod
    def from_doc(cls, doc: dict,
                 source: str = "<doc>") -> "KernelZooCalibration":
        if not isinstance(doc, dict) or doc.get("format") != KERNELZOO_FORMAT:
            raise ReproError(
                f"{source}: expected a {KERNELZOO_FORMAT!r} document, got "
                f"format={doc.get('format') if isinstance(doc, dict) else doc!r}")
        cells = []
        for i, raw in enumerate(doc.get("cells", [])):
            try:
                kernel_ms = tuple(sorted(
                    (str(k), float(v["kernel_ms"]))
                    for k, v in raw["kernels"].items()))
                cells.append(CalibrationCell(
                    graph=str(raw["graph"]), family=str(raw["family"]),
                    degree_skew=float(raw["degree_skew"]),
                    density=float(raw["density"]),
                    kernel_ms=kernel_ms, winner=str(raw["winner"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"{source}: cells[{i}] is malformed ({exc!r}); "
                    f"regenerate with repro-bench kernelzoo") from exc
        if not cells:
            raise ReproError(f"{source}: calibration has no cells")
        return cls(source=source, device=str(doc.get("device", "?")),
                   cells=tuple(cells))

    @classmethod
    def load(cls, path: str | Path | None = None) -> "KernelZooCalibration":
        """Load from ``path``, or from the standard search locations."""
        if path is None:
            path = find_calibration_file()
            if path is None:
                raise ReproError(
                    "kernel='auto' needs the kernelzoo calibration, but no "
                    f"{KERNELZOO_FILENAME} was found (searched "
                    f"${KERNELZOO_ENV}, the working directory, and the repo "
                    "root); generate one with `repro-bench kernelzoo --out "
                    f"{KERNELZOO_FILENAME}` or pick a kernel explicitly")
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"cannot read kernelzoo calibration {path}: {exc}") from exc
        return cls.from_doc(doc, source=str(path))

    def nearest(self, skew: float, dens: float) -> CalibrationCell:
        """The cell closest in range-normalized coordinate space.

        Each axis is scaled by the calibration's own spread so neither
        statistic dominates; ties resolve to the first cell in file
        order (deterministic for a fixed artifact).
        """
        skews = [c.degree_skew for c in self.cells]
        denss = [c.density for c in self.cells]
        s_span = (max(skews) - min(skews)) or 1.0
        d_span = (max(denss) - min(denss)) or 1.0
        return min(self.cells, key=lambda c: (
            ((c.degree_skew - skew) / s_span) ** 2
            + ((c.density - dens) / d_span) ** 2))


_CALIBRATION_CACHE: dict[str, KernelZooCalibration] = {}


def find_calibration_file() -> Path | None:
    """``$REPRO_KERNELZOO`` > working directory > repo root, else None."""
    env = os.environ.get(KERNELZOO_ENV)
    if env:
        return Path(env)
    for root in (Path.cwd(), Path(__file__).resolve().parents[3]):
        candidate = root / KERNELZOO_FILENAME
        if candidate.is_file():
            return candidate
    return None


def load_calibration(path: str | Path | None = None) -> KernelZooCalibration:
    """:meth:`KernelZooCalibration.load` with a per-path cache (the
    serve scheduler resolves per job; re-parsing per launch would be
    pure waste)."""
    if path is None:
        path = find_calibration_file()
    if path is None:
        return KernelZooCalibration.load(None)  # raises the typed error
    key = str(Path(path).resolve())
    cal = _CALIBRATION_CACHE.get(key)
    if cal is None:
        cal = KernelZooCalibration.load(path)
        _CALIBRATION_CACHE[key] = cal
    return cal


def allowed_kernels(options: GpuOptions) -> frozenset[str]:
    """The ``GpuOptions.kernel`` values this launch could legally run.

    Every strategy, minus ``warp_intersect`` when the layout is AoS (it
    requires SoA columns) — mirroring the eager validation in
    :class:`~repro.core.options.GpuOptions`.
    """
    fields = set(strategy_names())
    if not options.unzip:
        fields.discard("warp_intersect")
    return frozenset(fields)


def pick_kernel(graph: EdgeArray,
                options: GpuOptions = GpuOptions(),
                calibration: KernelZooCalibration | None = None) -> str:
    """The measured-fastest kernel for ``graph`` (a ``GpuOptions.kernel``
    value, never ``"auto"``)."""
    if calibration is None:
        calibration = load_calibration()
    cell = calibration.nearest(degree_skew(graph), density(graph))
    return cell.fastest(allowed_kernels(options))


def resolve_options(graph: EdgeArray,
                    options: GpuOptions,
                    calibration: KernelZooCalibration | None = None,
                    ) -> GpuOptions:
    """``options`` with ``kernel="auto"`` replaced by the measured pick.

    A no-op for any explicit kernel — safe to call unconditionally at
    every graph-level pipeline entry point.
    """
    if options.kernel != "auto":
        return options
    return options.but(kernel=pick_kernel(graph, options, calibration))
