"""Autotuner: measure a declared sweep grid, emit winning configs.

This is the config-driven generalization of the Section III-C launch
grid search (E9): instead of one hard-coded (threads/block × blocks/SM)
sweep, it measures any :class:`~repro.bench.sweepconfig.SweepConfig`
grid — launch geometry × kernel × scale per device — and picks
one winner per device by the configured objective:

* ``kernel_ms`` — simulated kernel milliseconds (deterministic, the
  committed ``configs/tuned.json`` uses this);
* ``host_s`` — measured host wall-clock of the same run
  (machine-local).

The winners serialize as ``configs/tuned.json``
(:func:`SweepReport.tuned_doc`), which the serve scheduler consumes via
:class:`repro.serve.tuned.TunedConfigs` — per-device launch/kernel
overrides that change simulated timing, never counts.

:func:`repro.bench.experiments.grid_search` is now a thin wrapper over
:func:`measure_launch_grid` with the paper's grid, so the E9 bench and
the autotuner share one measurement path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from time import perf_counter

from repro.bench.sweepconfig import SweepConfig, SweepPoint
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.errors import ReproError
from repro.graphs.datasets import get
from repro.graphs.edgearray import EdgeArray
from repro.gpusim.device import DEVICES, DeviceSpec
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig
from repro.runtime import kernel_option_field
from repro.utils import env_scale

#: The tuned.json format marker (validated by the serve-side loader).
TUNED_FORMAT = "repro-tuned/v1"


@dataclass(frozen=True)
class SweepRow:
    """One measured grid cell."""

    point: SweepPoint
    kernel_ms: float
    host_s: float
    triangles: int

    def objective_value(self, objective: str) -> float:
        if objective == "kernel_ms":
            return self.kernel_ms
        if objective == "host_s":
            return self.host_s
        raise ReproError(f"unknown objective {objective!r}")

    def summary(self) -> str:
        return (f"{self.point.label():<44} kernel={self.kernel_ms:9.4f} ms "
                f"host={self.host_s:6.3f} s")


@dataclass
class SweepReport:
    """All measured cells of one sweep, plus the skipped ones."""

    config: SweepConfig
    rows: list[SweepRow] = field(default_factory=list)
    #: (point, reason) for launch configs a device cannot run.
    skipped: list[tuple[SweepPoint, str]] = field(default_factory=list)

    def best_per_device(self) -> dict[str, SweepRow]:
        """The winning row per device, by the config's objective.

        Ties break toward the earlier grid point (deterministic: the
        grid expands in declared axis order).
        """
        best: dict[str, SweepRow] = {}
        for row in self.rows:
            cur = best.get(row.point.device)
            if cur is None or (row.objective_value(self.config.objective)
                               < cur.objective_value(self.config.objective)):
                best[row.point.device] = row
        return best

    def tuned_doc(self) -> dict:
        """The ``configs/tuned.json`` document."""
        winners = {}
        for device, row in sorted(self.best_per_device().items()):
            winners[device] = {
                "kernel": row.point.kernel,
                "threads_per_block": row.point.threads_per_block,
                "blocks_per_sm": row.point.blocks_per_sm,
                "kernel_ms": round(row.kernel_ms, 4),
            }
        return {
            "format": TUNED_FORMAT,
            "sweep": {**self.config.doc(),
                      "measured_points": len(self.rows),
                      "skipped_points": len(self.skipped)},
            "devices": winners,
        }

    def write_tuned(self, path: str) -> str:
        """Write :meth:`tuned_doc` to ``path`` (creating directories)."""
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.tuned_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def summary(self) -> str:
        lines = [f"sweep {self.config.name!r} on {self.config.workload}: "
                 f"{len(self.rows)} points measured, "
                 f"{len(self.skipped)} skipped (invalid launch), "
                 f"objective {self.config.objective}"]
        for device, row in sorted(self.best_per_device().items()):
            lines.append(
                f"  {device:<9} -> {row.point.kernel} "
                f"{row.point.threads_per_block}x{row.point.blocks_per_sm} "
                f"({row.kernel_ms:.4f} ms simulated)")
        return "\n".join(lines)


def measure_point(graph: EdgeArray, device: DeviceSpec,
                  point: SweepPoint) -> SweepRow:
    """Measure one grid cell: one full pipeline run on a fresh memory.

    ``kernel_ms`` is the simulated counting-kernel time (the E9 metric);
    ``host_s`` is the measured host wall-clock of the same run.
    """
    options = GpuOptions(kernel=kernel_option_field(point.kernel),
                         launch=LaunchConfig(point.threads_per_block,
                                             point.blocks_per_sm))
    t0 = perf_counter()
    run = gpu_count_triangles(graph, device=device,
                              memory=DeviceMemory(device), options=options)
    host_s = perf_counter() - t0
    return SweepRow(point=point, kernel_ms=run.kernel_timing.kernel_ms,
                    host_s=host_s, triangles=run.triangles)


def measure_launch_grid(graph: EdgeArray, device: DeviceSpec,
                        points: list[SweepPoint],
                        progress=None) -> tuple[list[SweepRow],
                                                list[tuple[SweepPoint, str]]]:
    """Measure ``points`` on one graph/device, skipping invalid launches."""
    rows: list[SweepRow] = []
    skipped: list[tuple[SweepPoint, str]] = []
    for point in points:
        launch = LaunchConfig(point.threads_per_block, point.blocks_per_sm)
        try:
            launch.validate(device)
        except ReproError as exc:
            skipped.append((point, str(exc)))
            continue
        row = measure_point(graph, device, point)
        if progress is not None:
            progress(row)
        rows.append(row)
    return rows, skipped


def run_sweep(config: SweepConfig, progress=None) -> SweepReport:
    """Measure the full grid of ``config``.

    Graphs build once per distinct scale (the workload's default scale ×
    the grid multiplier × ``REPRO_SCALE``); every (device, kernel,
    launch) cell then reuses them.  Triangle counts are
    cross-checked across all cells of a scale — a tuner that changed the
    answer would be measuring a different computation.
    """
    workload = get(config.workload)
    graphs: dict[float, EdgeArray] = {}
    for s in config.scales:
        if s not in graphs:
            graphs[s] = workload.build(
                scale=workload.default_scale * s * env_scale(),
                seed=config.seed)

    report = SweepReport(config=config)
    truth: dict[float, int] = {}
    by_device: dict[str, list[SweepPoint]] = {}
    for point in config.points():
        by_device.setdefault(point.device, []).append(point)
    for device_name, points in by_device.items():
        device = DEVICES[device_name]
        for scale in config.scales:
            scale_points = [p for p in points if p.scale == scale]
            rows, skipped = measure_launch_grid(
                graphs[scale], device, scale_points, progress=progress)
            for row in rows:
                want = truth.setdefault(scale, row.triangles)
                if row.triangles != want:
                    raise ReproError(
                        f"sweep point {row.point.label()} counted "
                        f"{row.triangles} triangles, other points say {want}")
            report.rows.extend(rows)
            report.skipped.extend(skipped)
    if not report.rows:
        raise ReproError(
            f"sweep {config.name!r} measured no points: every grid cell "
            f"was an invalid launch for its device")
    return report
