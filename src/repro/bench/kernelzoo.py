"""Kernel-zoo sweep: every registered intersection kernel over a graph
zoo spanning the (degree_skew, density) plane.

This is the *calibration source* of ``GpuOptions(kernel="auto")``:
``repro-bench kernelzoo`` measures every sweepable kernel's simulated
``kernel_ms`` on each zoo graph, records the per-graph winner, and
commits the result as ``BENCH_kernelzoo.json``.
:mod:`repro.core.autopick` then picks kernels for *new* graphs by
nearest-neighbour lookup in (degree_skew, density) space — so the pick
is measured, not folklore, and regenerating the file after a timing-
model change re-derives the whole policy.

Two contracts are gated here:

* **identity** — every kernel reports the same triangle count on every
  zoo graph (the registry-wide bit-exactness promise);
* **self-consistency** — on the bench's own graphs the auto-pick must
  return the committed winner (the nearest cell is the graph itself, so
  anything else means the lookup or the artifact is broken).

Every quantity is *simulated* milliseconds — deterministic for a fixed
(zoo, seed) — so the tier-1 tests re-run the sweep and hold it to the
committed file with :func:`repro.bench.reproduce.committed_drift`, like
``BENCH_overlap.json``.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass

import numpy as np

from repro.core.autopick import (KERNELZOO_FORMAT, KernelZooCalibration,
                                 allowed_kernels, pick_kernel)
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.graphs.edgearray import EdgeArray
from repro.graphs.generators import (barabasi_albert, complete_graph,
                                     configuration_model, erdos_renyi_gnm,
                                     powerlaw_degree_sequence, rmat,
                                     watts_strogatz)
from repro.graphs.stats import degree_skew, density


def _zoo(seed: int) -> tuple[tuple[str, str, EdgeArray], ...]:
    """The calibration graphs: (name, family, graph) spanning the
    (degree_skew, density) plane.

    Families, not sizes, are the point: BA and R-MAT give heavy tails
    at two densities, G(n,m) and Watts–Strogatz give flat degree
    distributions, and the complete graph pins the density=1, skew=0
    corner.  All are small enough that the zoo sweeps in seconds at CI
    scale.
    """
    return (
        ("ba_sparse", "ba", barabasi_albert(600, 8, seed=seed)),
        ("ba_dense", "ba", barabasi_albert(300, 24, seed=seed + 1)),
        ("rmat_s9", "rmat", rmat(9, seed=seed + 2)),
        ("gnm_flat", "gnm", erdos_renyi_gnm(600, 4800, seed=seed + 3)),
        ("ws_ring", "ws", watts_strogatz(600, 16, 0.05, seed=seed + 4)),
        ("config_pl", "config", configuration_model(
            powerlaw_degree_sequence(1500, 2.1, seed=seed + 5),
            seed=seed + 5)),
        ("complete", "complete", complete_graph(96)),
    )


@dataclass
class ZooCell:
    """One zoo graph's full kernel sweep."""

    graph: str
    family: str
    nodes: int
    arcs: int
    triangles: int
    degree_skew: float
    density: float
    #: ``GpuOptions.kernel`` value -> simulated kernel_ms.
    kernel_ms: dict[str, float]
    winner: str
    #: counts agreed across every kernel (the identity gate).
    identical: bool

    def to_json(self) -> dict:
        return {
            "graph": self.graph,
            "family": self.family,
            "nodes": self.nodes,
            "arcs": self.arcs,
            "triangles": self.triangles,
            "degree_skew": round(self.degree_skew, 6),
            "density": round(self.density, 6),
            "kernels": {k: {"kernel_ms": ms}
                        for k, ms in sorted(self.kernel_ms.items())},
            "winner": self.winner,
            "identical": self.identical,
        }

    def summary(self) -> str:
        timings = " ".join(f"{k}={ms:8.4f}ms"
                           for k, ms in sorted(self.kernel_ms.items()))
        return (f"{self.graph:<10} skew={self.degree_skew:5.2f} "
                f"dens={self.density:6.4f} {timings} "
                f"winner={self.winner} identical={self.identical}")


@dataclass
class KernelZooReport:
    """The full sweep — what ``BENCH_kernelzoo.json`` serializes."""

    cells: list
    device: str
    seed: int

    def to_json(self) -> dict:
        return {
            "format": KERNELZOO_FORMAT,
            "benchmark": "kernelzoo",
            "device": self.device,
            "seed": self.seed,
            "host": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "cells": [c.to_json() for c in self.cells],
        }

    def json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"

    def calibration(self) -> KernelZooCalibration:
        """This report as the calibration the auto-pick consumes."""
        return KernelZooCalibration.from_doc(self.to_json(),
                                             source="<kernelzoo run>")

    def problems(self) -> list[str]:
        """The acceptance gates (empty = every contract held)."""
        out = []
        for c in self.cells:
            if not c.identical:
                out.append(f"{c.graph}: kernels disagreed on the triangle "
                           "count")
        # Self-consistency: the pick on a zoo graph is that graph's own
        # measured winner (nearest cell at distance zero).
        cal = self.calibration()
        for name, _family, graph in _zoo(self.seed):
            cell = next(c for c in self.cells if c.graph == name)
            picked = pick_kernel(graph, GpuOptions(kernel="auto"),
                                 calibration=cal)
            if picked != cell.winner:
                out.append(f"{name}: auto-pick chose {picked!r}, measured "
                           f"winner is {cell.winner!r}")
        return out

    def format_report(self) -> str:
        lines = [f"==BENCH== kernelzoo (device={self.device}, "
                 f"seed={self.seed})"]
        for c in self.cells:
            lines.append("  " + c.summary())
        return "\n".join(lines) + "\n"


def run_zoo_cell(name: str, family: str, graph: EdgeArray, *,
                 device_name: str = "gtx980") -> ZooCell:
    """Sweep every sweepable kernel over one graph (default options, so
    the SoA layout is on and ``warp_intersect`` participates)."""
    from repro.gpusim.device import DEVICES

    device = DEVICES[device_name]
    base = GpuOptions()
    kernel_ms: dict[str, float] = {}
    counts: dict[str, int] = {}
    for field in sorted(allowed_kernels(base)):
        run = gpu_count_triangles(graph, device=device,
                                  options=base.but(kernel=field))
        kernel_ms[field] = run.kernel_timing.kernel_ms
        counts[field] = run.triangles
    winner = min((ms, k) for k, ms in kernel_ms.items())[1]
    triangles = next(iter(counts.values()))
    return ZooCell(
        graph=name, family=family, nodes=graph.num_nodes,
        arcs=graph.num_arcs, triangles=triangles,
        degree_skew=degree_skew(graph), density=density(graph),
        kernel_ms=kernel_ms, winner=winner,
        identical=len(set(counts.values())) == 1)


def run_kernelzoo(*, seed: int = 0, device_name: str = "gtx980",
                  progress=None) -> KernelZooReport:
    """Run the full zoo sweep."""
    cells = []
    for name, family, graph in _zoo(seed):
        cell = run_zoo_cell(name, family, graph, device_name=device_name)
        cells.append(cell)
        if progress is not None:
            progress(cell)
    return KernelZooReport(cells=cells, device=device_name, seed=seed)
