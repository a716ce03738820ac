"""One-command reproduction bundle: ``scripts/reproduce_all``.

One invocation regenerates every headline artifact of the reproduction —
Table I, Table II, Figure 1, a check of every other E1–E16 claim of the
paper's evaluation, the ``==SERVE==`` report, the serve-scale overload
bench and a static-analysis log — and writes the lot into one output
directory:

* ``summary.json`` — machine-readable: every measured number next to
  the paper's quoted band or the claim's bound, with an explicit
  pass/fail per check;
* ``report.md`` — the same content rendered for humans;
* ``manifest.json`` — environment/seed manifest (Python, numpy,
  platform, git SHA, ``REPRO_SCALE``, per-experiment RNG seeds);
* the per-experiment files (``table1.csv``, ``figure1.csv``,
  ``BENCH_serve.json``, ``serve_jobs.csv``, ``analysis.sarif``) — see
  ``ARTIFACTS.md`` for each file's schema.

Two presets: ``full`` reproduces the committed artifacts (all 13
Table I rows, the committed bench configs); ``tiny`` is the CI smoke
profile (quarter scale, a 6-row subset, short traces) that exercises
every code path in well under a minute.

Determinism contract: everything simulated is bit-reproducible for a
fixed (preset, seed, ``REPRO_SCALE``); host wall-clock numbers and
timestamps are not, and are confined to the keys in
:data:`VOLATILE_KEYS` so :func:`deterministic_doc` can strip them —
two runs of the same preset agree byte-for-byte on the stripped
document (``tests/test_reproduce.py`` pins this).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from repro.bench import experiments, figures, tables
from repro.bench.calibration import (CLAIM_BOUNDS,
                                     EQUIVALENCE_THREADS_PER_SM,
                                     GPU_LAUNCH_FLOOR_MS, Bound,
                                     ClaimCheck, check_daggers, claim,
                                     row_checks)
from repro.bench.related import compare_with_green, compare_with_leist
from repro.bench.runner import RowResult, run_table1, scaled_setup
from repro.bench.serve_scale import report_doc, run_serve_scale
from repro.bench.sweep import scale_sweep
from repro.core.distributed import distributed_count_triangles
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.multi_gpu import multi_gpu_count_triangles
from repro.core.options import GpuOptions
from repro.errors import OutOfDeviceMemoryError
from repro.graphs.datasets import get, kronecker_names
from repro.gpusim.device import GTX_980, NVS_5200M, TESLA_C2050
from repro.gpusim.memory import DeviceMemory
from repro.utils import env_scale

#: summary.json format marker (bump on breaking schema changes).
SUMMARY_FORMAT = "repro-summary/v1"

#: Keys whose values are host-machine- or time-of-day-dependent.  They
#: are the *only* nondeterministic content in the bundle;
#: :func:`deterministic_doc` strips them so byte-identity across runs is
#: testable.  ``identical``/band verdicts never live under these keys.
VOLATILE_KEYS = frozenset({"generated_at", "git_sha"})

#: Committed baseline the ``full`` preset regression-checks against.
SERVE_BASELINE = "BENCH_serve.json"

#: Relative difference :func:`committed_drift` allows a float: every
#: figure in a committed BENCH document is simulated and deterministic,
#: so this absorbs float-formatting noise only.
DRIFT_REL_TOL = 1e-6

#: Every file the bundle writes: filename -> (producer, description).
#: ``ARTIFACTS.md`` documents the same inventory; a test pins the two
#: against each other so the docs cannot drift.
ARTIFACT_FILES: dict[str, tuple[str, str]] = {
    "manifest.json": (
        "repro.bench.reproduce.environment_manifest",
        "environment/seed manifest: versions, git SHA, scale, RNG seeds"),
    "summary.json": (
        "repro.bench.reproduce.run_reproduce",
        "machine-readable results: measured values vs paper bands, "
        "pass/fail per check"),
    "report.md": (
        "repro.bench.reproduce.render_report",
        "human-readable rendering of summary.json"),
    "table1.csv": (
        "repro.bench.tables.table1_csv",
        "Table I rows, paper vs measured, one line per workload"),
    "figure1.csv": (
        "repro.bench.figures.figure1_csv",
        "Figure 1 series points (nodes vs ms per device)"),
    "BENCH_serve.json": (
        "repro.bench.serve_scale.ServeScaleResult.json_str",
        "serve-scale overload bench, seed vs control-plane replays"),
    "serve_jobs.csv": (
        "repro.serve.metrics.ServeReport.jobs_csv",
        "per-job ledger of the primary serving replay"),
    "analysis.sarif": (
        "repro.analyze.run.run_repo_analysis",
        "static-analysis findings (SARIF 2.1.0) of the analyzed trees, "
        "baseline-gated"),
}


# ---------------------------------------------------------------------- #
# presets
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Preset:
    """One reproduction profile (see module docstring)."""

    name: str
    #: extra multiplier applied on top of the ambient ``REPRO_SCALE``.
    factor: float
    #: Table I rows to run (``None`` = the full 13-row set).
    table1_workloads: tuple[str, ...] | None
    configs: tuple[str, ...]
    serve_duration_ms: float
    serve_scale_duration_ms: float
    #: compare against the committed BENCH_*.json files (only meaningful
    #: when the run uses the committed configs, i.e. the full preset).
    compare_baselines: bool


FULL = Preset(
    name="full", factor=1.0, table1_workloads=None,
    configs=("c2050", "quad", "gtx980"),
    serve_duration_ms=60_000.0, serve_scale_duration_ms=30_000.0,
    compare_baselines=True)

TINY = Preset(
    name="tiny", factor=0.25,
    table1_workloads=("ba", "ws", "internet", "kron16", "kron17", "kron18"),
    configs=("c2050", "quad", "gtx980"),
    serve_duration_ms=10_000.0, serve_scale_duration_ms=10_000.0,
    compare_baselines=False)

PRESETS = {p.name: p for p in (TINY, FULL)}


@contextmanager
def scaled(factor: float):
    """Multiply the ambient ``REPRO_SCALE`` by ``factor`` for the block."""
    if factor == 1.0:
        yield
        return
    old = os.environ.get("REPRO_SCALE")
    os.environ["REPRO_SCALE"] = repr(env_scale() * factor)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_SCALE", None)
        else:
            os.environ["REPRO_SCALE"] = old


# ---------------------------------------------------------------------- #
# manifest + determinism
# ---------------------------------------------------------------------- #

def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_manifest(preset: Preset, seed: int) -> dict:
    """The seed/environment ledger stamped into every artifact set.

    Must be called *inside* the :func:`scaled` context so ``env_scale``
    records the effective scale the experiments actually ran at.
    """
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "preset": preset.name,
        "scale_factor": preset.factor,
        "env_scale": env_scale(),
        "seeds": {
            "table1": seed, "figure1": seed, "serve": seed,
            "serve_scale": seed,
        },
    }


def _np_default(obj):
    """json.dumps fallback for numpy scalars (counters, counts)."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True,
                      default=_np_default) + "\n"


def deterministic_doc(doc):
    """``doc`` with every :data:`VOLATILE_KEYS` entry removed,
    recursively — the byte-reproducible core of the bundle."""
    if isinstance(doc, dict):
        return {k: deterministic_doc(v) for k, v in doc.items()
                if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [deterministic_doc(v) for v in doc]
    return doc


def committed_drift(fresh, committed, path: str = "$") -> list[str]:
    """Every difference between a freshly generated BENCH document and
    the committed one, each named by its JSON path.

    ``host`` and :data:`VOLATILE_KEYS` entries are skipped; floats may
    differ by :data:`DRIFT_REL_TOL` relative; every other value must be
    equal, type included.  A difference means the timing model, a
    schedule or a workload changed: regenerate the committed file
    deliberately if that was intended.
    """
    if isinstance(fresh, dict) and isinstance(committed, dict):
        out = []
        for key in dict.fromkeys([*committed, *fresh]):
            if key == "host" or key in VOLATILE_KEYS:
                continue
            sub = f"{path}.{key}"
            if key not in fresh:
                out.append(f"{sub}: missing from the fresh run")
            elif key not in committed:
                out.append(f"{sub}: not in the committed document")
            else:
                out += committed_drift(fresh[key], committed[key], sub)
        return out
    if isinstance(fresh, list) and isinstance(committed, list):
        out = []
        if len(fresh) != len(committed):
            out.append(f"{path}: {len(fresh)} item(s), committed "
                       f"{len(committed)}")
        for i, (a, b) in enumerate(zip(fresh, committed)):
            out += committed_drift(a, b, f"{path}[{i}]")
        return out
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (fresh, committed))
    if numbers and (isinstance(fresh, float) or isinstance(committed, float)):
        same = math.isclose(fresh, committed, rel_tol=DRIFT_REL_TOL)
    else:
        same = type(fresh) is type(committed) and fresh == committed
    return [] if same else [f"{path}: {fresh!r} != committed {committed!r}"]


# ---------------------------------------------------------------------- #
# sections
# ---------------------------------------------------------------------- #

def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _row_doc(row: RowResult) -> dict:
    """One Table I/II row: measured values next to the published ones."""
    paper = row.workload.paper
    return {
        "workload": row.workload.name,
        "kind": row.workload.kind,
        "scale": row.scale,
        "nodes": row.num_nodes,
        "arcs": row.num_arcs,
        "triangles": row.triangles,
        "measured": {
            "cpu_ms": round(row.cpu_ms, 4),
            "c2050_ms": round(row.c2050.total_ms, 4) if row.c2050 else None,
            "quad_ms": round(row.quad.total_ms, 4) if row.quad else None,
            "gtx980_ms": round(row.gtx980.total_ms, 4) if row.gtx980 else None,
            "c2050_speedup": round(row.c2050_speedup, 4),
            "quad_speedup": round(row.quad_speedup, 4),
            "gtx980_speedup": round(row.gtx980_speedup, 4),
            "cache_hit_pct": round(row.cache_hit_pct, 4),
            "bandwidth_gbs": round(row.bandwidth_gbs, 4),
            "dagger_c2050": row.dagger_c2050,
            "dagger_quad": row.dagger_quad,
        },
        "paper": {
            "cpu_ms": paper.cpu_ms,
            "c2050_ms": paper.c2050_ms,
            "quad_ms": paper.quad_ms,
            "gtx980_ms": paper.gtx980_ms,
            "c2050_speedup": paper.c2050_speedup,
            "quad_speedup": paper.quad_speedup,
            "gtx980_speedup": paper.gtx980_speedup,
            "cache_hit_pct": paper.cache_hit_pct,
            "bandwidth_gbs": paper.bandwidth_gbs,
            "dagger_c2050": paper.dagger_c2050,
            "dagger_quad": paper.dagger_quad,
        },
    }


def checks_ok(checks: list[dict]) -> bool:
    """Did every applicable band or claim check pass?"""
    return all(c["passed"] for c in checks if c["applies"])


def _table1_section(rows: list[RowResult]) -> dict:
    checks = [c.to_json() for r in rows for c in row_checks(r)]
    dagger_problems = check_daggers(rows)
    return {
        "rows": [_row_doc(r) for r in rows],
        "band_checks": checks,
        "dagger_problems": dagger_problems,
        "ok": checks_ok(checks) and not dagger_problems,
    }


def _figure1_section(kron_rows: list[RowResult]) -> dict:
    from repro.bench.calibration import MIN_ARCS_FOR_SPEEDUP_BANDS

    # Shape claims (CPU slowest, monotone growth, widening quad gain)
    # only hold outside the fixed-overhead regime — same gate as the
    # Table I speedup bands.  Tiny-preset graphs may all fall below it;
    # the section then reports applies=False rather than fake failures.
    in_regime = [r for r in kron_rows
                 if r.num_arcs >= MIN_ARCS_FOR_SPEEDUP_BANDS]
    applies = len(in_regime) >= 3
    problems = figures.check_figure1_shape(in_regime) if applies else []
    return {
        "series": {name: [[nodes, round(ms, 4)] for nodes, ms in pts]
                   for name, pts in figures.series_points(kron_rows).items()},
        "points": len(kron_rows),
        "points_in_regime": len(in_regime),
        "applies": applies,
        "shape_problems": problems,
        "ok": not problems,
    }


# ---------------------------------------------------------------------- #
# claims: every E1–E16 assertion beyond the Table I bands
# ---------------------------------------------------------------------- #

def _ooms(run) -> bool:
    """Does ``run()`` overflow device memory?"""
    try:
        run()
    except OutOfDeviceMemoryError:
        return True
    return False


def _table_claims(rows: list[RowResult], kron_rows: list[RowResult],
                  figure_applies: bool) -> list[ClaimCheck]:
    """E1–E3 claims over the Table I rows the bundle already ran."""
    out = []
    dram_bound_rows = 0
    for r in rows:
        name = r.workload.name
        # A GPU cannot win while the CPU finishes inside its fixed launch
        # cost, so the speedup claims start above that floor.
        beatable = r.cpu_ms > GPU_LAUNCH_FLOOR_MS
        floor = (f"CPU {r.cpu_ms:.3f} ms (speedups checked above the "
                 f"{GPU_LAUNCH_FLOOR_MS:.3f} ms GPU launch floor)")
        out += [
            claim("e1_counts_triangles", name, r.triangles,
                  f"{name}: {r.triangles:,} triangles"),
            claim("e1_c2050_beats_cpu", name, r.c2050_speedup,
                  f"{name}: C2050 {r.c2050_speedup:.2f}x over the CPU; "
                  f"{floor}", applies=beatable),
            claim("e1_gtx980_beats_cpu", name, r.gtx980_speedup,
                  f"{name}: GTX 980 {r.gtx980_speedup:.2f}x over the CPU; "
                  f"{floor}", applies=beatable),
            claim("e1_gtx980_beats_c2050", name,
                  r.gtx980_speedup / r.c2050_speedup,
                  f"{name}: GTX 980 {r.gtx980_speedup:.2f}x vs C2050 "
                  f"{r.c2050_speedup:.2f}x; {floor}", applies=beatable),
        ]
        if r.gtx980.kernel_timing.bound == "dram":
            dram_bound_rows += 1

    ba = next(r for r in rows if r.workload.name == "ba")
    lowest_other = min(r.cache_hit_pct for r in rows if r is not ba)
    out += [
        claim("e2_ba_worst_cache_hit", "ba",
              ba.cache_hit_pct - lowest_other,
              f"ba hit rate {ba.cache_hit_pct:.1f}%, lowest other row "
              f"{lowest_other:.1f}%"),
        claim("e2_dram_bound_rows", "all", dram_bound_rows,
              f"{dram_bound_rows} of {len(rows)} rows DRAM-bound on the "
              f"GTX 980 (counted from 8 rows)",
              applies=len(rows) >= 8),
    ]

    first, last = kron_rows[0], kron_rows[-1]
    span = f"{first.workload.name}-{last.workload.name}"
    size = last.num_arcs / first.num_arcs
    cpu = last.cpu_ms / first.cpu_ms
    gtx = last.gtx980.total_ms / first.gtx980.total_ms
    growth = (f"{span}: arcs {size:.1f}x, CPU {cpu:.1f}x, GTX 980 "
              f"{gtx:.1f}x (checked with Figure 1's shape)")
    out += [
        claim("e3_size_growth", span, size, growth, applies=figure_applies),
        claim("e3_cpu_growth_vs_size", span, cpu / size, growth,
              applies=figure_applies),
        claim("e3_gtx980_growth", span, gtx, growth,
              applies=figure_applies),
    ]
    return out


#: Claim id of each Section III-D ablation.
_ABLATION_CLAIMS = {
    experiments.ablation_unzip: "e4_unzip_speedup",
    experiments.ablation_sort_u64: "e5_sort_u64_speedup",
    experiments.ablation_merge_variant: "e6_merge_read_speedup",
    experiments.ablation_readonly_cache: "e7_readonly_cache_speedup",
    experiments.ablation_warp_reduction: "e8_warp_reduction_speedup",
    experiments.ablation_cpu_preprocess: "e12_cpu_preprocess_slowdown",
}


def _ablation_claims(seed: int) -> list[ClaimCheck]:
    """E4–E8 and E12: each ablation on its designated workload, plus the
    † fallback finishing where the direct path overflows."""
    # run_all_ablations returns one result per ABLATION_WORKLOADS entry,
    # in its order.
    out = [claim(_ABLATION_CLAIMS[fn], name, r.measured_speedup,
                 r.summary())
           for (fn, name), r in zip(experiments.ABLATION_WORKLOADS.items(),
                                    experiments.run_all_ablations(seed))]

    g = get("ba").build(seed=seed)
    device = GTX_980.with_memory(int(g.num_arcs * 8 * 1.7))
    ooms = _ooms(lambda: gpu_count_triangles(
        g, device=device, memory=DeviceMemory(device),
        options=GpuOptions(cpu_preprocess="never")))
    res = gpu_count_triangles(g, device=device, memory=DeviceMemory(device))
    capacity = f"GTX 980 cut to {device.memory_bytes:,} bytes"
    out += [
        claim("e12_direct_path_ooms", "ba", ooms,
              f"{capacity}: all-GPU preprocessing "
              f"{'overflows' if ooms else 'fits'}"),
        claim("e12_fallback_used", "ba", res.used_cpu_fallback,
              f"{capacity}: default run "
              f"{'took' if res.used_cpu_fallback else 'skipped'} the † path"),
        claim("e12_fallback_counts_triangles", "ba", res.triangles,
              f"{capacity}: {res.triangles:,} triangles"),
    ]
    return out


def _grid_claims(seed: int) -> list[ClaimCheck]:
    """E9: the 64x8 launch is (near-)optimal on all three devices, low
    occupancy is much worse, and on the GTX 980 the other 512-threads/SM
    geometries match it."""
    name = experiments.GRID_WORKLOAD
    g = get(name).build(seed=seed)
    small = {"tpb_values": (32, 64, 256), "bps_values": (1, 2, 8)}
    grids = {"gtx980": experiments.grid_search(g, device=GTX_980),
             "c2050": experiments.grid_search(g, device=TESLA_C2050,
                                              **small),
             "nvs5200m": experiments.grid_search(g, device=NVS_5200M,
                                                 **small)}
    out = []
    for key, grid in grids.items():
        (tpb, bps), best = grid.best
        paper = grid.paper_config_ms()
        out.append(claim(
            f"e9_paper_config_near_best_{key}", name, paper / best,
            f"{grid.device.name}: 64x8 {paper:.4f} ms, best {tpb}x{bps} "
            f"{best:.4f} ms"))
        if key != "c2050":
            low = grid.points[(32, 1)]
            out.append(claim(
                f"e9_low_occupancy_penalty_{key}", name, low / paper,
                f"{grid.device.name}: 32x1 {low:.4f} ms vs 64x8 "
                f"{paper:.4f} ms"))

    gtx = grids["gtx980"]
    ref = gtx.paper_config_ms()
    gap = max(abs(gtx.points[p] / ref - 1.0) for p in ((32, 16), (256, 2)))
    need = GTX_980.num_sms * EQUIVALENCE_THREADS_PER_SM
    out.append(claim(
        "e9_512_per_sm_equivalence_gtx980", name, gap,
        f"32x16 and 256x2 within {gap:.1%} of 64x8; {g.num_edges:,} "
        f"forward arcs, {need:,} needed to fill "
        f"{EQUIVALENCE_THREADS_PER_SM} threads on every SM",
        applies=g.num_edges >= need))
    return out


def _input_format_claims(seed: int) -> list[ClaimCheck]:
    """E10: the edge-array penalty is small and the conversion a CSR
    consumer would force costs more than it."""
    r = experiments.input_format_experiment(
        get("livejournal").build(seed=seed))
    penalty_ms = r.edge_array_input_ms - r.adjacency_input_ms
    return [
        claim("e10_edge_array_penalty", "livejournal",
              r.edge_array_input_ms / r.adjacency_input_ms, r.summary()),
        claim("e10_conversion_vs_penalty", "livejournal",
              r.conversion_ms / penalty_ms, r.summary()),
    ]


def _amdahl_claims(seed: int) -> list[ClaimCheck]:
    """E11: four-GPU speedups stay in Amdahl's envelope and track the
    preprocessing fraction."""
    points = {p.workload_name: p for p in experiments.amdahl_sweep(seed)}
    out = []
    for name, p in points.items():
        out += [
            claim("e11_within_amdahl", name,
                  p.measured_quad_speedup / p.amdahl_limit, p.summary()),
            claim("e11_quad_not_degenerate", name, p.measured_quad_speedup,
                  p.summary()),
        ]
    kron, ws = points["kron18"], points["ws"]
    out += [
        claim("e11_kron18_outscales_ws", "kron18/ws",
              kron.measured_quad_speedup / ws.measured_quad_speedup,
              f"quad speedup kron18 {kron.measured_quad_speedup:.2f}x, ws "
              f"{ws.measured_quad_speedup:.2f}x"),
        claim("e11_kron18_lower_preproc_fraction", "kron18/ws",
              kron.preprocessing_fraction / ws.preprocessing_fraction,
              f"preprocessing fraction kron18 "
              f"{kron.preprocessing_fraction:.2f}, ws "
              f"{ws.preprocessing_fraction:.2f}"),
    ]
    ordered = sorted(points.values(), key=lambda p: p.preprocessing_fraction)
    speedups = [p.measured_quad_speedup for p in ordered]
    rise = max(b - a for a, b in zip(speedups, speedups[1:]))
    out.append(claim(
        "e11_fraction_predicts_speedup", "all", rise,
        "quad speedups by ascending preprocessing fraction: "
        + ", ".join(f"{p.workload_name} {p.measured_quad_speedup:.2f}x"
                    for p in ordered)))
    return out


def _baseline_claims(seed: int) -> list[ClaimCheck]:
    """E13: forward beats the iterators; the approximations land close."""
    r = experiments.baseline_experiment(get("kron17").build(seed=seed),
                                        seed=seed)
    doulion_hi = CLAIM_BOUNDS["e13_doulion_error_pct"].hi
    return [
        claim("e13_forward_beats_edge_iterator", "kron17",
              r.edge_iterator_ms / r.forward_ms, r.summary()),
        claim("e13_edge_iterator_beats_node_iterator", "kron17",
              r.node_iterator_ms / r.edge_iterator_ms, r.summary()),
        # A sample can only be held to an error bound its estimator's
        # own spread reaches: checked once DOULION's 2-sigma bound is
        # within it.
        claim("e13_doulion_error_pct", "kron17", r.doulion_error_pct,
              f"DOULION error {r.doulion_error_pct:.1f}%, its own "
              f"2-sigma bound {r.doulion_bound_pct:.1f}% (checked up to "
              f"{doulion_hi:g}%)",
              applies=r.doulion_bound_pct <= doulion_hi),
        claim("e13_birthday_error_pct", "kron17", r.birthday_error_pct,
              r.summary()),
    ]


def _related_claims(seed: int) -> list[ClaimCheck]:
    """E14: Green et al. [15] on the co-paper graphs, Leist et al. [13]
    on BA and WS."""
    out = []
    for name in ("citeseer", "dblp"):
        r = compare_with_green(*scaled_setup(name, GTX_980, seed))
        out += [
            claim("e14_green_counts_triangles", name, r.triangles,
                  f"{name}: {r.triangles:,} triangles"),
            claim("e14_green_pipeline_ratio", name, r.pipeline_ratio,
                  f"{name}: {r.summary()}"),
        ]
    for name in ("ba", "ws"):
        r = compare_with_leist(*scaled_setup(name, GTX_980, seed))
        out.append(claim("e14_leist_advantage", name, r.advantage,
                         f"{name}: {r.summary()}"))
    return out


def _distributed_claims(seed: int) -> list[ClaimCheck]:
    """E15, Section VI's splitting question on WS (the most
    preprocessing-bound workload): slower than broadcasting, well
    balanced, and able to count graphs that overflow one device."""
    graph, device = scaled_setup("ws", TESLA_C2050, seed)
    one = gpu_count_triangles(graph, device=device,
                              memory=DeviceMemory(device))
    amdahl = multi_gpu_count_triangles(graph, device=device, num_gpus=4)
    split = distributed_count_triangles(graph, device=device, num_gpus=4,
                                        num_parts=6, seed=seed)
    redundancy = split.redundant_arc_work / max(one.num_forward_arcs * 2, 1)
    times = (f"single {one.total_ms:.3f} ms, broadcast x4 "
             f"{amdahl.total_ms:.3f} ms, split x4 {split.total_ms:.3f} ms")

    tiny = device.with_memory(int(graph.num_arcs * 8 * 0.55))
    ooms = _ooms(lambda: gpu_count_triangles(graph, device=tiny,
                                             memory=DeviceMemory(tiny)))
    res = distributed_count_triangles(graph, device=tiny, num_gpus=4,
                                      num_parts=8, seed=seed)
    capacity = f"C2050 cut to {tiny.memory_bytes:,} bytes"
    return [
        claim("e15_schemes_agree", "ws",
              one.triangles == amdahl.triangles == split.triangles,
              f"triangles single {one.triangles:,}, broadcast "
              f"{amdahl.triangles:,}, split {split.triangles:,}"),
        claim("e15_split_redundancy", "ws", redundancy,
              f"split revisits {redundancy:.2f}x the forward arcs"),
        claim("e15_split_slower_than_broadcast", "ws",
              split.total_ms / amdahl.total_ms, times),
        claim("e15_load_balance", "ws", split.load_balance,
              f"split load balance {split.load_balance:.2f}"),
        claim("e15_single_device_ooms", "ws", ooms,
              f"{capacity}: one device "
              f"{'overflows' if ooms else 'fits'}"),
        claim("e15_split_subgraphs_smaller", "ws",
              res.largest_subgraph_arcs / graph.num_arcs,
              f"{capacity}: largest subgraph {res.largest_subgraph_arcs:,} "
              f"of {graph.num_arcs:,} arcs"),
        claim("e15_split_counts_triangles", "ws", res.triangles,
              f"{capacity}: {res.triangles:,} triangles"),
    ]


def _sweep_claims(seed: int) -> list[ClaimCheck]:
    """E16: on a 4x scale ladder the observables drift toward the
    paper's full-scale values."""
    sweep = scale_sweep("ws", seed=seed)
    first, last = sweep.points[0], sweep.points[-1]
    d = sweep.deltas("gtx980_speedup", sweep.paper.gtx980_speedup)
    ladder = f"scale {first.scale:g} -> {last.scale:g}"
    return [
        claim("e16_speedup_converges", "ws", d[-1] / d[0],
              f"{ladder}: distance to the paper's "
              f"{sweep.paper.gtx980_speedup}x GTX 980 speedup "
              f"{d[0]:.1f} -> {d[-1]:.1f}"),
        claim("e16_preproc_fraction_falls", "ws",
              last.preprocessing_fraction / first.preprocessing_fraction,
              f"{ladder}: preprocessing fraction "
              f"{first.preprocessing_fraction:.2f} -> "
              f"{last.preprocessing_fraction:.2f}"),
        claim("e16_arcs_grow", "ws", last.num_arcs / first.num_arcs,
              f"{ladder}: arcs {first.num_arcs:,} -> {last.num_arcs:,}"),
    ]


def run_claims(rows: list[RowResult], kron_rows: list[RowResult],
               figure_applies: bool, seed: int) -> list[ClaimCheck]:
    """Every E1–E16 claim check, in experiment order."""
    return (_table_claims(rows, kron_rows, figure_applies)
            + _ablation_claims(seed) + _grid_claims(seed)
            + _input_format_claims(seed) + _amdahl_claims(seed)
            + _baseline_claims(seed) + _related_claims(seed)
            + _distributed_claims(seed) + _sweep_claims(seed))


def _claims_section(claims: list[ClaimCheck]) -> dict:
    checks = [c.to_json() for c in claims]
    return {"checks": checks, "ok": checks_ok(checks)}


def _serve_section(exp, preset: Preset, seed: int) -> dict:
    rep = report_doc(exp.report)
    win = exp.cache_service_win
    checks = [
        _check("serve_no_lost_jobs", rep["lost"] == 0,
               f"{rep['lost']} job(s) lost in the primary replay"),
        _check("serve_fault_retried", rep["faults"] >= 1,
               "the injected device fault must surface in the metrics"),
        _check("serve_cache_wins", win >= 0.99,
               f"cache-on service time must not exceed cache-off "
               f"(win {win:.3f}x)"),
    ]
    return {
        "config": {"fleet": "gtx980x4",
                   "duration_ms": preset.serve_duration_ms,
                   "rate_per_s": 2.0, "seed": seed},
        "report": rep,
        "report_nocache": report_doc(exp.report_nocache),
        "cache_service_win": round(win, 4),
        "fault_device": exp.fault_device,
        "fault_at_ms": round(exp.fault_at_ms, 4),
        "checks": checks,
        "ok": all(c["passed"] for c in checks),
    }


def _serve_scale_section(res, preset: Preset) -> dict:
    checks = res.checks()
    drift: list[str] = []
    if preset.compare_baselines and os.path.exists(SERVE_BASELINE):
        with open(SERVE_BASELINE) as fh:
            drift = committed_drift(json.loads(res.json_str()),
                                    json.load(fh))
        checks.append(_check(
            "serve_baseline_drift", not drift,
            "; ".join(drift) or f"matches {SERVE_BASELINE}"))
    return {"doc": res.doc(), "baseline_problems": drift, "checks": checks,
            "ok": all(c["passed"] for c in checks)}


def _analyze_section(analysis) -> dict:
    """Static-analyzer cleanliness of the checkout the bundle ran from."""
    checks = [
        _check("analyzer_clean", analysis.ok,
               f"{len(analysis.new)} new finding(s), "
               f"{len(analysis.stale)} stale baseline entr(y/ies), "
               f"{len(analysis.errors)} parse error(s) over "
               f"{analysis.files} file(s) "
               f"[{len(analysis.matched)} baselined]"),
    ]
    return {"doc": analysis.to_json(), "checks": checks,
            "ok": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------- #
# the bundle
# ---------------------------------------------------------------------- #

@dataclass
class ReproduceResult:
    """Everything one reproduction run produced."""

    summary: dict
    report_md: str
    out_dir: str
    files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.summary.get("ok"))


def run_reproduce(preset_name: str = "full", seed: int = 0,
                  out_dir: str = "artifacts",
                  verbose: bool = True) -> ReproduceResult:
    """Run every experiment of the preset and write the artifact set."""
    if preset_name not in PRESETS:
        raise ValueError(f"unknown preset {preset_name!r} "
                         f"(valid: {', '.join(PRESETS)})")
    preset = PRESETS[preset_name]

    def say(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    with scaled(preset.factor):
        manifest = environment_manifest(preset, seed)
        say(f"[reproduce] preset={preset.name} seed={seed} "
            f"env_scale={manifest['env_scale']:g} -> {out_dir}/")

        say("[reproduce] table1/table2/figure1 ...")
        names = list(preset.table1_workloads or [])
        rows = run_table1(names or None, seed=seed, configs=preset.configs,
                          verbose=verbose)
        kron = set(kronecker_names())
        kron_rows = [r for r in rows if r.workload.name in kron]
        figure1 = _figure1_section(kron_rows)

        say("[reproduce] claims E1-E16 ...")
        claims = run_claims(rows, kron_rows, figure1["applies"], seed)

        say("[reproduce] serve ...")
        exp = experiments.serve_experiment(
            duration_ms=preset.serve_duration_ms, seed=seed)

        say("[reproduce] serve-scale ...")
        res = run_serve_scale(duration_ms=preset.serve_scale_duration_ms,
                              seed=seed)

        say("[reproduce] static analysis ...")
        from repro.analyze.run import run_repo_analysis
        analysis = run_repo_analysis()

        sections = {
            "table1": _table1_section(rows),
            "figure1": figure1,
            "claims": _claims_section(claims),
            "serve": _serve_section(exp, preset, seed),
            "serve_scale": _serve_scale_section(res, preset),
            "analyze": _analyze_section(analysis),
        }
        summary = {
            "format": SUMMARY_FORMAT,
            "manifest": manifest,
            "sections": sections,
            "volatile_keys": sorted(VOLATILE_KEYS),
            "ok": all(s["ok"] for s in sections.values()),
        }

        report_md = render_report(summary, rows, kron_rows, exp, res)
        files = _write_artifacts(out_dir, summary, report_md, rows,
                                 kron_rows, exp, res, analysis)
    result = ReproduceResult(summary=summary, report_md=report_md,
                             out_dir=out_dir, files=files)
    say(f"[reproduce] {'PASS' if result.ok else 'FAIL'}: "
        f"{len(files)} artifact(s) in {out_dir}/")
    return result


def _write_artifacts(out_dir, summary, report_md, rows, kron_rows, exp,
                     res, analysis) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    content = {
        "manifest.json": _dumps(summary["manifest"]),
        "summary.json": _dumps(summary),
        "report.md": report_md,
        "table1.csv": tables.table1_csv(rows),
        "figure1.csv": figures.figure1_csv(kron_rows),
        "BENCH_serve.json": res.json_str(),
        "serve_jobs.csv": exp.report.jobs_csv(),
        "analysis.sarif": analysis.sarif,
    }
    files = []
    for filename, text in content.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w") as fh:
            fh.write(text)
        files.append(path)
    return sorted(files)


def render_report(summary, rows, kron_rows, exp, res) -> str:
    """The human-readable ``report.md``."""
    m = summary["manifest"]
    s = summary["sections"]
    out = io.StringIO()
    out.write("# Reproduction report — Counting Triangles in Large "
              "Graphs on GPU\n\n")
    out.write(f"**Verdict: {'PASS' if summary['ok'] else 'FAIL'}** — "
              "every number below is from the simulated substrate at "
              "mini scale; see ARTIFACTS.md for schemas.\n\n")

    out.write("## Manifest\n\n")
    for key in ("generated_at", "git_sha", "python", "numpy", "platform",
                "preset", "scale_factor", "env_scale"):
        out.write(f"- `{key}`: `{m[key]}`\n")
    out.write(f"- seeds: `{json.dumps(m['seeds'], sort_keys=True)}`\n\n")

    def verdict(section):
        return "PASS" if section["ok"] else "FAIL"

    out.write(f"## Table I / Table II — {verdict(s['table1'])}\n\n")
    out.write("```text\n" + tables.render_table1(rows) + "\n```\n\n")
    out.write("```text\n" + tables.render_table2(rows) + "\n```\n\n")
    applicable = [c for c in s["table1"]["band_checks"] if c["applies"]]
    failed = [c for c in applicable if not c["passed"]]
    out.write(f"Band checks: {len(applicable)} applicable, "
              f"{len(applicable) - len(failed)} passed.\n")
    for c in failed:
        out.write(f"- FAIL `{c['name']}`: {c['detail']}\n")
    for p in s["table1"]["dagger_problems"]:
        out.write(f"- FAIL dagger pattern: {p}\n")
    out.write("\n")

    out.write(f"## Figure 1 — {verdict(s['figure1'])}\n\n")
    out.write("```text\n" + figures.render_figure1(kron_rows) + "```\n\n")
    if not s["figure1"]["applies"]:
        out.write(f"Shape checks skipped: only "
                  f"{s['figure1']['points_in_regime']} point(s) above the "
                  f"fixed-overhead regime at this scale.\n")
    for p in s["figure1"]["shape_problems"]:
        out.write(f"- FAIL shape: {p}\n")
    out.write("\n")

    out.write(f"## Paper claims (E1–E16) — {verdict(s['claims'])}\n\n")
    out.write("| check | workload | value | bound | verdict |\n"
              "|---|---|---|---|---|\n")
    for c in s["claims"]["checks"]:
        mark = ("n/a" if not c["applies"]
                else "PASS" if c["passed"] else "FAIL")
        bound = Bound(c["lo"], c["hi"], c["closed"]).text()
        out.write(f"| `{c['name']}` | {c['workload']} | {c['value']:g} | "
                  f"{bound} | {mark} |\n")
    out.write("\n")
    for c in s["claims"]["checks"]:
        if not c["applies"] or not c["passed"]:
            mark = "n/a" if not c["applies"] else "FAIL"
            out.write(f"- {mark} `{c['name']}` ({c['workload']}): "
                      f"{c['detail']}\n")
    out.write("\n")

    out.write(f"## Serving — {verdict(s['serve'])}\n\n")
    out.write("```text\n" + exp.report.format_report() + "\n```\n\n")
    out.write(exp.summary() + "\n\n")

    out.write(f"## Serve-scale (overload) — {verdict(s['serve_scale'])}\n\n")
    out.write(res.summary() + "\n\n")

    out.write(f"## Static analysis — {verdict(s['analyze'])}\n\n")
    a = s["analyze"]["doc"]
    out.write(f"{a['files']} file(s) analyzed; {len(a['new'])} new "
              f"finding(s), {a['baselined']} baselined "
              f"(`{a['baseline']}`), {len(a['stale'])} stale baseline "
              "entr(y/ies); full SARIF log in `analysis.sarif`.\n\n")

    for name, section in s.items():
        if name == "claims":     # tabulated above
            continue
        for c in section.get("checks", []):
            mark = "x" if c["passed"] else " "
            out.write(f"- [{mark}] `{name}.{c['name']}`\n")
    out.write("\n## Artifacts\n\n")
    out.write("| file | producer | description |\n|---|---|---|\n")
    for filename, (producer, desc) in ARTIFACT_FILES.items():
        out.write(f"| `{filename}` | `{producer}` | {desc} |\n")
    return out.getvalue()


# ---------------------------------------------------------------------- #
# CLI (scripts/reproduce_all and ``repro-bench reproduce``)
# ---------------------------------------------------------------------- #

def build_parser(prog: str = "reproduce_all") -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog=prog,
        description="Regenerate every artifact of the reproduction in "
                    "one run (see ARTIFACTS.md).")
    p.add_argument("--scale", choices=sorted(PRESETS), default="full",
                   help="preset: 'tiny' is the CI smoke profile, 'full' "
                        "reproduces the committed artifacts "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for every experiment (default: 0)")
    p.add_argument("--out-dir", default="artifacts", metavar="DIR",
                   help="artifact output directory (default: %(default)s)")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress progress output")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = run_reproduce(preset_name=args.scale, seed=args.seed,
                           out_dir=args.out_dir, verbose=not args.quiet)
    for path in result.files:
        print(f"  wrote {path}")
    print(f"reproduce: {'PASS' if result.ok else 'FAIL'} "
          f"(summary: {os.path.join(result.out_dir, 'summary.json')})")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
