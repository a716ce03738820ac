"""One-command reproduction bundle: ``scripts/reproduce_all``.

One invocation regenerates every headline artifact of the reproduction —
Table I, Table II, Figure 1, the ``==SERVE==`` report, the serve-scale
overload bench and the autotuned per-device configs — and writes the
lot into one output directory:

* ``summary.json`` — machine-readable: every measured number next to
  the paper's quoted band, with an explicit pass/fail per band check;
* ``report.md`` — the same content rendered for humans;
* ``manifest.json`` — environment/seed manifest (Python, numpy,
  platform, git SHA, ``REPRO_SCALE``, per-experiment RNG seeds, the
  sweep config that produced ``tuned.json``);
* the per-experiment files (``table1.csv``, ``figure1.csv``,
  ``BENCH_serve.json``, ``serve_jobs.csv``, ``tuned.json``) — see
  ``ARTIFACTS.md`` for each file's schema.

Two presets: ``full`` reproduces the committed artifacts (all 13
Table I rows, the committed bench configs, the ``configs/sweep.toml``
grid); ``tiny`` is the CI smoke profile (quarter scale, a 6-row subset,
short traces, a 2x2 sweep grid) that exercises every code path in a
couple of minutes.

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
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from repro.bench import figures, tables
from repro.bench.autotune import SweepReport, run_sweep
from repro.bench.calibration import check_daggers, row_checks
from repro.bench.runner import RowResult, run_table1
from repro.bench.serve_scale import report_doc, run_serve_scale
from repro.bench.sweepconfig import SweepConfig, load_sweep_config
from repro.graphs.datasets import kronecker_names
from repro.serve.tuned import TunedConfigs
from repro.utils import env_scale

#: summary.json format marker (bump on breaking schema changes).
SUMMARY_FORMAT = "repro-summary/v1"

#: Keys whose values are host-machine- or time-of-day-dependent.  They
#: are the *only* nondeterministic content in the bundle;
#: :func:`deterministic_doc` strips them so byte-identity across runs is
#: testable.  ``identical``/band verdicts never live under these keys.
VOLATILE_KEYS = frozenset({
    "generated_at", "git_sha", "host",
    "host_s", "host_seconds", "host_profile",
})

#: Committed baseline the ``full`` preset regression-checks against.
SERVE_BASELINE = "BENCH_serve.json"

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
    "tuned.json": (
        "repro.bench.autotune.SweepReport.write_tuned",
        "autotuner winners per device (consumed by the serve scheduler)"),
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
    sweep_tpb: tuple[int, ...]
    sweep_bps: tuple[int, ...]
    #: compare against the committed BENCH_*.json files (only meaningful
    #: when the run uses the committed configs, i.e. the full preset).
    compare_baselines: bool


FULL = Preset(
    name="full", factor=1.0, table1_workloads=None,
    configs=("c2050", "quad", "gtx980"),
    serve_duration_ms=60_000.0, serve_scale_duration_ms=30_000.0,
    sweep_tpb=(32, 64, 256, 1024), sweep_bps=(1, 2, 8, 16),
    compare_baselines=True)

TINY = Preset(
    name="tiny", factor=0.25,
    table1_workloads=("ba", "ws", "internet", "kron16", "kron17", "kron18"),
    configs=("c2050", "quad", "gtx980"),
    serve_duration_ms=10_000.0, serve_scale_duration_ms=10_000.0,
    sweep_tpb=(64, 256), sweep_bps=(2, 8),
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


def environment_manifest(preset: Preset, seed: int,
                         sweep: SweepConfig,
                         sweep_source: str) -> dict:
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
            "serve_scale": seed, "sweep": sweep.seed,
        },
        "sweep_config": {"source": sweep_source, **sweep.doc()},
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


def _table1_section(rows: list[RowResult]) -> dict:
    checks = [c.to_json() for r in rows for c in row_checks(r)]
    dagger_problems = check_daggers(rows)
    applicable = [c for c in checks if c["applies"]]
    return {
        "rows": [_row_doc(r) for r in rows],
        "band_checks": checks,
        "dagger_problems": dagger_problems,
        "ok": (all(c["passed"] for c in applicable)
               and not dagger_problems),
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
    from repro.bench.serve_scale import baseline_problems

    doc = res.doc()
    plane = doc["plane_replay"]
    checks = [
        _check("plane_no_lost_jobs", plane["lost"] == 0,
               f"plane replay lost {plane['lost']} job(s)"),
        _check("plane_all_answered", plane["unanswered"] == 0,
               f"plane replay left {plane['unanswered']} job(s) unanswered"),
        _check("exact_identical", doc["exact_identical"],
               "plane exact answers must match the seed replay bit for bit"),
    ]
    drift: list[str] = []
    if preset.compare_baselines and os.path.exists(SERVE_BASELINE):
        with open(SERVE_BASELINE) as fh:
            drift = baseline_problems(doc, json.load(fh))
        checks.append(_check(
            "serve_baseline_drift", not drift,
            "; ".join(drift) or f"within tolerance of {SERVE_BASELINE}"))
    return {"doc": doc, "baseline_problems": drift, "checks": checks,
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


def _tune_section(sweep_report: SweepReport, tuned_path: str) -> dict:
    """Autotune results + the round-trip check into the serve loader."""
    tuned_doc = sweep_report.tuned_doc()
    checks = []
    try:
        tuned = TunedConfigs.load(tuned_path)
        missing = [d for d in tuned_doc["devices"]
                   if tuned.entry_for(d) is None]
        checks.append(_check(
            "tuned_roundtrip", not missing,
            f"serve-side loader must resolve every tuned device "
            f"(missing: {missing})" if missing else
            f"serve-side loader resolves all "
            f"{len(tuned_doc['devices'])} tuned device(s)"))
    except Exception as exc:   # noqa: BLE001 — verdict, not control flow
        checks.append(_check("tuned_roundtrip", False,
                             f"TunedConfigs.load failed: {exc}"))
    # The paper lands on 64x8 (512 threads/SM) and reports all ~512/SM
    # geometries equivalent; when the grid contains that point, the
    # winner must not beat it by more than 10%.
    best = sweep_report.best_per_device()
    for device, row in sorted(best.items()):
        paper_point = [r for r in sweep_report.rows
                       if r.point.device == device
                       and r.point.kernel == row.point.kernel
                       and r.point.scale == row.point.scale
                       and (r.point.threads_per_block,
                            r.point.blocks_per_sm) == (64, 8)]
        if paper_point:
            ratio = paper_point[0].kernel_ms / max(row.kernel_ms, 1e-12)
            checks.append(_check(
                f"paper_launch_competitive_{device}", ratio <= 1.10,
                f"64x8 is {ratio:.3f}x the best point "
                f"({row.point.threads_per_block}x"
                f"{row.point.blocks_per_sm}) on {device}"))
    return {
        "doc": tuned_doc,
        "rows": [{"point": r.point.label(),
                  "kernel_ms": round(r.kernel_ms, 4),
                  "host_s": round(r.host_s, 4),
                  "triangles": r.triangles} for r in sweep_report.rows],
        "skipped": [{"point": p.label(), "reason": reason}
                    for p, reason in sweep_report.skipped],
        "checks": checks,
        "ok": all(c["passed"] for c in checks),
    }


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


def _resolve_sweep(preset: Preset, seed: int,
                   config_path: str | None) -> tuple[SweepConfig, str]:
    """The sweep to run: an explicit ``--config`` wins; the full preset
    picks up the committed ``configs/sweep.toml``; otherwise the
    preset's built-in grid."""
    if config_path:
        return load_sweep_config(config_path), config_path
    if preset.compare_baselines and os.path.exists("configs/sweep.toml"):
        return load_sweep_config("configs/sweep.toml"), "configs/sweep.toml"
    return SweepConfig(
        name=f"reproduce-{preset.name}", workload="kron17", seed=seed,
        objective="kernel_ms", devices=("gtx980", "c2050"),
        kernels=("merge", "warp_intersect"),
        threads_per_block=preset.sweep_tpb, blocks_per_sm=preset.sweep_bps,
        scales=(1.0,)), "<built-in>"


def run_reproduce(preset_name: str = "full", seed: int = 0,
                  out_dir: str = "artifacts",
                  config_path: str | None = None,
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
        sweep_config, sweep_source = _resolve_sweep(preset, seed,
                                                    config_path)
        manifest = environment_manifest(preset, seed, sweep_config,
                                        sweep_source)
        say(f"[reproduce] preset={preset.name} seed={seed} "
            f"env_scale={manifest['env_scale']:g} -> {out_dir}/")

        say("[reproduce] table1/table2/figure1 ...")
        names = list(preset.table1_workloads or [])
        rows = run_table1(names or None, seed=seed, configs=preset.configs,
                          verbose=verbose)
        kron = set(kronecker_names())
        kron_rows = [r for r in rows if r.workload.name in kron]

        say("[reproduce] serve ...")
        from repro.bench.experiments import serve_experiment
        exp = serve_experiment(duration_ms=preset.serve_duration_ms,
                               seed=seed)

        say("[reproduce] serve-scale ...")
        res = run_serve_scale(duration_ms=preset.serve_scale_duration_ms,
                              seed=seed)

        say(f"[reproduce] autotune sweep ({sweep_source}) ...")
        sweep_report = run_sweep(sweep_config)

        say("[reproduce] static analysis ...")
        from repro.analyze.run import run_repo_analysis
        analysis = run_repo_analysis()

        os.makedirs(out_dir, exist_ok=True)
        tuned_path = os.path.join(out_dir, "tuned.json")
        sweep_report.write_tuned(tuned_path)

        sections = {
            "table1": _table1_section(rows),
            "figure1": _figure1_section(kron_rows),
            "serve": _serve_section(exp, preset, seed),
            "serve_scale": _serve_scale_section(res, preset),
            "tune": _tune_section(sweep_report, tuned_path),
            "analyze": _analyze_section(analysis),
        }
        summary = {
            "format": SUMMARY_FORMAT,
            "manifest": manifest,
            "sections": sections,
            "volatile_keys": sorted(VOLATILE_KEYS),
            "ok": all(s["ok"] for s in sections.values()),
        }

        report_md = render_report(summary, rows, kron_rows, exp, res,
                                  sweep_report)
        files = _write_artifacts(out_dir, summary, report_md, rows,
                                 kron_rows, exp, res, analysis)
    result = ReproduceResult(summary=summary, report_md=report_md,
                             out_dir=out_dir, files=files)
    say(f"[reproduce] {'PASS' if result.ok else 'FAIL'}: "
        f"{len(files)} artifact(s) in {out_dir}/")
    return result


def _write_artifacts(out_dir, summary, report_md, rows, kron_rows, exp,
                     res, analysis) -> list[str]:
    content = {
        "manifest.json": _dumps(summary["manifest"]),
        "summary.json": _dumps(summary),
        "report.md": report_md,
        "table1.csv": tables.table1_csv(rows),
        "figure1.csv": figures.figure1_csv(kron_rows),
        "BENCH_serve.json": res.json_str(),
        "serve_jobs.csv": exp.report.jobs_csv(),
        "analysis.sarif": analysis.sarif,
        # tuned.json already written by SweepReport.write_tuned.
    }
    files = []
    for filename, text in content.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w") as fh:
            fh.write(text)
        files.append(path)
    return sorted(files + [os.path.join(out_dir, "tuned.json")])


def render_report(summary, rows, kron_rows, exp, res,
                  sweep_report: SweepReport) -> str:
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
    out.write(f"- seeds: `{json.dumps(m['seeds'], sort_keys=True)}`\n")
    out.write(f"- sweep config: `{m['sweep_config']['source']}` "
              f"(`{m['sweep_config']['name']}` on "
              f"`{m['sweep_config']['workload']}`)\n\n")

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

    out.write(f"## Serving — {verdict(s['serve'])}\n\n")
    out.write("```text\n" + exp.report.format_report() + "\n```\n\n")
    out.write(exp.summary() + "\n\n")

    out.write(f"## Serve-scale (overload) — {verdict(s['serve_scale'])}\n\n")
    out.write(res.summary() + "\n\n")

    out.write(f"## Autotune — {verdict(s['tune'])}\n\n")
    out.write("```text\n" + sweep_report.summary() + "\n```\n\n")

    out.write(f"## Static analysis — {verdict(s['analyze'])}\n\n")
    a = s["analyze"]["doc"]
    out.write(f"{a['files']} file(s) analyzed; {len(a['new'])} new "
              f"finding(s), {a['baselined']} baselined "
              f"(`{a['baseline']}`), {len(a['stale'])} stale baseline "
              "entr(y/ies); full SARIF log in `analysis.sarif`.\n\n")

    for name, section in s.items():
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
    p.add_argument("--config", metavar="FILE",
                   help="sweep config (TOML/JSON) for the autotune stage "
                        "(default: configs/sweep.toml for --scale full, "
                        "a built-in grid otherwise)")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress progress output")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    result = run_reproduce(preset_name=args.scale, seed=args.seed,
                           out_dir=args.out_dir, config_path=args.config,
                           verbose=not args.quiet)
    for path in result.files:
        print(f"  wrote {path}")
    print(f"reproduce: {'PASS' if result.ok else 'FAIL'} "
          f"(summary: {os.path.join(result.out_dir, 'summary.json')})")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
