"""``repro-bench`` — regenerate the paper's tables and figures.

Examples::

    repro-bench table1                  # all 13 rows, all devices
    repro-bench table1 -w ba -w ws      # selected rows
    repro-bench table2                  # GTX 980 profiling columns
    repro-bench figure1                 # Kronecker scaling plot (ASCII)
    repro-bench ablations               # Section III-D effects
    repro-bench gridsearch              # Section III-C launch sweep
    repro-bench inputformat multigpu baselines related
    repro-bench profile -w orkut       # nvprof-style kernel metrics
    repro-bench serve                   # multi-tenant serving simulation
    repro-bench serve-scale --duration 30 --out BENCH_serve.json
    repro-bench overlap --out BENCH_overlap.json
    repro-bench kernelzoo --out BENCH_kernelzoo.json  # auto-pick calibration
    repro-bench reproduce --preset tiny # one-command artifact bundle
    repro-bench all --csv out_dir       # everything + CSV dumps

``serve-scale``, ``overlap`` and ``kernelzoo`` run, check their contract
gates (exit 1 on a violation) and only then write ``--out``.  They do
not compare against the committed ``BENCH_*.json`` files: the tier-1
tests regenerate all three and hold them to the committed documents
with :func:`repro.bench.reproduce.committed_drift`.

``REPRO_SCALE`` scales every workload (default mini scale; see DESIGN §6).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench import calibration, figures, tables
from repro.bench.experiments import (GRID_WORKLOAD, amdahl_sweep,
                                     baseline_experiment, grid_search,
                                     input_format_experiment,
                                     run_all_ablations)
from repro.bench.runner import run_table1
from repro.graphs.datasets import WORKLOADS, get, kronecker_names

_COMMANDS = ("table1", "table2", "figure1", "ablations", "gridsearch",
             "inputformat", "multigpu", "baselines", "related", "profile",
             "sweep", "serve", "serve-scale", "overlap",
             "kernelzoo", "sanitize", "analyze", "reproduce", "all")
#: ``all`` expands to every experiment except the bundle (which would
#: re-run everything a second time into ``artifacts/``) and the static
#: analyzer (which needs the repo checkout, not an installed package).
_ALL_EXCLUDES = ("all", "reproduce", "analyze")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    # No ``choices=`` here: argparse's SystemExit hides the command list
    # behind a usage dump.  main() validates and prints it instead.
    p.add_argument("commands", nargs="+", metavar="command",
                   help=f"which experiment(s) to run "
                        f"(choices: {', '.join(_COMMANDS)})")
    p.add_argument("-w", "--workload", action="append", dest="workloads",
                   choices=list(WORKLOADS),
                   help="restrict table1/table2 to specific rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="DIR",
                   help="also write machine-readable CSVs into DIR")
    p.add_argument("--no-quad", action="store_true",
                   help="skip the 4-GPU configuration (faster)")
    p.add_argument("--fleet", default="gtx980x4", metavar="SPEC",
                   help="serve: fleet composition, e.g. gtx980x4 or "
                        "gtx980x2,c2050 (default: %(default)s)")
    p.add_argument("--duration", type=float, default=60.0, metavar="SEC",
                   help="serve: simulated trace length in seconds "
                        "(default: %(default)s)")
    p.add_argument("--rate", type=float, default=2.0, metavar="JOBS_PER_S",
                   help="serve: mean arrival rate (default: %(default)s)")
    p.add_argument("--rate-multiplier", type=float, default=None,
                   metavar="X",
                   help="serve/serve-scale: scale the arrival rate "
                        "(default: 1 for serve, 10 for serve-scale)")
    p.add_argument("--burst", type=float, default=None, metavar="X",
                   help="serve/serve-scale: burstiness factor, >= 1 "
                        "(default: 1 for serve, 4 for serve-scale)")
    p.add_argument("--out", metavar="FILE",
                   help="overlap/serve-scale/kernelzoo: also write the "
                        "report as JSON (e.g. BENCH_overlap.json)")
    p.add_argument("--strict", action="store_true",
                   help="sanitize: run the matrix in strict mode (typed "
                        "errors at the first finding)")
    p.add_argument("--preset", choices=("tiny", "full"), default="full",
                   help="reproduce: artifact profile (default: %(default)s)")
    p.add_argument("--out-dir", default="artifacts", metavar="DIR",
                   help="reproduce: artifact directory "
                        "(default: %(default)s)")
    return p


def _write(csv_dir: str | None, filename: str, content: str) -> None:
    if not csv_dir:
        return
    os.makedirs(csv_dir, exist_ok=True)
    path = os.path.join(csv_dir, filename)
    with open(path, "w") as fh:
        fh.write(content)
    print(f"  wrote {path}")


def _gate_and_write(args, problems: list[str], failure: str, doc: str,
                    csv_name: str) -> bool:
    """Print a bench's contract-gate problems; write its JSON document
    to ``--out`` and the ``--csv`` directory only if there are none."""
    for p in problems:
        print("  gate-check:", p)
    if problems:
        print(f"  FAIL: {failure}")
        return False
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(doc)
        print(f"  wrote {args.out}")
    _write(args.csv, csv_name, doc)
    return True


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    unknown = [c for c in args.commands if c not in _COMMANDS]
    if unknown:
        print(f"repro-bench: unknown command(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"valid commands: {', '.join(_COMMANDS)}", file=sys.stderr)
        return 2
    commands = set(args.commands)
    if "all" in commands:
        commands = set(_COMMANDS) - set(_ALL_EXCLUDES)
    configs = ("c2050", "gtx980") if args.no_quad else ("c2050", "quad",
                                                        "gtx980")

    if "reproduce" in commands:
        from repro.bench.reproduce import run_reproduce
        result = run_reproduce(preset_name=args.preset, seed=args.seed,
                               out_dir=args.out_dir)
        commands -= {"reproduce"}
        if not result.ok:
            print(f"  FAIL: see "
                  f"{os.path.join(args.out_dir, 'summary.json')}")
            return 1
        if not commands:
            return 0

    rows = None
    if commands & {"table1", "table2", "figure1"}:
        names = args.workloads or list(WORKLOADS)
        if "figure1" in commands:
            names = list(dict.fromkeys(names + kronecker_names()))
        rows = run_table1(names, seed=args.seed, configs=configs)

    if "table1" in commands:
        print("\n=== TABLE I — experimental results (paper vs measured) ===")
        print(tables.render_table1(rows))
        problems = [p for r in rows for p in calibration.check_row(r)]
        problems += calibration.check_daggers(rows)
        for p in problems:
            print("  band-check:", p)
        if not problems:
            print("  all band checks passed")
        _write(args.csv, "table1.csv", tables.table1_csv(rows))

    if "table2" in commands:
        print("\n=== TABLE II — GTX 980 profiling (paper vs measured) ===")
        print(tables.render_table2(rows))

    if "figure1" in commands:
        kron_rows = [r for r in rows
                     if r.workload.name in set(kronecker_names())]
        print("\n=== FIGURE 1 — Kronecker scaling ===")
        print(figures.render_figure1(kron_rows))
        for p in figures.check_figure1_shape(kron_rows):
            print("  shape-check:", p)
        _write(args.csv, "figure1.csv", figures.figure1_csv(kron_rows))

    if "ablations" in commands:
        print("\n=== Section III-D ablations ===")
        print("  (each on its designated workload, capacity-scaled device —"
              " see EXPERIMENTS.md)")
        for result in run_all_ablations(seed=args.seed):
            print(" ", result.summary())

    if "gridsearch" in commands:
        print("\n=== Section III-C launch grid search ===")
        g = get(GRID_WORKLOAD).build(seed=args.seed)
        print(grid_search(g).summary())

    if "inputformat" in commands:
        print("\n=== Section III-A input format ===")
        g = get("livejournal").build(seed=args.seed)
        print(" ", input_format_experiment(g).summary())

    if "multigpu" in commands:
        print("\n=== Section III-E multi-GPU Amdahl ===")
        for point in amdahl_sweep(seed=args.seed):
            print(" ", point.summary())

    if "related" in commands:
        from repro.bench.related import compare_with_green, compare_with_leist
        from repro.bench.runner import scaled_setup
        from repro.gpusim.device import GTX_980
        print("\n=== Section V related work ===")
        for name in ("citeseer", "dblp"):
            r = compare_with_green(*scaled_setup(name, GTX_980, args.seed))
            print(f"  vs Green [15] on {name}: {r.summary()}")
        for name in ("ba", "ws"):
            r = compare_with_leist(*scaled_setup(name, GTX_980, args.seed))
            print(f"  vs Leist [13] on {name}: {r.summary()}")

    if "sweep" in commands:
        from repro.bench.sweep import scale_sweep
        print("\n=== scale-convergence sweep (E16) ===")
        for name in (args.workloads or ["ws"]):
            print(scale_sweep(name, seed=args.seed).summary())

    if "profile" in commands:
        from repro.bench.runner import scaled_setup
        from repro.gpusim.device import GTX_980
        print("\n=== nvprof-style kernel profile ===")
        for name in (args.workloads or ["livejournal"]):
            g, dev = scaled_setup(name, GTX_980, args.seed)
            from repro.core.forward_gpu import gpu_count_triangles
            from repro.gpusim.memory import DeviceMemory
            run = gpu_count_triangles(g, device=dev,
                                      memory=DeviceMemory(dev))
            print(run.profile())

    if "serve" in commands:
        from repro.bench.experiments import serve_experiment
        print("\n=== serving mode — multi-tenant trace replay ===")
        exp = serve_experiment(fleet_spec=args.fleet,
                               duration_ms=args.duration * 1000.0,
                               rate_per_s=args.rate, seed=args.seed,
                               rate_multiplier=args.rate_multiplier or 1.0,
                               burst=args.burst or 1.0)
        print(exp.report.format_report())
        print(" ", exp.summary())
        _write(args.csv, "serve_jobs.csv", exp.report.jobs_csv())

    if "serve-scale" in commands:
        from repro.bench.serve_scale import run_serve_scale
        print("\n=== serve-scale — control-plane overload bench ===")
        res = run_serve_scale(fleet_spec=args.fleet,
                              duration_ms=args.duration * 1000.0,
                              rate_per_s=args.rate, seed=args.seed,
                              rate_multiplier=args.rate_multiplier or 10.0,
                              burst=args.burst or 4.0)
        print("  -- seed replay (plane off) --")
        print(res.seed_report.format_report())
        print("  -- plane replay --")
        print(res.plane_report.format_report())
        print(" ", res.summary())
        if not _gate_and_write(
                args, [c["detail"] for c in res.checks() if not c["passed"]],
                "plane replay lost/unanswered jobs or exact answers "
                "diverged", res.json_str(), "serve_scale.json"):
            return 1
        _write(args.csv, "serve_scale_jobs.csv",
               res.plane_report.jobs_csv())

    if "overlap" in commands:
        from repro.bench.overlap import run_overlap
        print("\n=== executed overlap — measured schedule vs model ===")
        report = run_overlap(seed=args.seed,
                             progress=lambda r: print("  " + r.summary(),
                                                      flush=True))
        print(f"  max model drift: {report.max_drift * 100:.2f}%   "
              f"min savings: {report.min_savings_frac * 100:.2f}%")
        if not _gate_and_write(args, report.problems(),
                               "executed-overlap contracts violated",
                               report.json_str(), "overlap.json"):
            return 1

    if "kernelzoo" in commands:
        from repro.bench.kernelzoo import run_kernelzoo
        print("\n=== kernelzoo — per-kernel timings over the "
              "calibration zoo ===")
        report = run_kernelzoo(
            seed=args.seed,
            progress=lambda c: print("  " + c.summary(), flush=True))
        if not _gate_and_write(args, report.problems(),
                               "kernelzoo identity/self-consistency "
                               "violated", report.json_str(),
                               "kernelzoo.json"):
            return 1

    if "analyze" in commands:
        from repro.analyze.run import run_repo_analysis
        print("\n=== analyze — static invariants "
              "(CFG dataflow, SAN100-SAN205b) ===")
        analysis = run_repo_analysis()
        print("  " + analysis.summary().replace("\n", "\n  "))
        if not analysis.ok:
            print("  FAIL: new static-analysis findings (or stale "
                  "baseline entries); see repro-analyze")
            return 1

    if "sanitize" in commands:
        from repro.sanitize.matrix import run_sanitize_matrix
        print("\n=== sanitize — clean-kernel matrix "
              "(memcheck+initcheck+racecheck) ===")
        sm = run_sanitize_matrix(strict=args.strict, seed=args.seed,
                                 progress=lambda c: print("  " + c.summary(),
                                                          flush=True))
        print(f"  mode={sm.mode} cells={len(sm.cells)} "
              f"findings={sm.findings} ok={sm.ok}")
        if not sm.ok:
            print("  FAIL: sanitizer findings or identity mismatch on "
                  "clean kernels")
            return 1

    if "baselines" in commands:
        print("\n=== Sections II-A / V baselines & approximations ===")
        g = get("kron17").build(seed=args.seed)
        print(" ", baseline_experiment(g, seed=args.seed).summary())

    return 0


if __name__ == "__main__":
    sys.exit(main())
