"""Benchmark harness: regenerates every table and figure of the paper.

* :mod:`~repro.bench.runner` — runs one Table I row (CPU + all device
  configurations) and returns measured numbers next to the published ones;
* :mod:`~repro.bench.tables` — ASCII/CSV renderers for Tables I and II;
* :mod:`~repro.bench.figures` — the Figure 1 Kronecker scaling series;
* :mod:`~repro.bench.calibration` — the timing-model constants' single
  source of truth and the band checks;
* :mod:`~repro.bench.reproduce` — the one-command reproduction bundle
  (``scripts/reproduce_all``): every table, figure and E1–E16 claim
  check of the paper's evaluation in one ``summary.json``;
* :mod:`~repro.bench.cli` — the ``repro-bench`` command, one subcommand
  per experiment.

EXPERIMENTS.md records one full run of the bundle.
"""

from repro.bench.runner import RowResult, run_workload, run_table1
from repro.bench import tables, figures, calibration

__all__ = ["RowResult", "run_workload", "run_table1", "tables", "figures",
           "calibration"]
