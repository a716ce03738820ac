#!/usr/bin/env python
"""One deliberately buggy kernel per sanitizer checker.

Drives the SIMT engine by hand (the way the counting kernels do) and
plants the three classic CUDA bugs ``compute-sanitizer`` exists for:

* an out-of-bounds read past an adjacency array      -> **memcheck**
* a read from ``cudaMalloc``-style uninitialized memory -> **initcheck**
* two warps bumping one counter without ``atomicAdd``   -> **racecheck**

Each run uses report mode, so execution continues and the findings
accumulate into one ``==SANITIZE==`` sheet; the last section shows the
strict-mode behaviour (a typed exception at the first finding) and that
the shipped pipeline is clean under the same checkers.

Run:  python examples/sanitize_demo.py
"""

import numpy as np

import repro
from repro.core.options import GpuOptions
from repro.errors import MemcheckError
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.sanitize import Sanitizer


def fresh_engine(sanitizer):
    device = repro.GTX_980
    memory = DeviceMemory(device)
    memory.sanitizer = sanitizer
    engine = SimtEngine(device, LaunchConfig(32, 1), sanitizer=sanitizer)
    return memory, engine


def main() -> None:
    san = Sanitizer(mode="report")
    memory, engine = fresh_engine(san)
    ws = engine.warp_size

    # -- memcheck: lane 3 walks one element past its adjacency list. ---- #
    adj = memory.alloc("adj", np.arange(16, dtype=np.int64))
    engine.read_compacted(adj, np.array([2, 16]), np.array([0, 3]))
    engine.end_step_warps("setup", np.array([0]), np.array([2]), 4)

    # -- initcheck: summing a result buffer nobody wrote. --------------- #
    result = memory.alloc_empty("result", 8, np.int64)
    engine.read_compacted(result, np.arange(8), np.arange(8))
    engine.end_step_warps("reduce", np.array([0]), np.array([8]), 2)

    # -- racecheck: warps 0 and 1 both bump counter[5], no atomicAdd. --- #
    counts = memory.alloc("counts", np.zeros(8, np.int64))
    engine.write(counts, np.array([5]), np.array([1]), np.array([0]))
    engine.write(counts, np.array([5]), np.array([1]), np.array([ws]))
    engine.end_step_warps("merge", np.array([0, 1]), np.array([1, 1]), 6)

    print(san.format_report())
    assert san.counts() == {"memcheck": 1, "initcheck": 1, "racecheck": 1}

    # -- strict mode raises the typed error instead. -------------------- #
    strict = Sanitizer(mode="strict")
    memory, engine = fresh_engine(strict)
    adj = memory.alloc("adj", np.arange(16, dtype=np.int64))
    try:
        engine.read_compacted(adj, np.array([99]), np.array([0]))
    except MemcheckError as exc:
        print(f"\nstrict mode: {type(exc).__name__}: {exc}")

    # -- and the real pipeline is clean under all three checkers. ------- #
    graph = repro.generators.barabasi_albert(300, 8, seed=0)
    run = repro.gpu_count_triangles(graph,
                                    options=GpuOptions(sanitize="strict"))
    print(f"\nclean pipeline: {run.triangles} triangles, "
          f"{len(run.sanitizer_reports)} findings under strict mode")


if __name__ == "__main__":
    main()
