#!/usr/bin/env python
"""Kernel strategy shoot-out: the paper's kernel vs. the Section V rival.

Runs the paper's thread-per-edge two-pointer kernel and a warp-per-edge
parallel-intersection kernel (the strategy of Green et al. [15]) on the
same graph, each through the one launch lifecycle, then prints both nvprof-style profiles side by
side — the memory-system numbers show *why* each one is fast or slow,
which is the whole point of simulating instead of estimating.

Spoiler (see EXPERIMENTS.md E14): in this simulator the idealized rival
strategy wins on co-paper-like graphs — its lanes probe one shared list
and coalesce, while the paper's kernel scatters 32 lanes across 32
unrelated lists.  The paper measured the opposite against the rival's
*full system*; the difference is that system's overhead, not the
strategy.

Run:  python examples/related_work.py
"""

import repro
from repro.gpusim.profiler import format_kernel_profile
from repro.runtime import LaunchPlan, launch

KERNELS = (
    ("two_pointer", "CountTriangles (paper, thread-per-edge merge)"),
    ("warp_intersect", "WarpIntersect (Green-style, warp-per-edge binary "
                       "search)"),
)


def main() -> None:
    # A co-paper-style graph (union of author cliques, like Citeseer).
    graph = repro.generators.clique_cover(2000, 700, mean_group_size=14,
                                          seed=3)
    device = repro.GTX_980
    print(f"graph: {graph}  device: {device.name}\n")

    runs = []
    for kernel, label in KERNELS:
        run = launch(LaunchPlan(graph=graph, device=device,
                                options=repro.GpuOptions(kernel=kernel)))
        print(format_kernel_profile(run.report, run.timing, name=label))
        runs.append(run)

    merge, warp = runs
    assert merge.triangles == warp.triangles
    ratio = warp.timing.kernel_ms / merge.timing.kernel_ms
    print(f"both count {merge.triangles:,} triangles; "
          f"warp-intersect / two-pointer time = {ratio:.2f}")
    print("note the transactions-per-request rows above: that asymmetry "
          "is the entire story.")


if __name__ == "__main__":
    main()
