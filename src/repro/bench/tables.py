"""Renderers for Table I and Table II, paper vs. measured.

Measured times are *simulated milliseconds at mini scale* — they are not
comparable in absolute value to the paper's full-scale milliseconds, so
the tables put the dimensionless columns (speedups, hit rates, ``†``
markers) side by side and keep both time columns for reference.
"""

from __future__ import annotations

import io

from repro.bench.runner import RowResult


def render_table1(rows: list[RowResult]) -> str:
    """ASCII rendering of Table I with the published numbers inline."""
    out = io.StringIO()
    header = (f"{'Graph':<14} {'Nodes':>9} {'Arcs':>9} {'Triangles':>11} | "
              f"{'CPU [ms]':>10} | "
              f"{'C2050 x':>8} {'(paper)':>8} | "
              f"{'4xC2050 x':>9} {'(paper)':>8} | "
              f"{'GTX980 x':>9} {'(paper)':>8}")
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in rows:
        paper = row.workload.paper
        d1 = "†" if row.dagger_c2050 else " "
        d4 = "†" if row.dagger_quad else " "
        p1 = "†" if paper.dagger_c2050 else " "
        p4 = "†" if paper.dagger_quad else " "
        out.write(
            f"{row.workload.title:<14} {row.num_nodes:>9} {row.num_arcs:>9} "
            f"{row.triangles:>11} | {row.cpu_ms:>10.1f} | "
            f"{d1}{row.c2050_speedup:>7.2f} {p1}{paper.c2050_speedup:>7.2f} | "
            f"{d4}{row.quad_speedup:>8.2f} {p4}{paper.quad_speedup:>7.2f} | "
            f"{row.gtx980_speedup:>9.2f} {paper.gtx980_speedup:>8.2f}\n")
    out.write("\nSpeedups: GPU-over-CPU for single cards, 4-GPU-over-1-GPU "
              "for the quad column.\n† = graph did not fit device memory; "
              "CPU preprocessing fallback ran (Section III-D6).\n")
    return out.getvalue()


def render_table2(rows: list[RowResult]) -> str:
    """ASCII rendering of Table II (GTX 980 profiling), paper vs measured."""
    out = io.StringIO()
    header = (f"{'Graph':<14} | {'hit %':>7} {'(paper)':>8} | "
              f"{'BW GB/s':>8} {'(paper)':>8} | {'bound':>8}")
    out.write(header + "\n")
    out.write("-" * len(header) + "\n")
    for row in rows:
        if row.gtx980 is None:
            continue
        paper = row.workload.paper
        out.write(
            f"{row.workload.title:<14} | {row.cache_hit_pct:>7.2f} "
            f"{paper.cache_hit_pct:>8.2f} | {row.bandwidth_gbs:>8.2f} "
            f"{paper.bandwidth_gbs:>8.2f} | "
            f"{row.gtx980.kernel_timing.bound:>8}\n")
    return out.getvalue()


def table1_csv(rows: list[RowResult]) -> str:
    """Machine-readable Table I (+ Table II columns)."""
    out = io.StringIO()
    out.write("name,scale,nodes,arcs,triangles,cpu_ms,"
              "c2050_ms,c2050_speedup,c2050_dagger,"
              "quad_ms,quad_speedup,quad_dagger,"
              "gtx980_ms,gtx980_speedup,cache_hit_pct,bandwidth_gbs,"
              "paper_c2050_speedup,paper_quad_speedup,paper_gtx980_speedup,"
              "paper_cache_hit_pct,paper_bandwidth_gbs\n")
    for r in rows:
        p = r.workload.paper
        out.write(
            f"{r.workload.name},{r.scale:.6g},{r.num_nodes},{r.num_arcs},"
            f"{r.triangles},{r.cpu_ms:.4f},"
            f"{r.c2050.total_ms if r.c2050 else ''},"
            f"{r.c2050_speedup:.3f},{int(r.dagger_c2050)},"
            f"{r.quad.total_ms if r.quad else ''},"
            f"{r.quad_speedup:.3f},{int(r.dagger_quad)},"
            f"{r.gtx980.total_ms if r.gtx980 else ''},"
            f"{r.gtx980_speedup:.3f},{r.cache_hit_pct:.2f},"
            f"{r.bandwidth_gbs:.2f},"
            f"{p.c2050_speedup},{p.quad_speedup},{p.gtx980_speedup},"
            f"{p.cache_hit_pct},{p.bandwidth_gbs}\n")
    return out.getvalue()
