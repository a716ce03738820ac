"""Figure 1: runtime vs. graph size for the Kronecker R-MAT family.

The paper plots wall-clock milliseconds (log) against node count (log)
for four series: CPU, one Tesla C2050, four C2050s, one GTX 980.  The
reproduction plots simulated milliseconds at mini scale; the claims the
figure carries — straight near-parallel lines (polynomial scaling), the
CPU line far above, the quad line peeling away from the single C2050 as
graphs grow — are scale-free.
"""

from __future__ import annotations

import io
import math

from repro.bench.runner import RowResult

SERIES = ("cpu", "c2050", "quad", "gtx980")
_LABEL = {"cpu": "CPU", "c2050": "Tesla C2050", "quad": "4x Tesla C2050",
          "gtx980": "GTX 980"}


def series_points(rows: list[RowResult]) -> dict[str, list[tuple[int, float]]]:
    """(nodes, ms) points per series, in ascending node order."""
    out: dict[str, list[tuple[int, float]]] = {s: [] for s in SERIES}
    for row in sorted(rows, key=lambda r: r.num_nodes):
        out["cpu"].append((row.num_nodes, row.cpu_ms))
        if row.c2050:
            out["c2050"].append((row.num_nodes, row.c2050.total_ms))
        if row.quad:
            out["quad"].append((row.num_nodes, row.quad.total_ms))
        if row.gtx980:
            out["gtx980"].append((row.num_nodes, row.gtx980.total_ms))
    return out


def figure1_csv(rows: list[RowResult]) -> str:
    out = io.StringIO()
    out.write("name,nodes,arcs,cpu_ms,c2050_ms,quad_ms,gtx980_ms\n")
    for r in sorted(rows, key=lambda x: x.num_nodes):
        out.write(f"{r.workload.name},{r.num_nodes},{r.num_arcs},"
                  f"{r.cpu_ms:.4f},"
                  f"{r.c2050.total_ms if r.c2050 else ''},"
                  f"{r.quad.total_ms if r.quad else ''},"
                  f"{r.gtx980.total_ms if r.gtx980 else ''}\n")
    return out.getvalue()


def render_figure1(rows: list[RowResult], width: int = 72,
                   height: int = 24) -> str:
    """ASCII log-log scatter of the four series (the paper's Figure 1)."""
    pts = series_points(rows)
    all_xy = [(x, y) for series in pts.values() for (x, y) in series if y > 0]
    if not all_xy:
        return "(no data)\n"
    lx = [math.log10(x) for x, _ in all_xy]
    ly = [math.log10(y) for _, y in all_xy]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    x1 = x1 if x1 > x0 else x0 + 1
    y1 = y1 if y1 > y0 else y0 + 1

    grid = [[" "] * width for _ in range(height)]
    marks = {"cpu": "C", "c2050": "t", "quad": "q", "gtx980": "G"}
    for series, mark in marks.items():
        for x, y in pts[series]:
            if y <= 0:
                continue
            col = int((math.log10(x) - x0) / (x1 - x0) * (width - 1))
            rrow = int((math.log10(y) - y0) / (y1 - y0) * (height - 1))
            grid[height - 1 - rrow][col] = mark

    out = io.StringIO()
    out.write("Figure 1 — time [ms, log] vs nodes [log], Kronecker R-MAT\n")
    out.write(f"  legend: C={_LABEL['cpu']}  t={_LABEL['c2050']}  "
              f"q={_LABEL['quad']}  G={_LABEL['gtx980']}\n")
    out.write("  " + "-" * width + "\n")
    for line in grid:
        out.write("  |" + "".join(line) + "\n")
    out.write("  " + "-" * width + "\n")
    out.write(f"  x: 10^{x0:.1f} .. 10^{x1:.1f} nodes;  "
              f"y: 10^{y0:.2f} .. 10^{y1:.2f} ms\n")
    return out.getvalue()


def check_figure1_shape(rows: list[RowResult]) -> list[str]:
    """The figure's qualitative claims; returns a list of violations.

    * the CPU series sits above every GPU series at every size;
    * every series grows monotonically with graph size (mild noise at
      the overhead-dominated low end is tolerated via a 10% slack);
    * the 4-GPU advantage over one C2050 widens as graphs grow.
    """
    problems = []
    pts = series_points(rows)
    for (x, cpu_ms), (_, t_ms), (_, g_ms) in zip(
            pts["cpu"], pts["c2050"], pts["gtx980"]):
        if not (cpu_ms > t_ms and cpu_ms > g_ms):
            problems.append(f"CPU not slowest at {x} nodes")
    for series, series_pts in pts.items():
        for (xa, ya), (xb, yb) in zip(series_pts, series_pts[1:]):
            if yb < ya * 0.9:
                problems.append(
                    f"{series} shrank from {ya:.3g} to {yb:.3g} ms "
                    f"between {xa} and {xb} nodes")
    quad_gain = [one / four for (_, one), (_, four)
                 in zip(pts["c2050"], pts["quad"])]
    if len(quad_gain) >= 2 and not quad_gain[-1] > quad_gain[0]:
        problems.append("quad advantage does not widen with size")
    return problems
