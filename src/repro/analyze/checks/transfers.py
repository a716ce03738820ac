"""SAN205b — H2D/D2H transfer cost computed but never stamped on a
timeline.

``DeviceMemory.h2d_ms``/``d2h_ms`` *model* a transfer: they return the
milliseconds the copy would take and mutate nothing.  The cost only
exists once something stamps it — normally as an argument inside a
``Timeline.add``/``add_on`` call.  A transfer modeled and then
dropped is the simulator analogue of a real H2D the profiler never
sees: Table 1 and the figure-1 walls silently under-report copy time.

Two shapes are flagged:

* a bare expression statement — ``mem.h2d_ms(edges.nbytes)`` computed
  and immediately discarded;
* an assignment whose value is exactly the transfer call and whose
  bound name is never read afterwards in the enclosing scope.

Anything else (the call as an argument to another call, in arithmetic,
returned, folded into a forecast) is assumed used — downstream code
like the serving plane's admission forecasts legitimately consumes
transfer costs without a timeline.
"""

from __future__ import annotations

import ast

from repro.analyze.context import ModuleContext, scope_nodes
from repro.analyze.findings import Finding
from repro.analyze.registry import CheckSpec, register

_TRANSFER_ATTRS = {"h2d_ms", "d2h_ms"}


def _is_transfer(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _TRANSFER_ATTRS)


def _scope_findings(ctx: ModuleContext,
                    nodes: list[ast.AST]) -> list[Finding]:
    out: list[Finding] = []
    # Pass 1: names read anywhere in this scope (Load context).
    reads: dict[str, int] = {}
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] = reads.get(node.id, 0) + 1

    for node in nodes:
        if isinstance(node, ast.Expr) and _is_transfer(node.value):
            call = node.value
            assert isinstance(call, ast.Call)
            assert isinstance(call.func, ast.Attribute)
            out.append(SAN205B.finding(
                ctx.path, call.lineno, call.col_offset,
                f"{call.func.attr} result discarded — the modeled "
                "transfer cost never reaches a timeline; pass it to "
                "Timeline.add/add_on (or drop the call)"))
        elif isinstance(node, ast.Assign) and _is_transfer(node.value):
            call = node.value
            assert isinstance(call, ast.Call)
            assert isinstance(call.func, ast.Attribute)
            names = [t.id for t in node.targets
                     if isinstance(t, ast.Name)]
            if not names:
                continue
            if all(not reads.get(name) for name in names):
                out.append(SAN205B.finding(
                    ctx.path, call.lineno, call.col_offset,
                    f"{call.func.attr} result bound to "
                    f"{', '.join(repr(n) for n in names)} but never "
                    "read — the modeled transfer cost is never stamped "
                    "on a timeline"))
    return out


def _run_san205b(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    for scope in ctx.scopes():
        out.extend(_scope_findings(ctx, scope_nodes(scope)))
    return out


SAN205B = register(CheckSpec(
    id="SAN205b", name="untimed-transfers",
    summary="h2d_ms/d2h_ms transfer cost computed but never stamped on "
            "a Timeline",
    severity="error", run=_run_san205b,
    skip_parts=("gpusim",)))
