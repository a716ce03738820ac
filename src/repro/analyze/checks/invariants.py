"""SAN100–SAN105 — the simulator-invariant rules, rebased onto the
plugin framework.

Same ids, same suppressions, same findings (file:line:rule) as the
pre-refactor flat walker in ``repro.sanitize.lint`` — pinned by
``tests/test_sanitize.py`` — plus the two fixes that motivated the
rebase: SAN100 (a suppression comment that names no rule id is an
explicit error instead of silently waiving nothing-or-everything) and
the SAN103 import-alias blind spot (``from numpy import random`` /
``from numpy.random import rand`` now resolve through the import
table instead of escaping the ``np.random.*`` attribute match).
"""

from __future__ import annotations

import ast

from repro.analyze.context import ModuleContext, scope_nodes
from repro.analyze.findings import Finding
from repro.analyze.registry import CheckSpec, register

_ALLOC_METHODS = {"alloc", "alloc_empty", "try_alloc"}
_READ_ATTRS = {"read_compacted"}
_END_ATTRS = {"end_step_warps"}
_SAFE_RANDOM = {"default_rng", "Generator", "SeedSequence", "BitGenerator"}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


# --------------------------------------------------------------------- #
# SAN100 — bare suppressions (parsed by the context)
# --------------------------------------------------------------------- #

def _run_san100(ctx: ModuleContext) -> list[Finding]:
    return list(ctx.bare_suppressions)


SAN100 = register(CheckSpec(
    id="SAN100", name="bare-suppression",
    summary="suppression comment (# san-ok / repro-lint: allow=) "
            "missing the rule id it waives",
    severity="error", run=_run_san100))


# --------------------------------------------------------------------- #
# SAN101 — DeviceBuffer payload access outside the model
# --------------------------------------------------------------------- #

def _annotation_mentions_devicebuffer(ann: ast.AST | None) -> bool:
    if ann is None:
        return False
    try:
        text = ast.unparse(ann)
    except Exception:
        return False
    return "DeviceBuffer" in text


def _buffer_names(nodes: list[ast.AST],
                  scope: ast.AST | list[ast.AST]) -> set[str]:
    """Names bound to DeviceBuffers in this scope, by dataflow:
    results of allocator calls, and parameters annotated DeviceBuffer."""
    names: set[str] = set()
    if isinstance(scope, _FUNC_NODES):
        args = scope.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs
                    + [a for a in (args.vararg, args.kwarg) if a]):
            if _annotation_mentions_devicebuffer(arg.annotation):
                names.add(arg.arg)
    for node in nodes:
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        elif isinstance(node, ast.NamedExpr):
            value, targets = node.value, [node.target]
        if value is None:
            continue
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _ALLOC_METHODS):
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
    return names


def _run_san101(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    for scope in ctx.scopes():
        nodes = scope_nodes(scope)
        buffers = _buffer_names(nodes, scope)
        if not buffers:
            continue
        for node in nodes:
            if (isinstance(node, ast.Attribute) and node.attr == "data"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in buffers):
                out.append(SAN101.finding(
                    ctx.path, node.lineno, node.col_offset,
                    f"direct payload access {node.value.id}.data bypasses "
                    "the memory model; use engine.read/write or "
                    "gpusim.thrustlike"))
    return out


SAN101 = register(CheckSpec(
    id="SAN101", name="payload-access",
    summary="DeviceBuffer payload (.data) accessed outside repro.gpusim",
    severity="error", run=_run_san101,
    skip_parts=("gpusim", "sanitize")))


# --------------------------------------------------------------------- #
# SAN102 — engine reads with no end_step_warps accounting in scope
# --------------------------------------------------------------------- #

def _is_read_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in _READ_ATTRS


def _san102_scope(ctx: ModuleContext,
                  nodes: list[ast.AST]) -> list[Finding]:
    read_aliases: set[str] = set()
    end_aliases: set[str] = set()
    for node in nodes:
        if not isinstance(node, (ast.Assign, ast.NamedExpr)):
            continue
        value = node.value
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        candidates = [value]
        if isinstance(value, ast.IfExp):  # r = a.read_compacted if c else g
            candidates = [value.body, value.orelse]
        for cand in candidates:
            if _is_read_attr(cand):
                read_aliases.update(t.id for t in targets
                                    if isinstance(t, ast.Name))
            elif (isinstance(cand, ast.Attribute)
                  and cand.attr in _END_ATTRS):
                end_aliases.update(t.id for t in targets
                                   if isinstance(t, ast.Name))

    reads: list[ast.Call] = []
    has_end = False
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            # Engine reads take (buf, indices, thread_ids).
            if func.attr in _READ_ATTRS and len(node.args) >= 2:
                reads.append(node)
            elif func.attr in _END_ATTRS:
                has_end = True
        elif isinstance(func, ast.Name):
            if func.id in read_aliases and len(node.args) >= 2:
                reads.append(node)
            elif func.id in end_aliases:
                has_end = True

    if not reads or has_end:
        return []
    first = min(reads, key=lambda c: (c.lineno, c.col_offset))
    return [SAN102.finding(
        ctx.path, first.lineno, first.col_offset,
        "engine read(s) in a scope that never calls end_step_warps — "
        "this traffic is invisible to the timing model")]


def _run_san102(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    for scope in ctx.scopes():
        out.extend(_san102_scope(ctx, scope_nodes(scope)))
    return out


SAN102 = register(CheckSpec(
    id="SAN102", name="unaccounted-reads",
    summary="engine read without end_step_warps in its scope",
    severity="error", run=_run_san102))


# --------------------------------------------------------------------- #
# SAN103 — global-state np.random outside the generators
# --------------------------------------------------------------------- #

def _run_san103(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    bases = ctx.numpy_random_bases
    members = ctx.numpy_random_members
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute):
            # np.random.<attr> / numpy.random.<attr>
            legacy = (isinstance(node.value, ast.Attribute)
                      and node.value.attr == "random"
                      and isinstance(node.value.value, ast.Name)
                      and node.value.value.id in ("np", "numpy"))
            # <alias>.<attr> where alias is the numpy.random module
            # (from numpy import random / import numpy.random as nr)
            aliased = (isinstance(node.value, ast.Name)
                       and node.value.id in bases)
            if (legacy or aliased) and node.attr not in _SAFE_RANDOM:
                out.append(SAN103.finding(
                    ctx.path, node.lineno, node.col_offset,
                    f"np.random.{node.attr} draws from global state; "
                    "use a seeded np.random.default_rng passed down "
                    "explicitly"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            # <name>(...) where name came from `from numpy.random import ...`
            member = members.get(node.func.id)
            if member is not None and member not in _SAFE_RANDOM:
                out.append(SAN103.finding(
                    ctx.path, node.lineno, node.col_offset,
                    f"np.random.{member} (imported as {node.func.id}) "
                    "draws from global state; use a seeded "
                    "np.random.default_rng passed down explicitly"))
    return out


SAN103 = register(CheckSpec(
    id="SAN103", name="global-random",
    summary="legacy np.random API outside repro.graphs.generators",
    severity="error", run=_run_san103,
    skip_parts=("generators",)))


# --------------------------------------------------------------------- #
# SAN104 — direct SimtEngine construction outside the runtime
# --------------------------------------------------------------------- #

def _run_san104(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name != "SimtEngine":
            continue
        out.append(SAN104.finding(
            ctx.path, node.lineno, node.col_offset,
            "direct SimtEngine construction bypasses the unified runtime; "
            "use repro.runtime.launch (full lifecycle) or "
            "repro.runtime.build_engine (harness timing)"))
    return out


SAN104 = register(CheckSpec(
    id="SAN104", name="engine-construction",
    summary="direct SimtEngine construction outside repro.gpusim/runtime",
    severity="error", run=_run_san104,
    skip_parts=("gpusim", "runtime")))


# --------------------------------------------------------------------- #
# SAN105 — StreamTimeline cursor pokes outside the runtime
# --------------------------------------------------------------------- #

def _run_san105(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Attribute)
                and node.attr == "_cursors"):
            continue
        out.append(SAN105.finding(
            ctx.path, node.lineno, node.col_offset,
            "._cursors is StreamTimeline-internal state; use "
            "stream_time() to read a stream clock and wait_for() to "
            "record ordering"))
    return out


SAN105 = register(CheckSpec(
    id="SAN105", name="cursor-pokes",
    summary="StreamTimeline._cursors accessed outside repro.runtime",
    severity="error", run=_run_san105,
    skip_parts=("runtime",)))
