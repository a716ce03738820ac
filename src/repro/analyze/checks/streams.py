"""SAN202 — stream-wait hygiene over ``Timeline.wait_for`` edges.

The executed pipelines order real work with
``timeline.wait_for(stream, upstream)`` — the ``cudaStreamWaitEvent``
analogue: the waiting stream advances to everything *already issued* on
the upstream.  Two static bug shapes follow directly from that
semantics:

* **self-wait** — ``wait_for(s, s)`` is always a no-op and means the
  author confused the waiter with the upstream;
* **unrecorded event** — waiting on a non-default stream on which the
  scope never issued an event (``add_on(..., stream=u)``) before the
  wait: the edge pins to an empty clock, so the intended ordering
  silently does not exist.  A *pair* of reversed waits with nothing
  issued in between (``wait_for(a, b)`` … ``wait_for(b, a)``) is the
  degenerate cycle form of the same bug and is reported as a cycle.

Stream operands are matched symbolically (the unparsed expression, with
``DEFAULT_STREAM``/``0`` canonicalized), so ``COPY_STREAM``-style
ids resolve without constant folding.  Arithmetic stream ids (the
multi-GPU ring's ``wait_for(d, d - 1)``) are out of scope and skipped —
intraprocedural symbol matching cannot prove anything about them.
Waits on the default stream are always fine: host program order always
has issued work.  Symbolic upstreams are only checked in scopes that
issue their own ``add_on`` events; a helper that merely receives stream
ids cannot be judged intraprocedurally.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analyze.context import ModuleContext, scope_nodes
from repro.analyze.findings import Finding
from repro.analyze.registry import CheckSpec, register

_DEFAULT_KEYS = {"0", "DEFAULT_STREAM"}


def _stream_key(expr: ast.expr) -> str | None:
    """Canonical symbolic key of a stream operand, or ``None`` when the
    expression is not a symbol we can reason about (arithmetic, calls)."""
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, bool) or not isinstance(expr.value, int):
            return None
        return str(int(expr.value))
    if isinstance(expr, (ast.Name, ast.Attribute)):
        try:
            text = ast.unparse(expr)
        except Exception:
            return None
        if text == "DEFAULT_STREAM" or text.endswith(".DEFAULT_STREAM"):
            return "0"
        return text
    return None


@dataclass(frozen=True)
class _Wait:
    call: ast.Call
    stream: str | None
    upstream: str | None
    upstream_constant: bool


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _add_on_stream_key(call: ast.Call) -> str | None:
    """The stream an ``add_on(name, ms, phase, stream)`` call issues on."""
    for kw in call.keywords:
        if kw.arg == "stream":
            return _stream_key(kw.value)
    if len(call.args) >= 4:
        return _stream_key(call.args[3])
    return "0"


def _scope_findings(ctx: ModuleContext,
                    nodes: list[ast.AST]) -> list[Finding]:
    waits: list[_Wait] = []
    issues: list[tuple[int, str | None]] = []  # (line, stream key)
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        name = _called_name(node)
        if name == "wait_for" and len(node.args) == 2:
            upstream = node.args[1]
            waits.append(_Wait(
                call=node,
                stream=_stream_key(node.args[0]),
                upstream=_stream_key(upstream),
                upstream_constant=isinstance(upstream, ast.Constant)))
        elif name == "add_on":
            issues.append((node.lineno, _add_on_stream_key(node)))
        elif name == "add":
            issues.append((node.lineno, "0"))

    if not waits:
        return []
    out: list[Finding] = []
    waits.sort(key=lambda w: (w.call.lineno, w.call.col_offset))
    scope_issues_events = any(key not in _DEFAULT_KEYS
                              for _line, key in issues)

    def issued_before(key: str, line: int) -> bool:
        return any(k == key and issue_line < line
                   for issue_line, k in issues)

    # Degenerate cycles: a reversed wait pair with nothing issued on the
    # second wait's upstream between the two edges.
    cycle_members: set[int] = set()
    for i, first in enumerate(waits):
        for second in waits[i + 1:]:
            if None in (first.stream, first.upstream,
                        second.stream, second.upstream):
                continue
            if (first.stream, first.upstream) != (second.upstream,
                                                  second.stream):
                continue
            issued_between = any(
                k == second.upstream
                and first.call.lineno <= issue_line <= second.call.lineno
                for issue_line, k in issues)
            if issued_between:
                continue
            cycle_members.update({id(first.call), id(second.call)})
            out.append(SAN202.finding(
                ctx.path, second.call.lineno, second.call.col_offset,
                f"stream-wait cycle {first.stream} -> {first.upstream} "
                f"-> {first.stream} with no event recorded on stream "
                f"{second.upstream} between the edges (line "
                f"{first.call.lineno} and here) — the reversed wait "
                "pins to an empty clock"))

    for wait in waits:
        if wait.stream is not None and wait.stream == wait.upstream:
            out.append(SAN202.finding(
                ctx.path, wait.call.lineno, wait.call.col_offset,
                f"stream {wait.stream} waits on itself — wait_for(s, s) "
                "is a no-op; name the upstream stream the work was "
                "issued on"))
            continue
        if id(wait.call) in cycle_members:
            continue
        if wait.upstream is None or wait.upstream in _DEFAULT_KEYS:
            continue  # arithmetic ids / host order are out of scope
        if not wait.upstream_constant and not scope_issues_events:
            continue  # helper receiving stream ids; cannot judge here
        if not issued_before(wait.upstream, wait.call.lineno):
            out.append(SAN202.finding(
                ctx.path, wait.call.lineno, wait.call.col_offset,
                f"wait on stream {wait.upstream} but no event was "
                "recorded on it in this scope (unrecorded event) — "
                "the edge pins to an empty clock; issue the add_on "
                "before the wait_for"))
    return out


def _run_san202(ctx: ModuleContext) -> list[Finding]:
    out: list[Finding] = []
    for scope in ctx.scopes():
        out.extend(_scope_findings(ctx, scope_nodes(scope)))
    return out


SAN202 = register(CheckSpec(
    id="SAN202", name="stream-waits",
    summary="stream-wait cycle, self-wait, or wait on a stream with no "
            "recorded events (unrecorded event)",
    severity="error", run=_run_san202))
