"""Per-module analysis context shared by every check.

One :class:`ModuleContext` is built per analyzed file: the parsed tree,
a parent map, suppression tables (with the SAN100 bare-suppression
diagnostics), the legacy scope decomposition the SAN101/SAN102 rules
are specified over, numpy import aliases for SAN103, and a cache of
per-function CFGs so several checks can share one construction.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from functools import cached_property
from pathlib import Path

from repro.analyze.cfg import CFG, build_cfg
from repro.analyze.findings import Finding

_RULE_RE = re.compile(r"SAN\d{3}\w*")

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


class ModuleContext:
    """Everything a check needs to analyze one module.

    Raises ``SyntaxError`` from the constructor when the source does
    not parse — the driver turns that into a SAN000 record and the
    exit-code-2 contract.
    """

    def __init__(self, source: str, path: str):
        self.source = source
        self.path = path
        self.tree: ast.Module = ast.parse(source, filename=path)
        self.parts: tuple[str, ...] = Path(path).parts
        (self.line_suppressions, self.module_allow,
         self.bare_suppressions) = _suppressions(source, path)

    # ------------------------------------------------------------- #
    # structure
    # ------------------------------------------------------------- #

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent for every node in the tree."""
        parent_of: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                parent_of[child] = node
        return parent_of

    @cached_property
    def functions(self) -> list[FunctionNode]:
        """Every function in the module, nested ones included, in
        source order."""
        return [node for node in ast.walk(self.tree)
                if isinstance(node, _FUNC_NODES)]

    @cached_property
    def outermost_functions(self) -> list[FunctionNode]:
        """Functions with no enclosing function (methods count)."""
        found: list[FunctionNode] = []

        def visit(node: ast.AST, in_func: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _FUNC_NODES):
                    if not in_func:
                        found.append(child)
                    visit(child, True)
                else:
                    visit(child, in_func)

        visit(self.tree, False)
        return found

    @cached_property
    def module_scope_roots(self) -> list[ast.AST]:
        """Every node reachable from the module without entering a
        function body — the module pseudo-scope."""
        roots: list[ast.AST] = []
        stack: list[ast.AST] = [self.tree]
        while stack:
            for child in ast.iter_child_nodes(stack.pop()):
                if isinstance(child, _FUNC_NODES):
                    continue
                roots.append(child)
                stack.append(child)
        return roots

    def scopes(self) -> list[ast.AST | list[ast.AST]]:
        """The legacy scope decomposition (module pseudo-scope first,
        then each outermost function) that SAN101/SAN102 are specified
        over; see :func:`scope_nodes`."""
        out: list[ast.AST | list[ast.AST]] = [self.module_scope_roots]
        out.extend(self.outermost_functions)
        return out

    def cfg(self, node: FunctionNode | ast.Module) -> CFG:
        """The (cached) CFG of one function body or the module."""
        cache = self._cfg_cache
        key = id(node)
        if key not in cache:
            cache[key] = build_cfg(node)
        return cache[key]

    @cached_property
    def _cfg_cache(self) -> dict[int, CFG]:
        return {}

    # ------------------------------------------------------------- #
    # numpy.random import aliases (SAN103)
    # ------------------------------------------------------------- #

    @cached_property
    def numpy_random_bases(self) -> set[str]:
        """Names bound to the ``numpy.random`` *module* itself
        (``from numpy import random [as r]``, ``import numpy.random
        as nr``)."""
        bases: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy.random" and alias.asname:
                        bases.add(alias.asname)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            bases.add(alias.asname or "random")
        return bases

    @cached_property
    def numpy_random_members(self) -> dict[str, str]:
        """Local name -> original member for ``from numpy.random
        import rand [as r]`` style imports."""
        members: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "numpy.random":
                for alias in node.names:
                    members[alias.asname or alias.name] = alias.name
        return members

    # ------------------------------------------------------------- #
    # suppression application
    # ------------------------------------------------------------- #

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.module_allow:
            return True
        return finding.rule in self.line_suppressions.get(finding.line,
                                                          set())


def scope_nodes(scope: ast.AST | list[ast.AST]) -> list[ast.AST]:
    """Flat node list of one legacy scope.  The module pseudo-scope is
    already pruned of function bodies; a function scope keeps its
    nested helpers (an ``end_step_warps`` in the outer loop covers reads
    in an inner ``_adj_read``)."""
    if isinstance(scope, list):
        return scope
    return list(ast.walk(scope))


def _suppressions(source: str, path: str,
                  ) -> tuple[dict[int, set[str]], set[str], list[Finding]]:
    """Parse suppression comments.

    Returns ``(line -> waived rules, module-wide waived rules, SAN100
    findings)``.  A ``san-ok`` or ``repro-lint: allow=`` comment that
    names no rule id is the SAN100 lint error: historically a bare
    ``# san-ok`` silently waived nothing (or, depending on comment
    position, read as waiving everything) — now it is an explicit
    finding and still waives nothing.
    """
    per_line: dict[int, set[str]] = {}
    module: set[str] = set()
    bare: list[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string
            if "repro-lint:" in text and "allow=" in text:
                rules = _RULE_RE.findall(text.split("allow=", 1)[1])
                if rules:
                    module.update(rules)
                else:
                    bare.append(Finding(
                        path=path, line=tok.start[0], col=tok.start[1],
                        rule="SAN100",
                        message="suppression missing rule id: "
                                "'repro-lint: allow=' must name the "
                                "rule(s) it waives, e.g. allow=SAN101"))
            elif "san-ok" in text:
                rules = _RULE_RE.findall(text.split("san-ok", 1)[1])
                if rules:
                    per_line.setdefault(tok.start[0], set()).update(rules)
                else:
                    bare.append(Finding(
                        path=path, line=tok.start[0], col=tok.start[1],
                        rule="SAN100",
                        message="suppression missing rule id: "
                                "'# san-ok' must name the rule it "
                                "waives, e.g. '# san-ok: SAN101'"))
    except tokenize.TokenError:
        pass  # syntax problems surface via ast.parse instead
    return per_line, module, bare
