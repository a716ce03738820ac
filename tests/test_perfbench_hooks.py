"""The repo benchmark's layer hooks resolve against the program.

``perfbench/tracing.install_layer_hooks`` wraps public functions and
methods of every measured layer by name; a renamed or removed target is
only recorded in ``Hooks.missing``, so a refactor would silently drop a
layer from the traced ledger.  This test makes that a failure.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.gpusim.simt import SimtEngine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = SimtEngine.read_compacted
    with tracing.Hooks() as hooks:
        tracing.install_layer_hooks(hooks, tracing.Tracer())
        assert hooks.missing == []
        assert SimtEngine.read_compacted is not original
    assert SimtEngine.read_compacted is original
