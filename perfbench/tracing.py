"""Spans around calls into the program's layers, recorded from outside.

Nothing here edits the program: :class:`Hooks` rebinds public functions
and methods for the length of one traced iteration and restores them
afterwards.  A function is rebound under every name it is looked up by
(``repro.runtime.launch`` imports ``preprocess`` by name, so patching
``repro.core.preprocess.preprocess`` alone would miss that call).

Spans nest through a stack.  A span's *self* time is its duration minus
the durations of its direct child spans; durations are integer
nanoseconds, so the arithmetic is exact and a child can exceed its
parent only if the clock misbehaves (counted in ``Tracer.violations``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns


class Tracer:
    """Aggregates spans by name: calls, total and self nanoseconds."""

    def __init__(self, clock=perf_counter_ns) -> None:
        self._clock = clock                    # integer nanoseconds
        self._stack: list[list[int]] = []      # [start_ns, child_ns]
        #: name -> [calls, total_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        #: free-form per-layer counts (lanes, lines, ticks ...)
        self.counts: dict[str, int] = {}
        #: live lanes of every step tick, in tick order
        self.step_lanes: list[int] = []
        #: spans whose children summed to more than the span itself
        self.violations = 0

    def enter(self) -> None:
        self._stack.append([self._clock(), 0])

    def exit(self, name: str) -> None:
        end = self._clock()
        start, child = self._stack.pop()
        dur = end - start
        if child > dur:
            self.violations += 1
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] * 1e-9

    def self_seconds(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] * 1e-9


def spanned(tracer: Tracer, name: str, fn, observe=None):
    """``fn`` wrapped in a span; ``observe(args, kwargs)`` runs first."""
    enter, exit_ = tracer.enter, tracer.exit

    if observe is None:
        def wrapper(*args, **kwargs):
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name)
    else:
        def wrapper(*args, **kwargs):
            observe(args, kwargs)
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name)
    return functools.wraps(fn)(wrapper)


class Hooks:
    """Reversible rebinding of the program's functions and methods.

    A target that does not exist (the program was refactored) is
    recorded in :attr:`missing` instead of failing the run, so the
    untouched layers are still measured.
    """

    def __init__(self, package: str = "repro") -> None:
        self.package = package
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == self.package
                                    or name.startswith(prefix)):
                yield mod

    def function(self, module: str, attr: str, make,
                 everywhere: bool = True) -> None:
        """Rebind ``module.attr`` to ``make(original)`` wherever the
        original object is bound in the package's loaded modules (only
        in ``module`` itself when ``everywhere`` is false)."""
        try:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for owner in self._modules() if everywhere else (mod,):
            names = [k for k, v in vars(owner).items() if v is original]
            for k in names:
                self._undo.append((owner, k, original))
                setattr(owner, k, wrapper)

    def method(self, module: str, cls_name: str, attr: str, make) -> None:
        """Rebind method ``attr`` of ``module.cls_name`` to
        ``make(original)``."""
        try:
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Hooks":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def _arg(args, kwargs, index: int, name: str):
    """Positional-or-keyword argument lookup for observers."""
    return args[index] if len(args) > index else kwargs.get(name)


def install_layer_hooks(hooks: Hooks, tracer: Tracer) -> None:
    """Spans around the public entry points of every measured layer.

    Span names are the layer metric prefixes of the benchmark (see the
    README's metric table).
    """
    def span(name, observe=None):
        return lambda fn: spanned(tracer, name, fn, observe)

    # core.preprocess, runtime, core (kernel), cpu.approx, core.distributed
    hooks.function("repro.core.preprocess", "preprocess", span("preprocess"))
    hooks.function("repro.runtime.launch", "launch", span("runtime.launch"))
    hooks.function("repro.runtime.launch", "dispatch_kernel", span("kernel"))
    hooks.function("repro.cpu.approx.doulion", "doulion_count",
                   span("approx.doulion"))
    hooks.function("repro.core.distributed", "distributed_count_triangles",
                   span("distributed"))

    # core.intersect: the registered strategies' per-tick entry points.
    try:
        intersect = importlib.import_module("repro.core.intersect")
        classes = {type(intersect.get_strategy(n))
                   for n in intersect.strategy_names()}
    except (ImportError, AttributeError):
        hooks.missing.append("repro.core.intersect")
        classes = set()
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        hooks.method(cls.__module__, cls.__qualname__, "begin",
                     span("intersect.begin"))
        hooks.method(cls.__module__, cls.__qualname__, "step",
                     span("intersect.step"))

    # gpusim.simt
    def on_read(args, kwargs):
        tracer.add("simt.read.lanes", len(_arg(args, kwargs, 2, "indices")))

    def on_atomic(args, kwargs):
        tracer.add("simt.atomic.lanes", len(_arg(args, kwargs, 2, "indices")))

    def on_tick(args, kwargs):
        kind = _arg(args, kwargs, 1, "kind")
        if kind == "setup":
            tracer.add("kernel.ticks.setup", 1)
        else:
            tracer.add("kernel.ticks.step", 1)
            tracer.step_lanes.append(
                int(_arg(args, kwargs, 3, "lane_counts").sum()))

    simt = "repro.gpusim.simt"
    hooks.method(simt, "SimtEngine", "read_compacted",
                 span("simt.read", on_read))
    hooks.method(simt, "SimtEngine", "atomic_add",
                 span("simt.atomic", on_atomic))
    hooks.method(simt, "SimtEngine", "end_step_warps",
                 span("simt.accounting", on_tick))

    # gpusim.cache: one CacheArray holds the L2 (one instance), another
    # the per-SM L1s (one instance per SM).
    def make_probe(fn):
        enter, exit_ = tracer.enter, tracer.exit

        def probe_unique(self, *args, **kwargs):
            level = "cache.l1" if self.num_instances > 1 else "cache.l2"
            tracer.add(level + ".lines",
                       len(_arg((self,) + args, kwargs, 2, "u_line")))
            enter()
            try:
                return fn(self, *args, **kwargs)
            finally:
                exit_(level)
        return functools.wraps(fn)(probe_unique)

    hooks.method("repro.gpusim.cache", "CacheArray", "probe_unique",
                 make_probe)

    # serve
    hooks.method("repro.serve.scheduler", "FleetScheduler", "run",
                 span("serve.replay"))
    hooks.method("repro.serve.plane.control", "ControlPlane",
                 "admission_pass", span("serve.admission"))
    hooks.method("repro.serve.plane.degraded", "DegradedTier", "answer",
                 span("serve.degraded"))

    def count_gpu_runs(fn):
        @functools.wraps(fn)
        def gpu_count_triangles(*args, **kwargs):
            tracer.add("serve.gpu_runs", 1)
            return fn(*args, **kwargs)
        return gpu_count_triangles

    # Only the scheduler's own binding: distributed runs call the same
    # function per part and are counted under ``distributed``.
    hooks.function("repro.serve.scheduler", "gpu_count_triangles",
                   count_gpu_runs, everywhere=False)
