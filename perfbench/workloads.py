"""The benchmark's workloads: inputs from a seed, one timed iteration,
and the checks of its output.

Every workload follows the same protocol, driven by ``run.py``:

* ``build(seed)`` makes the inputs (timed as set-up); it returns them
  with the seconds spent in the graph generators;
* ``oracle(inputs)`` computes the expected answers on the CPU, outside
  every timed region;
* ``prepare(inputs)`` makes the fresh per-iteration state (untimed);
* ``run(prepared)`` is the timed iteration;
* ``check(inputs, expected, result, launches)`` compares the output with
  the oracle and returns an :class:`Outcome`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.bench.serve_scale import failure_schedule
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.local_counts import gpu_local_counts
from repro.cpu.forward import forward_count_cpu
from repro.graphs.generators import (configuration_model,
                                     powerlaw_degree_sequence,
                                     watts_strogatz)
from repro.serve import (ControlPlane, Fleet, PlaneConfig, TraceConfig,
                         build_graph_pool, generate_trace, serve_trace,
                         size_fleet_memory)
from repro.serve.queue import DONE, LOST, PATH_GPU, SHED, TIER_APPROX
from tracing import Hooks

#: Simulated outputs pinned at the default seed (``--write-pins``).
PINS_PATH = Path(__file__).with_name("pins.json")
DEFAULT_SEED = 0


@dataclass
class Launch:
    """What one kernel launch reported, captured at ``runtime.launch``."""

    report: object            # repro.gpusim.simt.KernelReport
    forward_arcs: int


class LaunchCapture:
    """Records every kernel launch's report at ``runtime.launch`` while
    ``hooks`` are installed."""

    def __init__(self, hooks: Hooks) -> None:
        self.launches: list[Launch] = []

        def make(fn):
            def launch(*args, **kwargs):
                run = fn(*args, **kwargs)
                self.launches.append(Launch(run.report,
                                            run.pre.num_forward_arcs))
                return run
            return launch
        hooks.function("repro.runtime.launch", "launch", make)
        if hooks.missing:
            raise RuntimeError(f"cannot observe launches: {hooks.missing}")


@dataclass
class Outcome:
    """The checked result of one iteration."""

    jobs: int                 # operations the iteration was given
    answered: int             # ... and answered, exactly or approximately
    exact: int                # ... and answered with an exact count
    arcs: int                 # forward arcs of the inputs it answered
    sim_p99_ms: float         # simulated p99 job latency
    failures: list[str] = field(default_factory=list)
    #: simulated outputs that must repeat exactly on every iteration
    signature: object = None
    #: GPU-path jobs answered from ``PreprocessCache`` (serve only)
    cache_hit_frac: float = 0.0


def counters_doc(report) -> dict:
    """``KernelReport.counters()`` as plain JSON values."""
    return json.loads(json.dumps(report.counters()))


def single_launch_signature(launches: list[Launch], total_ms: float,
                            failures: list[str]) -> dict | None:
    if len(launches) != 1:
        failures.append(f"expected 1 kernel launch, saw {len(launches)}")
        return None
    return {"counters": counters_doc(launches[0].report),
            "total_ms": total_ms}


class Tail:
    """``gpu_count_triangles`` on the ``internet`` stand-in at 1/128.

    Seed 0 is exactly ``datasets.get("internet").build(1/128, 0)``; any
    other seed numbers its vertices anew (a uniform random permutation).
    Redrawing the degree sequence moved the wall time by the 4x spread of
    hub degrees, and rewiring the configuration model still by 10-20%:
    the tail of long intersections depends on which hubs meet.  A
    renumbered graph keeps the skew and the hub pairs while every array
    the kernel walks is laid out anew.
    """

    name = "tail"
    #: Times are reported in reference seconds (see ``hostspeed``).
    reference_clock = True
    NODES = round(1_700_000 / 128)
    EDGES = round(22_000_000 / 128 / 2)
    EXPONENT = 2.25

    def build(self, seed: int):
        t0 = perf_counter()
        degrees = powerlaw_degree_sequence(self.NODES, self.EDGES,
                                           exponent=self.EXPONENT,
                                           min_degree=1, seed=0)
        graph = configuration_model(degrees, seed=1)
        if seed != DEFAULT_SEED:
            graph = graph.relabeled(seed)
        return graph, perf_counter() - t0

    def oracle(self, graph) -> int:
        return forward_count_cpu(graph).triangles

    def prepare(self, graph):
        return graph

    def run(self, graph):
        return gpu_count_triangles(graph)

    def check(self, graph, expected: int, result,
              launches: list[Launch]) -> Outcome:
        failures = []
        if result.triangles != expected:
            failures.append(f"triangles {result.triangles} != CPU "
                            f"forward count {expected}")
        return Outcome(jobs=1, answered=1, exact=1, arcs=result.num_forward_arcs,
                       sim_p99_ms=result.total_ms, failures=failures,
                       signature=single_launch_signature(
                           launches, result.total_ms, failures))


def local_triangles_cpu(graph) -> np.ndarray:
    """Triangles through every vertex, from the adjacency lists alone:
    the edges among ``u``'s neighbours, each seen from both ends."""
    n = graph.num_nodes
    order = np.argsort(graph.first, kind="stable")
    nbr = graph.second[order].astype(np.int64)
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(graph.first, minlength=n), out=ptr[1:])
    mark = np.zeros(n, bool)
    out = np.zeros(n, np.int64)
    for u in range(n):
        nb = nbr[ptr[u]:ptr[u + 1]]
        if len(nb) < 2:
            continue
        starts = ptr[nb]
        lens = ptr[nb + 1] - starts
        # Concatenated adjacency lists of u's neighbours.
        idx = np.repeat(starts - np.cumsum(lens) + lens, lens) \
            + np.arange(int(lens.sum()))
        mark[nb] = True
        out[u] = int(np.count_nonzero(mark[nbr[idx]])) // 2
        mark[nb] = False
    return out


class Clustering:
    """``gpu_local_counts`` on the ``ws`` stand-in at 1/128 (ring lattice
    k=50, rewiring p=0.1); the seed drives the generator.  Seed 0 is
    exactly ``datasets.get("ws").build(1/128, 0)``."""

    name = "clustering"
    reference_clock = True
    NODES = round(1_000_000 / 128)
    K = 50
    P = 0.10

    def build(self, seed: int):
        t0 = perf_counter()
        graph = watts_strogatz(self.NODES, self.K, self.P, seed=seed)
        return graph, perf_counter() - t0

    def oracle(self, graph) -> np.ndarray:
        return local_triangles_cpu(graph)

    def prepare(self, graph):
        return graph

    def run(self, graph):
        return gpu_local_counts(graph)

    def check(self, graph, expected: np.ndarray, result,
              launches: list[Launch]) -> Outcome:
        failures = []
        local = np.asarray(result.local_triangles)
        if local.shape != expected.shape or not np.array_equal(local,
                                                               expected):
            bad = (int(np.count_nonzero(local != expected))
                   if local.shape == expected.shape else "all")
            failures.append(f"per-vertex counts differ from the CPU "
                            f"oracle at {bad} vertices")
        if int(local.sum()) != 3 * result.triangles:
            failures.append(f"per-vertex sum {int(local.sum())} != "
                            f"3 x {result.triangles}")
        return Outcome(jobs=1, answered=1, exact=1, arcs=graph.num_edges,
                       sim_p99_ms=result.total_ms, failures=failures,
                       signature=single_launch_signature(
                           launches, result.total_ms, failures))


@dataclass
class ServeInputs:
    pool: list
    memory_bytes: int
    schedule: list
    trace: list               # pristine jobs, copied per iteration


class ServeOverload:
    """One ``serve_trace`` replay of the ``serve-scale`` overload trace
    (gtx980x4, 30 s at 2/s x 10, burst 4, staggered whole-fleet
    failures) through ``ControlPlane(PlaneConfig())``.

    The arrival schedule, priorities and deadlines are the serve-scale
    trace's own (its seed 0); the benchmark seed draws the graph pool
    the jobs query.
    """

    name = "serve-overload"
    #: Dense matrix products dominate; they do not track the reference.
    reference_clock = False
    FLEET = "gtx980x4"
    CONFIG = TraceConfig(seed=0, duration_ms=30_000.0, rate_per_s=2.0,
                         rate_multiplier=10.0, burst=4.0)

    def build(self, seed: int):
        t0 = perf_counter()
        pool = build_graph_pool(dataclasses.replace(self.CONFIG, seed=seed))
        graph_s = perf_counter() - t0
        probe = Fleet.parse(self.FLEET)
        weakest = min(probe, key=lambda d: d.spec.memory_bytes)
        return ServeInputs(
            pool=pool,
            memory_bytes=size_fleet_memory(pool, self.CONFIG, weakest.spec),
            schedule=failure_schedule(len(probe), self.CONFIG.duration_ms),
            trace=generate_trace(self.CONFIG, pool)), graph_s

    def oracle(self, inputs: ServeInputs) -> dict[int, int]:
        return {id(g): forward_count_cpu(g).triangles for g in inputs.pool}

    def prepare(self, inputs: ServeInputs):
        # Fresh fleet, plane and jobs: the scheduler's and degraded
        # tier's memos are per instance, so reuse would time dict hits.
        fleet = Fleet.parse(self.FLEET, memory_bytes=inputs.memory_bytes)
        for index, at_ms in inputs.schedule:
            fleet.inject_failure(index, at_ms)
        jobs = [dataclasses.replace(job) for job in inputs.trace]
        return fleet, jobs, ControlPlane(PlaneConfig())

    def run(self, prepared):
        fleet, jobs, plane = prepared
        return serve_trace(fleet, jobs, plane=plane)

    def check(self, inputs: ServeInputs, expected: dict[int, int], report,
              launches: list[Launch]) -> Outcome:
        failures = []
        answered = exact = arcs = 0
        for job in report.jobs:
            if job.status == DONE:
                answered += 1
                arcs += job.graph.num_edges
                if job.tier == TIER_APPROX:
                    continue
                exact += 1
                want = expected.get(id(job.graph))
                if job.triangles != want:
                    failures.append(f"job {job.job_id}: {job.triangles} "
                                    f"triangles, CPU count {want}")
            elif job.status in (SHED, LOST):
                failures.append(f"job {job.job_id} ended {job.status} "
                                f"without an answer")
            else:
                failures.append(f"job {job.job_id} left in state "
                                f"{job.status!r}")
        if len(report.jobs) != len(inputs.trace):
            failures.append(f"replay reported {len(report.jobs)} of "
                            f"{len(inputs.trace)} jobs")
        gpu = [j for j in report.jobs if j.status == DONE
               and j.path == PATH_GPU]
        hit_frac = sum(j.cache_hit for j in gpu) / len(gpu) if gpu else 0.0
        return Outcome(jobs=len(inputs.trace), answered=answered,
                       exact=exact, arcs=arcs,
                       sim_p99_ms=report.p99_ms, failures=failures,
                       signature={"p99_ms": report.p99_ms, "exact": exact,
                                  "gpu_jobs": len(gpu)},
                       cache_hit_frac=hit_frac)


WORKLOADS = {w.name: w for w in (Tail(), Clustering(), ServeOverload())}


def load_pins() -> dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())
