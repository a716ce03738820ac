"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tail --seed 0 --seconds 35 --trace 0

``--trace 0`` times untraced iterations and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics, the live-lanes-per-tick histogram and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output matched its oracle.

``--write-pins`` regenerates ``pins.json`` (the simulated outputs of
``tail`` and ``clustering`` at the default seed) and exits.
"""

import os

# Single-threaded load: pin the BLAS/OpenMP pools before NumPy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Fewest timed iterations (untraced) or untraced+traced pairs (traced).
MIN_ITERATIONS = 3
MIN_PAIRS = 2
#: A step tick with at most this many live lanes counts as small.
SMALL_TICK_LANES = 32

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro; "
                "print(time.perf_counter() - t)")

END_TO_END = {
    "wall_s": "s", "arcs_per_s": "1/s", "jobs_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "exact_frac": "frac",
    "sim_p99_ms": "ms",
}

#: Per-layer metrics reported on every workload.  Spans that only one
#: workload enters (``LAYER_ONLY``) read 0 s elsewhere; they appear in
#: the ``layers`` line, not in the result object.
PER_LAYER = {
    "graphs.build_s": "s",
    "preprocess.s": "s", "preprocess.calls": "count",
    "runtime.launch.calls": "count", "runtime.launch.self_s": "s",
    "kernel.s": "s", "kernel.self_s": "s",
    "kernel.ticks.setup": "count", "kernel.ticks.step": "count",
    "kernel.us_per_tick": "us",
    "kernel.lanes_per_tick.p50": "count",
    "kernel.lanes_per_tick.p90": "count",
    "kernel.small_tick_frac": "frac",
    "intersect.begin.s": "s", "intersect.begin.calls": "count",
    "intersect.step.s": "s", "intersect.step.calls": "count",
    "intersect.step.self_s": "s",
    "simt.read.calls": "count", "simt.read.s": "s", "simt.read.self_s": "s",
    "simt.read.us_per_call": "us", "simt.read.lanes_per_call": "count",
    "simt.accounting.s": "s", "simt.accounting.calls": "count",
    "simt.atomic.calls": "count", "simt.atomic.lanes_per_call": "count",
    "cache.l1.calls": "count", "cache.l1.s": "s",
    "cache.l1.lines_per_call": "count",
    "cache.l2.calls": "count", "cache.l2.s": "s",
    "cache.l1_hit_rate": "frac",
    "simt.lane_reads": "count", "simt.transactions": "count",
    "simt.reads_per_arc": "count", "simt.simd_efficiency": "frac",
    "serve.gpu_runs": "count", "serve.cache_hit_frac": "frac",
    "serve.admission.calls": "count", "serve.degraded.calls": "count",
    "approx.doulion.calls": "count", "distributed.calls": "count",
    "trace.overhead_frac": "frac",
    "trace.unattributed_s": "s", "trace.unattributed_frac": "frac",
    "trace.violations": "count",
}
LAYER_ONLY = {
    "simt.atomic.s": "s", "serve.replay.self_s": "s",
    "serve.admission.s": "s", "serve.degraded.s": "s",
    "approx.doulion.s": "s", "distributed.s": "s",
}


def import_seconds() -> float:
    """``import repro`` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("tail", "clustering",
                                          "serve-overload"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-pins", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.write_pins:
        p.error("--workload is required")
    return args


def write_pins(workloads) -> int:
    pins = {}
    with tracing.Hooks() as hooks:
        capture = workloads.LaunchCapture(hooks)
        for name in ("tail", "clustering"):
            w = workloads.WORKLOADS[name]
            inputs, _ = w.build(workloads.DEFAULT_SEED)
            capture.launches.clear()
            result = w.run(w.prepare(inputs))
            out = w.check(inputs, w.oracle(inputs), result,
                          capture.launches)
            if out.failures:
                print(f"{name}: {out.failures}", file=sys.stderr)
                return 1
            pins[name] = {"seed": workloads.DEFAULT_SEED,
                          "triangles": int(result.triangles),
                          **out.signature}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1,
                                              sort_keys=True) + "\n")
    print(f"wrote {workloads.PINS_PATH}")
    return 0


class Run:
    """Timed iterations of one workload and their checks."""

    def __init__(self, workload, inputs, expected, capture, pin) -> None:
        self.w = workload
        self.inputs = inputs
        self.expected = expected
        self.capture = capture
        self.pin = pin
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outcomes: list = []
        self.signature = None

    def iteration(self, tracer=None):
        """One iteration; returns ``(seconds, outcome)`` or ``None`` if it
        raised."""
        prepared = self.w.prepare(self.inputs)
        self.capture.launches.clear()
        try:
            if tracer is None:
                t0 = perf_counter()
                result = self.w.run(prepared)
                seconds = perf_counter() - t0
            else:
                tracer.enter()
                t0 = perf_counter()
                try:
                    result = self.w.run(prepared)
                finally:
                    seconds = perf_counter() - t0
                    tracer.exit("iteration")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            self.failures.append("iteration raised")
            return None
        out = self.w.check(self.inputs, self.expected, result,
                           self.capture.launches)
        failures = list(out.failures)
        if self.signature is None:
            self.signature = out.signature
            if (self.pin is not None and out.signature is not None
                    and out.signature != {k: self.pin.get(k)
                                          for k in out.signature}):
                failures.append("simulated outputs differ from pins.json")
        elif out.signature != self.signature:
            failures.append("simulated outputs changed between iterations")
        # One operation per job: 1 on tail/clustering, the trace on serve.
        self.attempted += out.jobs
        if failures:
            self.failed += min(len(failures), out.jobs)
            self.failures.extend(failures)
        self.outcomes.append(out)
        return seconds, out


def measure(run: Run, seconds: float, traced: bool):
    """Iterate for ``seconds``; returns untraced wall seconds, the same
    in reference seconds (``hostspeed``), traced wall seconds and one
    ``(tracer, launches, outcome, missing)`` per traced iteration."""
    plain: list[float] = []
    norm: list[float] = []
    timed: list[float] = []
    traces = []
    start = perf_counter()
    before = hostspeed.reference_seconds()
    while True:
        got = run.iteration()
        if got is None:
            break
        after = hostspeed.reference_seconds()
        plain.append(got[0])
        norm.append(hostspeed.normalise(got[0], before, after))
        before = after
        if traced:
            tracer = tracing.Tracer()
            with tracing.Hooks() as hooks:
                tracing.install_layer_hooks(hooks, tracer)
                got = run.iteration(tracer)
            if got is None:
                break
            if tracer.violations or tracer.open_spans:
                run.failed += 1
                run.failures.append(
                    f"span arithmetic: {tracer.violations} child spans "
                    f"outlast their parent, {tracer.open_spans} left open")
            timed.append(got[0])
            traces.append((tracer, list(run.capture.launches), got[1],
                           hooks.missing))
            before = hostspeed.reference_seconds()
        rounds = len(plain)
        per_round = (perf_counter() - start) / rounds
        if (rounds >= (MIN_PAIRS if traced else MIN_ITERATIONS)
                and perf_counter() - start + per_round > seconds):
            break
    return plain, norm, timed, traces


def kernel_counts(launches) -> dict:
    """Simulated counts summed over a set of launches."""
    tot = {"lane_reads": 0, "transactions": 0, "l1_hits": 0,
           "l1_misses": 0, "active_lane_sum": 0, "lane_slots": 0,
           "forward_arcs": 0}
    for launch in launches:
        r = launch.report
        tot["lane_reads"] += r.lane_reads
        tot["transactions"] += r.transactions
        tot["l1_hits"] += r.l1_hits
        tot["l1_misses"] += r.l1_misses
        tot["active_lane_sum"] += r.active_lane_sum
        tot["lane_slots"] += r.total_warp_steps * r.launch_warp_size
        tot["forward_arcs"] += launch.forward_arcs
    return tot


def ratio(num, den) -> float:
    return num / den if den else 0.0


def as_count(value, unit: str):
    """Whole counts print as integers."""
    if unit == "count" and float(value).is_integer():
        return int(value)
    return value


def layer_metrics(tracer, launches, outcome) -> dict:
    """Per-layer values of one traced iteration."""
    t = tracer
    ticks_setup = t.counts.get("kernel.ticks.setup", 0)
    ticks_step = t.counts.get("kernel.ticks.step", 0)
    lanes = t.step_lanes
    k = kernel_counts(launches)
    it_s = t.seconds("iteration")
    m = {
        "preprocess.s": t.seconds("preprocess"),
        "preprocess.calls": t.calls("preprocess"),
        "runtime.launch.calls": t.calls("runtime.launch"),
        "runtime.launch.self_s": t.self_seconds("runtime.launch"),
        "kernel.s": t.seconds("kernel"),
        "kernel.self_s": t.self_seconds("kernel"),
        "kernel.ticks.setup": ticks_setup,
        "kernel.ticks.step": ticks_step,
        "kernel.us_per_tick": ratio(t.seconds("kernel") * 1e6,
                                    ticks_setup + ticks_step),
        "kernel.lanes_per_tick.p50": (stats.percentile(lanes, 50)
                                      if lanes else 0),
        "kernel.lanes_per_tick.p90": (stats.percentile(lanes, 90)
                                      if lanes else 0),
        "kernel.small_tick_frac": ratio(
            sum(1 for v in lanes if v <= SMALL_TICK_LANES), len(lanes)),
        "intersect.begin.s": t.seconds("intersect.begin"),
        "intersect.begin.calls": t.calls("intersect.begin"),
        "intersect.step.s": t.seconds("intersect.step"),
        "intersect.step.calls": t.calls("intersect.step"),
        "intersect.step.self_s": t.self_seconds("intersect.step"),
        "simt.read.calls": t.calls("simt.read"),
        "simt.read.s": t.seconds("simt.read"),
        "simt.read.self_s": t.self_seconds("simt.read"),
        "simt.read.us_per_call": ratio(t.seconds("simt.read") * 1e6,
                                       t.calls("simt.read")),
        "simt.read.lanes_per_call": ratio(t.counts.get("simt.read.lanes", 0),
                                          t.calls("simt.read")),
        "simt.accounting.s": t.seconds("simt.accounting"),
        "simt.accounting.calls": t.calls("simt.accounting"),
        "simt.atomic.calls": t.calls("simt.atomic"),
        "simt.atomic.s": t.seconds("simt.atomic"),
        "simt.atomic.lanes_per_call": ratio(
            t.counts.get("simt.atomic.lanes", 0), t.calls("simt.atomic")),
        "cache.l1.calls": t.calls("cache.l1"),
        "cache.l1.s": t.seconds("cache.l1"),
        "cache.l1.lines_per_call": ratio(t.counts.get("cache.l1.lines", 0),
                                         t.calls("cache.l1")),
        "cache.l2.calls": t.calls("cache.l2"),
        "cache.l2.s": t.seconds("cache.l2"),
        "cache.l1_hit_rate": ratio(k["l1_hits"],
                                   k["l1_hits"] + k["l1_misses"]),
        "simt.lane_reads": k["lane_reads"],
        "simt.transactions": k["transactions"],
        "simt.reads_per_arc": ratio(k["lane_reads"], k["forward_arcs"]),
        "simt.simd_efficiency": ratio(k["active_lane_sum"], k["lane_slots"]),
        "serve.replay.self_s": t.self_seconds("serve.replay"),
        "serve.gpu_runs": t.counts.get("serve.gpu_runs", 0),
        "serve.cache_hit_frac": outcome.cache_hit_frac,
        "serve.admission.s": t.seconds("serve.admission"),
        "serve.admission.calls": t.calls("serve.admission"),
        "serve.degraded.s": t.seconds("serve.degraded"),
        "serve.degraded.calls": t.calls("serve.degraded"),
        "approx.doulion.s": t.seconds("approx.doulion"),
        "approx.doulion.calls": t.calls("approx.doulion"),
        "distributed.s": t.seconds("distributed"),
        "distributed.calls": t.calls("distributed"),
        "trace.unattributed_s": t.self_seconds("iteration"),
        "trace.unattributed_frac": ratio(t.self_seconds("iteration"), it_s),
        "trace.violations": t.violations + t.open_spans,
    }
    return m


def host_facts(args) -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "reference_nominal_s": hostspeed.NOMINAL_S,
            "seed": args.seed, "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.write_pins:
        return write_pins(workloads)

    w = workloads.WORKLOADS[args.workload]
    setup_raw, setup_ref, graph_s = [], [], []
    before = hostspeed.reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs, g_s = w.build(args.seed)
        seconds = perf_counter() - t0
        seconds += import_seconds()
        after = hostspeed.reference_seconds()
        setup_raw.append(seconds)
        setup_ref.append(hostspeed.normalise(seconds, before, after))
        graph_s.append(g_s)
        before = after
    expected = w.oracle(inputs)
    pin = (workloads.load_pins().get(w.name)
           if args.seed == workloads.DEFAULT_SEED else None)

    with tracing.Hooks() as hooks:
        run = Run(w, inputs, expected, workloads.LaunchCapture(hooks), pin)
        plain, norm, timed, traces = measure(run, args.seconds,
                                             args.trace == 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(json.dumps({"host": host_facts(args)}))
    correct = run.failed == 0 and bool(plain)
    summary = {"iterations": len(plain), "traced_iterations": len(timed),
               "clock": "reference" if w.reference_clock else "host",
               "host_wall_s": plain,
               "host_wall_s_spread": stats.quartile_spread(plain),
               "ref_wall_s": norm,
               "ref_wall_s_spread": stats.quartile_spread(norm),
               "host_setup_s": setup_raw, "ref_setup_s": setup_ref,
               "traced_wall_s": timed,
               "attempted": run.attempted, "failed": run.failed,
               "error_rate": ratio(run.failed, run.attempted),
               "failures": run.failures[:10]}
    print(json.dumps({"summary": summary}))
    metrics = {}
    if correct:
        out = run.outcomes[0]
        wall = stats.median(norm if w.reference_clock else plain)
        values = {"wall_s": wall, "arcs_per_s": out.arcs / wall,
                  "jobs_per_s": out.answered / wall,
                  # Set-up is graph generation and imports on every
                  # workload, work of the reference's kind.
                  "setup_s": stats.median(setup_ref),
                  "peak_rss_mb": peak_rss_mb,
                  "exact_frac": out.exact / out.jobs,
                  "sim_p99_ms": out.sim_p99_ms}
        units = END_TO_END
        if args.trace == 1:
            per = [layer_metrics(tr, la, oc)
                   for tr, la, oc, _ in traces]
            values = {name: stats.median(p[name] for p in per)
                      for name in per[0]}
            values["graphs.build_s"] = stats.median(graph_s)
            values["trace.overhead_frac"] = (stats.median(timed)
                                             / stats.median(plain) - 1)
            hist = stats.log2_histogram(
                v for tr, _, _, _ in traces[:1] for v in tr.step_lanes)
            print(json.dumps({"layers": {
                name: {"value": values[name], "unit": unit}
                for name, unit in {**PER_LAYER, **LAYER_ONLY}.items()},
                "lanes_per_tick_histogram": hist,
                "missing_hooks": sorted({m for *_, miss in traces
                                         for m in miss})}))
            units = PER_LAYER
        metrics = {name: {"value": as_count(values[name], unit),
                          "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
