"""Tests of the benchmark's own machinery: span arithmetic, order
statistics, the host-speed reference, the oracles and the rule that a
mismatch is a failure.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import stats
import tracing
import workloads
from repro.graphs import EdgeArray, datasets

ROOT = Path(__file__).resolve().parents[2]


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #

def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > a [10, 60) > b [20, 50); root > c [70, 90)
    t = tracing.Tracer(clock=fake_clock(0, 10, 20, 50, 60, 70, 90, 100))
    t.enter()            # root
    t.enter()            # a
    t.enter()            # b
    t.exit("b")
    t.exit("a")
    t.enter()            # c
    t.exit("c")
    t.exit("root")
    assert t.spans["b"] == [1, 30, 30]
    assert t.spans["a"] == [1, 50, 20]        # minus b only
    assert t.spans["c"] == [1, 20, 20]
    assert t.spans["root"] == [1, 100, 30]    # minus a and c, not b
    assert t.violations == 0 and t.open_spans == 0


def test_repeated_spans_aggregate_by_name():
    t = tracing.Tracer(clock=fake_clock(0, 1, 4, 5, 9, 10))
    t.enter()
    for _ in range(2):
        t.enter()
        t.exit("leaf")
    t.exit("root")
    assert t.calls("leaf") == 2
    assert t.spans["leaf"][1] == 3 + 4
    assert t.self_seconds("root") == pytest.approx((10 - 7) * 1e-9)


def test_child_longer_than_parent_is_a_violation():
    # A clock that runs backwards makes the child outlast its parent.
    t = tracing.Tracer(clock=fake_clock(10, 0, 50, 20))
    t.enter()
    t.enter()
    t.exit("child")
    t.exit("parent")
    assert t.violations == 1


def test_hooks_rebind_every_name_and_undo():
    pkg = types.ModuleType("hookpkg")
    a = types.ModuleType("hookpkg.a")
    b = types.ModuleType("hookpkg.b")

    def f(x):
        return x + 1
    a.f = f
    b.g = f                        # imported under another name
    names = {"hookpkg": pkg, "hookpkg.a": a, "hookpkg.b": b}
    sys.modules.update(names)
    try:
        tracer = tracing.Tracer()
        with tracing.Hooks("hookpkg") as hooks:
            hooks.function("hookpkg.a", "f",
                           lambda fn: tracing.spanned(tracer, "f", fn))
            hooks.function("hookpkg.a", "missing", lambda fn: fn)
            assert a.f(1) == 2 and b.g(2) == 3
            assert tracer.calls("f") == 2
            assert hooks.missing == ["hookpkg.a.missing"]
        assert a.f is f and b.g is f
    finally:
        for name in names:
            del sys.modules[name]


# ---------------------------------------------------------------------- #
# order statistics
# ---------------------------------------------------------------------- #

def test_median_and_quartile_spread_match_statistics():
    values = [4.0, 1.0, 3.0, 10.0, 2.0, 7.0]
    assert stats.median(values) == 3.5
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 3.5)
    assert stats.quartile_spread([5.0]) == 0.0
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 91) == 10
    assert stats.percentile([7], 50) == 7
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


def test_reference_seconds_scale_by_the_mean_reference():
    nominal = hostspeed.NOMINAL_S
    # A host running at half the nominal speed halves the interval.
    assert hostspeed.normalise(4.0, nominal * 2, nominal * 2) == \
        pytest.approx(2.0)
    assert hostspeed.normalise(3.0, nominal * 0.5, nominal * 1.5) == \
        pytest.approx(3.0)
    assert hostspeed.reference_seconds() > 0


def test_log2_histogram_bins():
    assert stats.log2_histogram([0, 1, 2, 3, 4, 7, 8, 33]) == {
        "0": 1, "1": 1, "2-3": 2, "4-7": 2, "8-15": 1, "32-63": 1}


# ---------------------------------------------------------------------- #
# oracles and failures
# ---------------------------------------------------------------------- #

def test_local_oracle_on_small_graphs():
    k4 = EdgeArray.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                               (2, 3)])
    assert workloads.local_triangles_cpu(k4).tolist() == [3, 3, 3, 3]
    # a triangle with a pendant vertex and an isolated one
    g = EdgeArray.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], num_nodes=5)
    assert workloads.local_triangles_cpu(g).tolist() == [1, 1, 1, 0, 0]


def test_seed_zero_inputs_are_the_dataset_stand_ins():
    tail, _ = workloads.Tail().build(0)
    assert tail == datasets.get("internet").build(scale=1 / 128, seed=0)
    # Other tail seeds renumber the same graph.
    other, _ = workloads.Tail().build(5)
    assert other != tail
    assert sorted(other.degrees()) == sorted(tail.degrees())
    ws, _ = workloads.Clustering().build(0)
    assert ws == datasets.get("ws").build(scale=1 / 128, seed=0)


class _Result:
    def __init__(self, local):
        self.local_triangles = np.asarray(local)
        self.triangles = int(np.sum(local)) // 3
        self.total_ms = 1.0


_REPORT = types.SimpleNamespace(counters=lambda: {"ticks": 1})


class _Stub:
    """A clustering workload whose iteration returns canned counts."""

    name = "clustering"

    def __init__(self, local, capture, raises=False):
        self.local, self.capture, self.raises = local, capture, raises

    def prepare(self, inputs):
        return inputs

    def run(self, prepared):
        self.capture.launches.append(workloads.Launch(_REPORT, 6))
        if self.raises:
            raise RuntimeError("boom")
        return _Result(self.local)

    def check(self, inputs, expected, result, launches):
        return workloads.Clustering().check(inputs, expected, result,
                                            launches)


@pytest.fixture
def k4():
    return EdgeArray.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                 (2, 3)])


def _run(graph, local, raises=False):
    capture = types.SimpleNamespace(launches=[])
    return run.Run(_Stub(local, capture, raises), graph,
                   workloads.local_triangles_cpu(graph), capture, pin=None)


def test_matching_output_is_not_a_failure(k4):
    r = _run(k4, [3, 3, 3, 3])
    assert r.iteration() is not None
    assert (r.attempted, r.failed) == (1, 0)


def test_oracle_mismatch_counts_as_a_failure(k4):
    r = _run(k4, [3, 3, 3, 6])
    assert r.iteration() is not None
    assert (r.attempted, r.failed) == (1, 1)
    assert any("differ from the CPU oracle" in f for f in r.failures)


def test_raising_iteration_counts_as_a_failure(k4):
    r = _run(k4, [3, 3, 3, 3], raises=True)
    assert r.iteration() is None
    assert (r.attempted, r.failed) == (1, 1)


def test_pin_mismatch_counts_as_a_failure(k4):
    r = _run(k4, [3, 3, 3, 3])
    r.pin = {"counters": {"ticks": 2}, "total_ms": 1.0}
    r.iteration()
    assert r.failed == 1
    assert "simulated outputs differ from pins.json" in r.failures


# ---------------------------------------------------------------------- #
# the benchmark definition
# ---------------------------------------------------------------------- #

def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
