"""Unit tests for the scale-convergence sweep harness."""

import pytest

from types import SimpleNamespace

from repro.bench import sweep as sweep_mod
from repro.bench.reproduce import scaled
from repro.bench.sweep import SweepPoint, SweepResult, scale_sweep
from repro.errors import WorkloadError
from repro.graphs.datasets import get


class TestSweepResult:
    def _result(self, speedups):
        r = SweepResult(workload_name="ws")
        for i, s in enumerate(speedups):
            r.points.append(SweepPoint(scale=0.01 * (i + 1), num_arcs=1000,
                                       gtx980_speedup=s, cache_hit_pct=80.0,
                                       preprocessing_fraction=0.5))
        return r

    def test_deltas(self):
        r = self._result([10.0, 20.0, 25.0])
        assert r.deltas("gtx980_speedup", 30.0) == [20.0, 10.0, 5.0]

    def test_converges_true(self):
        r = self._result([10.0, 20.0, 25.0])
        assert r.converges("gtx980_speedup", 30.0)

    def test_converges_false(self):
        r = self._result([29.0, 20.0, 10.0])
        assert not r.converges("gtx980_speedup", 30.0)

    def test_single_point_converges(self):
        r = self._result([10.0])
        assert r.converges("gtx980_speedup", 30.0)

    def test_summary_mentions_paper(self):
        r = self._result([10.0])
        assert "paper" in r.summary()


class TestScaleSweep:
    def test_tiny_sweep_runs(self):
        base = 1 / 2048
        result = scale_sweep("kron18", scales=(base, base * 2))
        assert len(result.points) == 2
        assert result.points[0].num_arcs < result.points[1].num_arcs
        for p in result.points:
            assert p.gtx980_speedup > 0
            assert 0 < p.cache_hit_pct <= 100

    def test_points_sorted_by_scale(self):
        base = 1 / 2048
        result = scale_sweep("kron18", scales=(base * 2, base))
        assert result.points[0].scale < result.points[1].scale

    def test_default_ladder_follows_repro_scale(self, monkeypatch):
        """The default 4x ladder tops out at the REPRO_SCALE-scaled
        default: the graph every other experiment builds."""
        def row(name, scale, seed, configs):
            g = get(name).build(scale=scale, seed=seed)
            return SimpleNamespace(
                num_arcs=g.num_arcs, gtx980_speedup=1.0, cache_hit_pct=50.0,
                gtx980=SimpleNamespace(
                    timeline=SimpleNamespace(preprocessing_fraction=0.5)))

        monkeypatch.setattr(sweep_mod, "run_workload", row)
        with scaled(0.5):
            result = scale_sweep("ws")
            want = get("ws").build().num_arcs
        assert result.points[-1].num_arcs == want
        assert result.points[0].scale == pytest.approx(
            result.points[-1].scale / 4)

    def test_invalid_scales(self):
        with pytest.raises(WorkloadError):
            scale_sweep("ws", scales=(0.0, 0.5))
        with pytest.raises(WorkloadError):
            scale_sweep("ws", scales=(2.0,))
