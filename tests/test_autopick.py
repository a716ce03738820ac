"""The stats-driven kernel auto-pick (``GpuOptions(kernel="auto")``):
calibration loading, nearest-cell lookup, layout-aware candidate sets,
pipeline resolution, and determinism.

The acceptance contract — the pick on a calibration graph equals that
graph's committed measured winner — is pinned in
``tests/test_kernelzoo.py`` (where the zoo graphs are rebuilt); here
the lookup itself is exercised against both the committed artifact and
small synthetic calibrations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.autopick import (KERNELZOO_ENV, KERNELZOO_FORMAT,
                                 KernelZooCalibration, allowed_kernels,
                                 find_calibration_file, pick_kernel,
                                 resolve_options)
from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.cpu.forward import forward_count_cpu
from repro.errors import ReproError

REPO = Path(__file__).resolve().parent.parent
COMMITTED = REPO / "BENCH_kernelzoo.json"


def _calibration(cells) -> KernelZooCalibration:
    return KernelZooCalibration.from_doc({
        "format": KERNELZOO_FORMAT,
        "device": "gtx980",
        "cells": cells,
    }, source="<test>")


def _cell(graph, skew, dens, winner="two_pointer", **ms):
    timings = {"two_pointer": 1.0, "binary_search": 2.0, "hash": 3.0,
               "warp_intersect": 4.0}
    timings.update(ms)
    timings[winner] = min(timings.values()) / 2
    return {"graph": graph, "family": "synthetic", "degree_skew": skew,
            "density": dens,
            "kernels": {k: {"kernel_ms": v} for k, v in timings.items()},
            "winner": winner}


class TestCalibrationLoading:
    def test_committed_artifact_parses(self):
        cal = KernelZooCalibration.load(COMMITTED)
        assert cal.cells
        for cell in cal.cells:
            assert cell.winner in dict(cell.kernel_ms)

    def test_bad_format_is_typed_error(self):
        with pytest.raises(ReproError, match="repro-kernelzoo"):
            KernelZooCalibration.from_doc({"format": "nope"})

    def test_no_cells_is_typed_error(self):
        with pytest.raises(ReproError, match="no cells"):
            KernelZooCalibration.from_doc(
                {"format": KERNELZOO_FORMAT, "cells": []})

    def test_malformed_cell_names_regeneration(self):
        with pytest.raises(ReproError, match="kernelzoo"):
            KernelZooCalibration.from_doc(
                {"format": KERNELZOO_FORMAT,
                 "cells": [{"graph": "x"}]})

    def test_env_override_wins(self, monkeypatch, tmp_path):
        target = tmp_path / "cal.json"
        target.write_text("{}")
        monkeypatch.setenv(KERNELZOO_ENV, str(target))
        assert find_calibration_file() == target

    def test_missing_file_error_names_the_bench(self, monkeypatch,
                                                tmp_path):
        monkeypatch.delenv(KERNELZOO_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("repro.core.autopick.find_calibration_file",
                            lambda: None)
        with pytest.raises(ReproError, match="repro-bench kernelzoo"):
            KernelZooCalibration.load(None)


class TestNearestCell:
    def test_exact_coordinates_hit_their_cell(self):
        cal = _calibration([
            _cell("skewed", 1.0, 0.01, winner="binary_search"),
            _cell("flat", 0.0, 0.02),
            _cell("dense", 0.0, 1.0, winner="warp_intersect"),
        ])
        assert cal.nearest(1.0, 0.01).graph == "skewed"
        assert cal.nearest(0.0, 1.0).graph == "dense"

    def test_range_normalization_balances_axes(self):
        # skew spans [0, 10], density [0, 0.1]: without normalization a
        # density gap of 0.05 would be invisible next to skew units.
        cal = _calibration([
            _cell("a", 0.0, 0.0),
            _cell("b", 10.0, 0.1, winner="hash"),
        ])
        assert cal.nearest(4.0, 0.09).graph == "b"
        assert cal.nearest(4.0, 0.01).graph == "a"

    def test_tie_breaks_to_first_cell(self):
        cal = _calibration([
            _cell("first", 0.0, 0.0),
            _cell("second", 2.0, 0.0),
        ])
        assert cal.nearest(1.0, 0.0).graph == "first"


class TestPick:
    def test_pick_respects_layout(self, small_rmat):
        cal = _calibration([
            _cell("dense", 0.0, 1.0, winner="warp_intersect",
                  two_pointer=2.0, binary_search=3.0, hash=4.0)])
        soa = pick_kernel(small_rmat, GpuOptions(kernel="auto"), cal)
        aos = pick_kernel(small_rmat,
                          GpuOptions(kernel="auto", unzip=False), cal)
        assert soa == "warp_intersect"
        assert aos == "two_pointer"   # next-fastest AoS-capable kernel

    def test_allowed_kernels_drop_warp_intersect_under_aos(self):
        assert "warp_intersect" in allowed_kernels(GpuOptions())
        assert "warp_intersect" not in allowed_kernels(
            GpuOptions(unzip=False))
        assert "two_pointer" in allowed_kernels(GpuOptions(unzip=False))

    def test_resolve_options_is_a_noop_for_explicit_kernels(self,
                                                            small_rmat):
        options = GpuOptions(kernel="hash")
        assert resolve_options(small_rmat, options) is options

    def test_resolve_options_never_returns_auto(self, small_rmat):
        cal = _calibration([_cell("only", 0.5, 0.05)])
        resolved = resolve_options(small_rmat, GpuOptions(kernel="auto"),
                                   cal)
        assert resolved.kernel == "two_pointer"

    def test_pick_is_deterministic(self, small_ba):
        cal = KernelZooCalibration.load(COMMITTED)
        picks = {pick_kernel(small_ba, GpuOptions(kernel="auto"), cal)
                 for _ in range(5)}
        assert len(picks) == 1


class TestPipelineIntegration:
    def test_gpu_count_triangles_resolves_auto(self, small_ba):
        want = forward_count_cpu(small_ba).triangles
        run = gpu_count_triangles(small_ba,
                                  options=GpuOptions(kernel="auto"))
        assert run.triangles == want
        assert run.options.kernel != "auto"
        assert run.options.kernel in allowed_kernels(GpuOptions())

    def test_auto_runs_are_reproducible(self, small_rmat):
        runs = [gpu_count_triangles(small_rmat,
                                    options=GpuOptions(kernel="auto"))
                for _ in range(2)]
        assert runs[0].options.kernel == runs[1].options.kernel
        assert (runs[0].kernel_report.counters()
                == runs[1].kernel_report.counters())

    def test_launch_rejects_unresolved_auto(self, small_rmat):
        from repro.runtime import LaunchPlan, launch
        with pytest.raises(ReproError, match="resolved against a graph"):
            launch(LaunchPlan(graph=small_rmat,
                              options=GpuOptions(kernel="auto")))

    def test_committed_calibration_is_current_format(self):
        doc = json.loads(COMMITTED.read_text())
        assert doc["format"] == KERNELZOO_FORMAT
