"""Unit tests for the nvprof-style profiler reports."""

import pytest

import repro
from repro.core.options import GpuOptions
from repro.gpusim.profiler import format_kernel_profile


@pytest.fixture(scope="module")
def run():
    g = repro.generators.rmat(9, 10, seed=2)
    return repro.gpu_count_triangles(g)


class TestKernelProfile:
    def test_contains_core_metrics(self, run):
        text = format_kernel_profile(run.kernel_report, run.kernel_timing)
        for needle in ("CountTriangles", "GTX 980", "limiting resource",
                       "tex/L1 hit rate", "DRAM throughput",
                       "SIMD) efficiency", "requests per transaction"):
            assert needle in text, needle

    def test_bypassed_cache_labelled(self):
        g = repro.generators.rmat(8, 8, seed=1)
        res = repro.gpu_count_triangles(
            g, options=GpuOptions(use_readonly_cache=False))
        text = format_kernel_profile(res.kernel_report, res.kernel_timing)
        assert "bypassed" in text

    def test_custom_name(self, run):
        text = format_kernel_profile(run.kernel_report, run.kernel_timing,
                                     name="MyKernel")
        assert "MyKernel" in text


class TestRunProfile:
    def test_pipeline_view(self, run):
        text = run.profile()
        assert "pipeline on GTX 980" in text
        assert "h2d edge array" in text
        assert "sort_u64" in text
        assert f"{run.triangles:,} triangles" in text
        # the kernel sheet is appended
        assert "==PROF== CountTriangles" in text

    def test_shares_sum_to_one(self, run):
        text = run.profile()
        shares = [float(line.rsplit(None, 1)[-1].rstrip("%"))
                  for line in text.splitlines()
                  if line.strip().endswith("%") and "ms" in line]
        assert sum(shares) == pytest.approx(100.0, abs=2.0)

    def test_dagger_marker(self):
        g = repro.generators.rmat(9, 10, seed=2)
        res = repro.gpu_count_triangles(
            g, options=GpuOptions(cpu_preprocess="always"))
        assert "† CPU preprocessing" in res.profile()
