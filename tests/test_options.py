"""Unit tests for GpuOptions."""

import pytest

from repro.core.options import GpuOptions
from repro.errors import ReproError
from repro.gpusim.simt import LaunchConfig


class TestGpuOptions:
    def test_paper_defaults(self):
        opts = GpuOptions()
        assert opts.unzip
        assert opts.sort_as_u64
        assert opts.merge_variant == "final"
        assert opts.use_readonly_cache
        assert opts.cpu_preprocess == "auto"
        assert opts.launch.threads_per_block == 64
        assert opts.launch.blocks_per_sm == 8

    def test_invalid_merge_variant(self):
        with pytest.raises(ReproError):
            GpuOptions(merge_variant="fancy")

    def test_invalid_cpu_preprocess(self):
        with pytest.raises(ReproError):
            GpuOptions(cpu_preprocess="sometimes")

    def test_but_replaces_fields(self):
        opts = GpuOptions().but(unzip=False,
                                launch=LaunchConfig(128, 4))
        assert not opts.unzip
        assert opts.launch.threads_per_block == 128
        # original untouched
        assert GpuOptions().unzip

    def test_but_validates(self):
        with pytest.raises(ReproError):
            GpuOptions().but(merge_variant="nope")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            GpuOptions().unzip = False


class TestCacheKey:
    """GpuOptions as a preprocessed-graph cache key (serving layer)."""

    def test_frozen_and_hashable(self):
        opts = GpuOptions()
        assert hash(opts) == hash(GpuOptions())
        assert opts == GpuOptions()
        d = {opts: 1}
        assert d[GpuOptions()] == 1

    def test_cache_key_is_hashable_and_stable(self):
        key = GpuOptions().cache_key()
        assert hash(key) == hash(GpuOptions().cache_key())
        assert key == GpuOptions().cache_key()

    def test_equal_options_equal_keys(self):
        a = GpuOptions(launch=LaunchConfig(128, 4))
        b = GpuOptions(launch=LaunchConfig(128, 4))
        assert a.cache_key() == b.cache_key()

    def test_every_field_changes_the_key(self):
        base = GpuOptions()
        variants = [
            base.but(unzip=False),
            base.but(sort_as_u64=False),
            base.but(merge_variant="preliminary"),
            base.but(use_readonly_cache=False),
            base.but(cpu_preprocess="always"),
            base.but(kernel="warp_intersect"),
            base.but(launch=LaunchConfig(128, 8)),
            base.but(launch=LaunchConfig(64, 4)),
            base.but(launch=LaunchConfig(64, 8, simulated_warp_size=16)),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_usable_as_dict_key(self):
        cache = {}
        cache[GpuOptions().cache_key()] = "entry"
        assert cache[GpuOptions().cache_key()] == "entry"
        assert GpuOptions(unzip=False).cache_key() not in cache


class TestKernelSelection:
    def test_default_kernel(self):
        assert GpuOptions().kernel == "two_pointer"

    def test_invalid_kernel(self):
        with pytest.raises(ReproError):
            GpuOptions(kernel="magic")

    def test_warp_intersect_requires_soa(self):
        with pytest.raises(ReproError, match="SoA"):
            GpuOptions(kernel="warp_intersect", unzip=False)

    def test_pipeline_dispatch(self):
        import repro
        g = repro.generators.rmat(8, 8, seed=6)
        merge = repro.gpu_count_triangles(g)
        warp = repro.gpu_count_triangles(
            g, options=GpuOptions(kernel="warp_intersect"))
        assert warp.triangles == merge.triangles
        assert any("WarpIntersect" in e.name for e in warp.timeline.events)

    def test_registered_strategies_are_valid_choices(self):
        for kernel in ("binary_search", "hash", "auto"):
            assert GpuOptions(kernel=kernel).kernel == kernel

    def test_kernels_match_strategy_table(self):
        from repro.core import options as options_mod
        from repro.core.intersect import strategy_names
        assert options_mod.KERNELS == strategy_names() + ("auto",)
        assert {"two_pointer", "binary_search", "hash",
                "warp_intersect", "auto"} <= set(options_mod.KERNELS)

    def test_invalid_kernel_error_lists_registry_choices(self):
        with pytest.raises(ReproError, match="binary_search"):
            GpuOptions(kernel="magic")
