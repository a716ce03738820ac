"""Unit tests for the SIMT engine: launch limits, memory path, accounting."""

import numpy as np
import pytest

from repro.errors import InvalidLaunchError
from repro.gpusim.device import GTX_980, TESLA_C2050
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine


class TestLaunchConfig:
    def test_paper_default(self):
        cfg = LaunchConfig()
        assert cfg.threads_per_block == 64
        assert cfg.blocks_per_sm == 8
        cfg.validate(GTX_980)
        cfg.validate(TESLA_C2050)

    def test_total_threads(self):
        cfg = LaunchConfig(64, 8)
        assert cfg.total_threads(GTX_980) == 64 * 8 * 16
        assert cfg.total_threads(TESLA_C2050) == 64 * 8 * 14

    def test_resident_warps(self):
        assert LaunchConfig(64, 8).resident_warps_per_sm(GTX_980) == 16

    def test_non_warp_multiple_rejected(self):
        with pytest.raises(InvalidLaunchError, match="multiple of warp"):
            LaunchConfig(48, 1).validate(GTX_980)

    def test_too_many_threads_per_block(self):
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(2048, 1).validate(GTX_980)

    def test_too_many_blocks(self):
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(32, 33).validate(GTX_980)

    def test_exceeds_resident_threads(self):
        with pytest.raises(InvalidLaunchError, match="resident"):
            LaunchConfig(1024, 8).validate(TESLA_C2050)

    def test_simulated_warp_size(self):
        LaunchConfig(64, 8, simulated_warp_size=16).validate(GTX_980)
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(64, 8, simulated_warp_size=24).validate(GTX_980)

    def test_messages_name_device_and_limit(self):
        # Fleet-level attribution: every validate message carries the
        # device name and the violated limit's value.
        cases = [
            (LaunchConfig(48, 1), GTX_980, str(GTX_980.warp_size)),
            (LaunchConfig(2048, 1), GTX_980,
             str(GTX_980.max_threads_per_block)),
            (LaunchConfig(32, 33), GTX_980,
             str(GTX_980.max_blocks_per_sm)),
            (LaunchConfig(1024, 8), TESLA_C2050,
             str(TESLA_C2050.max_threads_per_sm)),
        ]
        for launch, device, limit in cases:
            with pytest.raises(InvalidLaunchError) as exc:
                launch.validate(device)
            assert device.name in str(exc.value)
            assert limit in str(exc.value)


def _engine(device=GTX_980, **kw):
    return SimtEngine(device, LaunchConfig(64, 1), **kw)


class TestEngineMemoryPath:
    def test_read_returns_values(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.arange(100, dtype=np.int32))
        eng = _engine()
        lanes = np.arange(4)
        vals = eng.read_compacted(buf, np.array([3, 1, 4, 1]), lanes)
        assert vals.tolist() == [3, 1, 4, 1]

    def test_coalesced_read_is_one_transaction(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.arange(64, dtype=np.int32))
        eng = _engine()
        lanes = np.arange(32)
        eng.read_compacted(buf, np.arange(32), lanes)
        assert eng.report.transactions == 1
        assert eng.report.lane_reads == 32

    def test_repeated_reads_hit_l1(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.arange(64, dtype=np.int32))
        eng = _engine()
        lanes = np.arange(8)
        eng.read_compacted(buf, np.arange(8), lanes)
        misses_before = eng.report.l1_misses
        eng.read_compacted(buf, np.arange(8), lanes)
        assert eng.report.l1_misses == misses_before
        assert eng.report.l1_hits > 0

    def test_dram_bytes_counted_on_cold_misses(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.zeros(10_000, np.int32))
        eng = _engine()
        lanes = np.arange(32)
        eng.read_compacted(buf, np.arange(32) * 64, lanes)  # 32 distinct lines
        assert eng.report.dram_bytes == 32 * GTX_980.line_bytes

    def test_uncached_path_uses_sectors(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.zeros(10_000, np.int32))
        eng = _engine(use_ro_cache=False)
        assert eng.l1 is None
        lanes = np.arange(32)
        eng.read_compacted(buf, np.arange(32) * 64, lanes)
        assert eng.report.dram_bytes == 32 * GTX_980.sector_bytes

    def test_fermi_always_caches(self):
        eng = SimtEngine(TESLA_C2050, LaunchConfig(64, 1), use_ro_cache=False)
        assert eng.l1 is not None  # L1 on by default on Fermi

    def test_write_counts_traffic(self):
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.zeros(64, np.int64))
        eng = _engine()
        lanes = np.arange(4)
        eng.write(buf, np.arange(4), np.arange(4), lanes)
        assert buf.data[:4].tolist() == [0, 1, 2, 3]
        assert eng.report.dram_bytes > 0


class TestAccounting:
    def test_end_step_counts_warps(self):
        eng = _engine()
        # 33 lanes span 2 warps
        eng.end_step_warps("merge", np.array([0, 1]), np.array([32, 1]),
                           instructions=10)
        assert eng.report.warp_steps["merge"] == 2
        assert eng.report.instruction_slots == 20
        assert eng.report.total_warp_steps == 2
        assert eng.report.active_lane_sum == 33

    def test_simd_efficiency(self):
        eng = _engine()
        eng.end_step_warps("merge", np.array([0]), np.array([16]),
                           instructions=10)  # half a warp
        assert eng.report.simd_efficiency == pytest.approx(0.5)

    def test_empty_step_is_free(self):
        eng = _engine()
        none = np.array([], dtype=np.int64)
        eng.end_step_warps("merge", none, none, instructions=10)
        assert eng.report.total_warp_steps == 0
        assert eng.report.warp_steps == {}

    def test_sm_attribution(self):
        # 2 blocks on a 16-SM part land on SMs 0 and 1
        eng = SimtEngine(GTX_980, LaunchConfig(64, 2))
        eng.end_step_warps("merge", np.arange(eng.num_warps),
                           np.full(eng.num_warps, eng.warp_size),
                           instructions=1)
        slots = eng.report.sm_instruction_slots
        assert slots.sum() == eng.num_warps
        assert (slots > 0).sum() == 16  # blocks round-robin over all SMs
