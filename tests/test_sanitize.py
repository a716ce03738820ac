"""Adversarial tests for the sanitizer and the legacy static rules
(SAN100-SAN105).

Each checker is fed a kernel seeded with exactly its bug class —
out-of-bounds access, use-after-free, uninitialized read, non-atomic
same-address race — and must fire with the right checker/kind and the
right buffer/warp attribution.  The clean-kernel matrix then asserts
the flip side: zero findings and bit-identical counters on the shipped
kernels.  Hypothesis drives the bug parameters (sizes, indices, lanes)
so attribution is checked across the space, not at one hand-picked
point.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyze import LEGACY_RULES, analyze_paths, analyze_source

from repro.core.forward_gpu import gpu_count_triangles
from repro.core.options import GpuOptions
from repro.errors import (InitcheckError, KernelFault, MemcheckError,
                          RacecheckError, ReproError)
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.simt import LaunchConfig, SimtEngine
from repro.sanitize import CHECKERS, SANITIZE_MODES, Sanitizer
from repro.sanitize.matrix import run_sanitize_matrix

WS = GTX_980.warp_size


def _env(mode="report", **kw):
    """A small device + memory + engine with the sanitizer attached."""
    device = GTX_980.with_memory(1 << 20)
    mem = DeviceMemory(device)
    san = Sanitizer(mode=mode, **kw)
    mem.sanitizer = san
    engine = SimtEngine(device, LaunchConfig(32, 1), sanitizer=san)
    return mem, san, engine


def _end_step(engine, kind, lanes, instructions=1):
    """Close a step over the warps owning ``lanes``."""
    counts = np.bincount(np.asarray(lanes) // engine.warp_size,
                         minlength=engine.num_warps)
    warps = np.flatnonzero(counts)
    engine.end_step_warps(kind, warps, counts[warps], instructions)


def _only(san, checker, kind):
    """The single report the test expects, with checker/kind asserted."""
    assert len(san.reports) == 1, [r.message() for r in san.reports]
    rep = san.reports[0]
    assert rep.checker == checker
    assert rep.kind == kind
    return rep


# --------------------------------------------------------------------- #
# memcheck
# --------------------------------------------------------------------- #

class TestMemcheck:
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(4, 64), excess=st.integers(1, 1000),
           lane=st.integers(0, 255))
    def test_oob_read_attribution(self, size, excess, lane):
        mem, san, engine = _env()
        buf = mem.alloc("adj", np.arange(size, dtype=np.int64))
        bad = size - 1 + excess
        engine.read_compacted(buf, np.array([0, bad]), np.array([0, lane]))
        rep = _only(san, "memcheck", "oob-read")
        assert rep.buffer == "adj"
        assert rep.index == bad
        assert rep.lane == lane
        assert rep.warp == lane // WS
        assert rep.address == buf.device_addr + bad * buf.itemsize

    def test_oob_report_mode_clamps_and_continues(self):
        mem, san, engine = _env()
        buf = mem.alloc("adj", np.arange(8, dtype=np.int64))
        vals = engine.read_compacted(buf, np.array([2, 100]), np.array([0, 1]))
        # Clamped to the last element: execution continues, defined.
        assert vals.tolist() == [2, 7]
        assert san.findings == 1

    def test_oob_write_kind(self):
        mem, san, engine = _env()
        buf = mem.alloc("out", np.zeros(4, np.int64))
        engine.write(buf, np.array([9]), np.array([1]), np.array([0]))
        assert _only(san, "memcheck", "oob-write").buffer == "out"

    def test_oob_negative_index(self):
        mem, san, engine = _env()
        buf = mem.alloc("adj", np.arange(8, dtype=np.int64))
        engine.read_compacted(buf, np.array([-3]), np.array([0]))
        assert _only(san, "memcheck", "oob-read").index == -3

    def test_strict_raises_typed_error(self):
        mem, san, engine = _env(mode="strict")
        buf = mem.alloc("adj", np.arange(8, dtype=np.int64))
        with pytest.raises(MemcheckError, match="oob-read.*'adj'"):
            engine.read_compacted(buf, np.array([64]), np.array([0]))

    @settings(max_examples=25, deadline=None)
    @given(lane=st.integers(0, 255), index=st.integers(0, 7))
    def test_use_after_free_attribution(self, lane, index):
        mem, san, engine = _env()
        buf = mem.alloc("scratch", np.arange(8, dtype=np.int64))
        mem.free(buf)
        engine.read_compacted(buf, np.array([index]), np.array([lane]))
        rep = _only(san, "memcheck", "use-after-free")
        assert rep.buffer == "scratch"
        assert rep.warp == lane // WS
        assert "freed at step" in rep.detail

    def test_use_after_free_all(self):
        mem, san, engine = _env(mode="strict")
        buf = mem.alloc("scratch", np.arange(8, dtype=np.int64))
        mem.free_all()
        with pytest.raises(MemcheckError, match="use-after-free"):
            engine.write(buf, np.array([0]), np.array([1]), np.array([0]))

    def test_checker_disabled_keeps_bare_fault(self):
        # memcheck off: the engine's original KernelFault semantics.
        mem, san, engine = _env(memcheck=False)
        buf = mem.alloc("adj", np.arange(8, dtype=np.int64))
        with pytest.raises(KernelFault):
            engine.read_compacted(buf, np.array([64]), np.array([0]))

    def test_occurrence_dedup(self):
        mem, san, engine = _env()
        buf = mem.alloc("adj", np.arange(8, dtype=np.int64))
        for _ in range(5):
            engine.read_compacted(buf, np.array([99]), np.array([0]))
        assert len(san.reports) == 1
        assert san.reports[0].occurrences == 5
        assert san.findings == 5
        assert "[x5]" in san.reports[0].message()


# --------------------------------------------------------------------- #
# initcheck
# --------------------------------------------------------------------- #

class TestInitcheck:
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(2, 64), lane=st.integers(0, 255), data=st.data())
    def test_uninit_read_attribution(self, size, lane, data):
        index = data.draw(st.integers(0, size - 1))
        mem, san, engine = _env()
        buf = mem.alloc_empty("result", size, np.int64)
        engine.read_compacted(buf, np.array([index]), np.array([lane]))
        rep = _only(san, "initcheck", "uninit-read")
        assert rep.buffer == "result"
        assert rep.index == index
        assert rep.warp == lane // WS

    def test_write_validates_elements(self):
        mem, san, engine = _env()
        buf = mem.alloc_empty("result", 8, np.int64)
        engine.write(buf, np.arange(8), np.arange(8), np.arange(8))
        engine.read_compacted(buf, np.arange(8), np.arange(8))
        assert san.findings == 0

    def test_partial_write_leaves_holes(self):
        mem, san, engine = _env()
        buf = mem.alloc_empty("result", 8, np.int64)
        engine.write(buf, np.array([0, 1, 2]), np.zeros(3, np.int64),
                     np.array([0, 1, 2]))
        engine.read_compacted(buf, np.array([2, 3]), np.array([0, 1]))
        rep = _only(san, "initcheck", "uninit-read")
        assert rep.index == 3
        assert rep.lane == 1

    def test_atomic_add_validates(self):
        mem, san, engine = _env()
        buf = mem.alloc_empty("acc", 4, np.int64)
        # First atomic on uninit memory is itself a read-modify-write of
        # garbage — flagged; it then marks the element valid.
        engine.atomic_add(buf, np.array([1]), np.array([1]), np.array([0]))
        assert _only(san, "initcheck", "uninit-read").index == 1
        san.reports.clear()
        san._dedup.clear()
        engine.read_compacted(buf, np.array([1]), np.array([0]))
        assert san.findings == 0

    def test_alloc_with_payload_is_valid(self):
        mem, san, engine = _env()
        buf = mem.alloc("table", np.arange(8, dtype=np.int64))
        engine.read_compacted(buf, np.arange(8), np.arange(8))
        assert san.findings == 0

    def test_strict_raises_typed_error(self):
        mem, san, engine = _env(mode="strict")
        buf = mem.alloc_empty("result", 8, np.int64)
        with pytest.raises(InitcheckError, match="uninit-read.*'result'"):
            engine.read_compacted(buf, np.array([0]), np.array([0]))


# --------------------------------------------------------------------- #
# racecheck
# --------------------------------------------------------------------- #

class TestRacecheck:
    @settings(max_examples=25, deadline=None)
    @given(index=st.integers(0, 15), w1=st.integers(0, 3), gap=st.integers(1, 4))
    def test_write_write_race(self, index, w1, gap):
        w2 = w1 + gap
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([index]), np.array([1]),
                     np.array([w1 * WS]))
        engine.write(buf, np.array([index]), np.array([2]),
                     np.array([w2 * WS]))
        _end_step(engine, "merge", np.array([w1 * WS, w2 * WS]))
        rep = _only(san, "racecheck", "write-write-race")
        assert rep.buffer == "counts"
        assert rep.index == index
        assert str(index) in rep.detail
        assert (str(w1) in rep.detail) and (str(w2) in rep.detail)

    def test_read_write_race(self):
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([5]), np.array([1]), np.array([0]))
        engine.read_compacted(buf, np.array([5]), np.array([WS]))   # warp 1 reads
        _end_step(engine, "merge", np.array([0, WS]))
        rep = _only(san, "racecheck", "read-write-race")
        assert rep.index == 5
        assert rep.warp == 1

    def test_same_warp_is_not_a_race(self):
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([5]), np.array([1]), np.array([0]))
        engine.write(buf, np.array([5]), np.array([2]), np.array([3]))
        engine.read_compacted(buf, np.array([5]), np.array([7]))
        _end_step(engine, "merge", np.array([0, 3, 7]))
        assert san.findings == 0

    def test_atomics_are_exempt(self):
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        for w in range(4):
            engine.atomic_add(buf, np.array([5]), np.array([1]),
                              np.array([w * WS]))
        _end_step(engine, "merge", np.arange(4) * WS)
        assert san.findings == 0
        assert buf.data[5] == 4

    def test_step_boundary_ends_the_window(self):
        # Writes to the same address in *different* steps are ordered by
        # the step barrier — not a race.
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([5]), np.array([1]), np.array([0]))
        _end_step(engine, "merge", np.array([0]))
        engine.write(buf, np.array([5]), np.array([2]), np.array([WS]))
        _end_step(engine, "merge", np.array([WS]))
        assert san.findings == 0

    def test_disjoint_addresses_are_clean(self):
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([1]), np.array([1]), np.array([0]))
        engine.write(buf, np.array([2]), np.array([1]), np.array([WS]))
        _end_step(engine, "merge", np.array([0, WS]))
        assert san.findings == 0

    def test_strict_raises_typed_error_at_step_end(self):
        mem, san, engine = _env(mode="strict")
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([5]), np.array([1]), np.array([0]))
        engine.write(buf, np.array([5]), np.array([2]), np.array([WS]))
        with pytest.raises(RacecheckError, match="write-write-race"):
            _end_step(engine, "merge", np.array([0, WS]))

    def test_step_kind_stamped(self):
        mem, san, engine = _env()
        buf = mem.alloc("counts", np.zeros(16, np.int64))
        engine.write(buf, np.array([9]), np.array([1]), np.array([0]))
        engine.write(buf, np.array([9]), np.array([1]), np.array([WS]))
        _end_step(engine, "setup", np.array([0, WS]))
        assert san.reports[0].step_kind == "setup"


# --------------------------------------------------------------------- #
# clean kernels: zero findings, bit-identical counters
# --------------------------------------------------------------------- #

class TestCleanKernels:
    def test_full_matrix_strict(self):
        report = run_sanitize_matrix(strict=True, seed=0)
        bad = [c.summary() for c in report.cells if not c.ok]
        assert report.ok, bad
        assert report.findings == 0
        # Full coverage: both merge variants of the two-pointer kernel,
        # the probing strategies and the warp comparator on two graphs,
        # plus the atomic-heavy local pipeline.
        assert len(report.cells) == 11
        assert {c.kernel for c in report.cells} == {
            "two_pointer", "binary_search", "hash", "warp_intersect"}
        assert report.cross_kernel_disagreements == []

    def test_identity_on_pipeline(self, small_ba):
        base = gpu_count_triangles(small_ba)
        san = gpu_count_triangles(small_ba,
                                  options=GpuOptions(sanitize="report"))
        assert san.triangles == base.triangles
        assert san.kernel_report.counters() == base.kernel_report.counters()
        assert san.sanitizer_reports == []

    def test_modes_validated(self):
        assert SANITIZE_MODES == ("off", "report", "strict")
        with pytest.raises(ReproError):
            GpuOptions(sanitize="paranoid")
        with pytest.raises(ReproError):
            Sanitizer(mode="off")   # "off" means "no Sanitizer at all"

    def test_sanitize_not_in_cache_key(self):
        a = GpuOptions().cache_key()
        b = GpuOptions(sanitize="strict").cache_key()
        assert a == b

    def test_format_report_sheet(self):
        mem, san, engine = _env()
        buf = mem.alloc("adj", np.arange(4, dtype=np.int64))
        engine.read_compacted(buf, np.array([9]), np.array([0]))
        sheet = san.format_report()
        assert sheet.startswith("==SANITIZE==")
        assert "memcheck=1" in sheet
        assert "'adj'" in sheet
        assert {c for c in CHECKERS} == {"memcheck", "initcheck",
                                         "racecheck"}


# --------------------------------------------------------------------- #
# legacy static rules SAN100-SAN105
# --------------------------------------------------------------------- #

def legacy_findings(source, path):
    """The legacy rules' findings (parse errors included) on one
    module, sorted."""
    return list(analyze_source(source, path,
                               checks=LEGACY_RULES).all_findings)


_SAN101_BAD = """\
def leak(memory, data):
    buf = memory.alloc("x", data)
    return buf.data[0]
"""

_SAN101_PARAM = """\
def leak(buf: DeviceBuffer):
    return buf.data.sum()
"""

_SAN102_BAD = """\
def kernel(engine, buf, idx, lanes):
    vals = engine.read_compacted(buf, idx, lanes)
    return vals
"""

_SAN102_ALIAS = """\
def kernel(engine, buf, idx, lanes, traced):
    read = engine.read_compacted if not traced else traced
    return read(buf, idx, lanes)
"""

_SAN102_GOOD = """\
def kernel(engine, buf, idx, lanes):
    vals = engine.read_compacted(buf, idx, lanes)
    engine.end_step_warps("merge", lanes, lanes, 4)
    return vals
"""

_SAN102_NESTED_OK = """\
def kernel(engine, buf, idx, lanes):
    def _adj_read(i, l):
        return engine.read_compacted(buf, i, l)
    vals = _adj_read(idx, lanes)
    engine.end_step_warps("merge", lanes, lanes, 4)
    return vals
"""

_SAN103_BAD = """\
import numpy as np
np.random.seed(0)
x = np.random.rand(4)
"""

_SAN103_GOOD = """\
import numpy as np
rng = np.random.default_rng(0)
gen: np.random.Generator = rng
"""


class TestLint:
    def _rules(self, source, path="src/repro/core/fixture.py"):
        return [f.rule for f in legacy_findings(source, path)]

    def test_san101_dataflow(self):
        assert self._rules(_SAN101_BAD) == ["SAN101"]

    def test_san101_annotated_param(self):
        assert self._rules(_SAN101_PARAM) == ["SAN101"]

    def test_san101_gpusim_exempt(self):
        assert self._rules(_SAN101_BAD,
                           "src/repro/gpusim/fixture.py") == []

    def test_san101_unrelated_data_attr_ok(self):
        # .data on something that never came from an allocator.
        assert self._rules("def f(job):\n    return job.data\n") == []

    def test_san102_missing_end_step(self):
        assert self._rules(_SAN102_BAD) == ["SAN102"]

    def test_san102_alias_ifexp(self):
        assert self._rules(_SAN102_ALIAS) == ["SAN102"]

    def test_san102_clean_with_end_step(self):
        assert self._rules(_SAN102_GOOD) == []

    def test_san102_nested_read_covered_by_outer_end_step(self):
        assert self._rules(_SAN102_NESTED_OK) == []

    def test_san102_file_read_not_flagged(self):
        assert self._rules(
            "def f(path):\n    return open(path).read()\n") == []

    def test_san103_legacy_api(self):
        assert self._rules(_SAN103_BAD) == ["SAN103", "SAN103"]

    def test_san103_from_numpy_import_random(self):
        # The module-object alias: `from numpy import random` makes
        # `random.rand` the same global-state draw as `np.random.rand`.
        src = ("from numpy import random\n"
               "v = random.rand(3)\n")
        assert self._rules(src) == ["SAN103"]

    def test_san103_from_numpy_random_import_member(self):
        # The member alias: the legacy function imported directly.
        src = ("from numpy.random import rand\n"
               "v = rand(3)\n")
        assert self._rules(src) == ["SAN103"]

    def test_san103_aliased_spellings(self):
        src = ("from numpy import random as npr\n"
               "from numpy.random import rand as draw\n"
               "a = npr.rand(3)\n"
               "b = draw(3)\n")
        assert self._rules(src) == ["SAN103", "SAN103"]

    def test_san103_safe_members_not_flagged_via_alias(self):
        src = ("from numpy.random import default_rng\n"
               "rng = default_rng(0)\n"
               "v = rng.random(3)\n")
        assert self._rules(src) == []

    def test_san103_safe_spellings(self):
        assert self._rules(_SAN103_GOOD) == []

    def test_san103_generators_exempt(self):
        assert self._rules(
            _SAN103_BAD, "src/repro/graphs/generators/fixture.py") == []

    def test_line_suppression(self):
        src = _SAN101_BAD.replace("buf.data[0]",
                                  "buf.data[0]  # san-ok: SAN101")
        assert self._rules(src) == []

    def test_module_suppression(self):
        src = "# repro-lint: allow=SAN101\n" + _SAN101_BAD
        assert self._rules(src) == []

    def test_suppression_is_rule_specific(self):
        src = _SAN101_BAD.replace("buf.data[0]",
                                  "buf.data[0]  # san-ok: SAN102")
        assert self._rules(src) == ["SAN101"]

    def test_bare_san_ok_is_san100_error(self):
        # A suppression naming no rule waives nothing — and is itself
        # a finding, so it cannot rot silently.
        assert self._rules("x = 1  # san-ok\n") == ["SAN100"]

    def test_bare_allow_is_san100_error(self):
        assert self._rules("# repro-lint: allow=\nx = 1\n") == ["SAN100"]

    def test_bare_san_ok_does_not_suppress(self):
        src = _SAN101_BAD.replace("buf.data[0]",
                                  "buf.data[0]  # san-ok")
        assert sorted(self._rules(src)) == ["SAN100", "SAN101"]

    def test_finding_location_format(self):
        finding = legacy_findings(_SAN101_BAD, "x.py")[0]
        assert finding.format().startswith("x.py:3:")
        assert "SAN101" in finding.format()

    def test_src_tree_is_clean(self):
        src_dir = Path(__file__).resolve().parents[1] / "src"
        findings = analyze_paths([str(src_dir)],
                                 checks=LEGACY_RULES).all_findings
        assert findings == (), [f.format() for f in findings]
