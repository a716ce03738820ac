"""Property-based tests (hypothesis) for the memory-model substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.cache import CacheArray
from repro.gpusim.device import GTX_980
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.reference import _ScalarLRU
from repro.gpusim.simt import LaunchConfig, SimtEngine
from tests.conftest import forced_transport


@st.composite
def access_stream(draw, max_len=200, max_line=64):
    length = draw(st.integers(1, max_len))
    lines = draw(st.lists(st.integers(0, max_line), min_size=length,
                          max_size=length))
    return np.array(lines, np.int64)


def _cache(ways=2, sets=4):
    return CacheArray(1, capacity_bytes=sets * ways * 128, line_bytes=128,
                      ways=ways)


def _probe(c, lines):
    """One batch as the engine presents it: distinct lines, ascending,
    repeats counted as extra hits.  Returns the distinct lines' hits."""
    uniq = np.unique(np.asarray(lines, np.int64))
    return c.probe_unique(uniq % c.sets, uniq,
                          extra_hits=len(lines) - len(uniq))


@settings(max_examples=50, deadline=None)
@given(access_stream())
def test_resident_lines_never_exceed_capacity(lines):
    c = _cache()
    for line in lines:
        _probe(c, [line])
    assert c.resident_lines() <= c.sets * c.ways


@settings(max_examples=50, deadline=None)
@given(access_stream())
def test_counters_are_consistent(lines):
    c = _cache()
    hits = _probe(c, lines)
    assert c.stats.hits + c.stats.misses == len(lines)
    assert c.stats.misses == int((~hits).sum())


@settings(max_examples=50, deadline=None)
@given(access_stream())
def test_immediate_reaccess_hits(lines):
    """Any line just accessed is resident (LRU never evicts the MRU)."""
    c = _cache(ways=2, sets=4)
    for line in lines:
        _probe(c, [line])
        assert _probe(c, [line])[0]


@settings(max_examples=50, deadline=None)
@given(access_stream(max_line=7))
def test_small_working_set_converges_to_all_hits(lines):
    """A working set that fits entirely (8 lines into 8 slots, but lines
    map to sets — use a fully-associative-equivalent config) eventually
    always hits."""
    c = CacheArray(1, capacity_bytes=8 * 128, line_bytes=128, ways=8)
    # warm up: touch every line once
    for line in range(8):
        _probe(c, [line])
    assert _probe(c, lines).all()


@settings(max_examples=50, deadline=None)
@given(access_stream())
def test_batch_equals_sequential_for_distinct_sets(lines):
    """Batched access gives the same hit count as one-by-one when the
    batch has no internal duplicates (the MSHR-merge special case aside)."""
    uniq = np.unique(lines)
    seq = _cache()
    for line in uniq:
        _probe(seq, [line])
    batched = _cache()
    _probe(batched, uniq)
    assert batched.stats.misses == seq.stats.misses == len(uniq)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2, 4]), st.integers(1, 4),
       st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 40)),
                         min_size=1, max_size=24),
                min_size=1, max_size=12))
def test_matches_scalar_reference(instances, ways, sets, batches):
    """Every probe tier (one pair, up to six, vector) agrees with the
    reference executor's scalar LRU, batch after batch: same misses,
    same resident lines."""
    c = CacheArray(instances, sets * ways * 128, 128, ways)
    ref = _ScalarLRU(instances, sets * ways * 128, 128, ways)
    for batch in batches:
        pairs = sorted({(i % instances, ln) for i, ln in batch},
                       key=lambda p: (p[1], p[0]))
        inst = np.array([p[0] for p in pairs], np.int64)
        line = np.array([p[1] for p in pairs], np.int64)
        hit = c.probe_unique(line % c.sets + inst * c.sets, line)
        missed = ref.probe(set(pairs))
        assert sorted(p for p, h in zip(pairs, hit) if not h) == missed
        assert ([sorted(row) for row in c._tags.tolist()]
                == [sorted(row) for row in ref.tags])


def _engine_read(pairs, use_l1=True):
    """Read the ``(warp, byte address)`` pairs in one engine call (an
    int8 buffer at device address 0, so an index is a byte address)."""
    warps = np.array([p[0] for p in pairs], np.int64)
    addrs = np.array([p[1] for p in pairs], np.int64)
    mem = DeviceMemory(GTX_980)
    buf = mem.alloc("x", np.zeros(int(addrs.max()) + 1, np.int8))
    with forced_transport("inline"):
        eng = SimtEngine(GTX_980, LaunchConfig(64, 2), use_ro_cache=use_l1)
        eng.read_compacted(buf, addrs, warps * GTX_980.warp_size)
    return eng


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4096)),
                min_size=1, max_size=128))
def test_coalesce_conservation(pairs):
    """Coalescing never loses requests, never exceeds them, and every
    line it fetches is aligned and covers at least one input address."""
    eng = _engine_read(pairs)
    rep = eng.report
    covered = {(w, a // 128) for w, a in pairs}
    assert 1 <= rep.transactions <= len(pairs)
    assert rep.transactions == len(covered)
    assert rep.lane_reads == len(pairs)
    tags = eng.l2._tags
    assert {int(t) for t in tags[tags >= 0]} == {a // 128 for _, a in pairs}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4096), min_size=1, max_size=64),
       st.sampled_from(["read", "write", "atomic"]))
def test_finer_granularity_never_fewer_transactions(addrs, kind):
    """Sector-granular reads and writes and word-granular atomics never
    take fewer transactions than line-granular (L1) reads."""
    coarse = _engine_read([(0, a) for a in addrs]).report.transactions
    if kind == "read":
        fine = _engine_read([(0, a) for a in addrs], use_l1=False)
    else:
        mem = DeviceMemory(GTX_980)
        buf = mem.alloc("x", np.zeros(max(addrs) + 1, np.int8))
        idx = np.array(addrs, np.int64)
        ones = np.ones(len(addrs), np.int8)
        tids = np.zeros(len(addrs), np.int64)
        with forced_transport("inline"):
            fine = SimtEngine(GTX_980, LaunchConfig(64, 2))
            getattr(fine, "write" if kind == "write" else "atomic_add")(
                buf, idx, ones, tids)
    assert fine.report.transactions >= coarse
