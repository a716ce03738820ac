"""Property-based tests (hypothesis) for the memory-model substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.cache import CacheArray
from repro.gpusim.coalesce import coalesce
from repro.gpusim.reference import _ScalarLRU


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 4096)),
                min_size=1, max_size=128))
def test_coalesce_conservation(pairs):
    """Coalescing never loses requests, never exceeds them, and every
    output granule is aligned and covers at least one input address."""
    warps = np.array([p[0] for p in pairs], np.int64)
    addrs = np.array([p[1] for p in pairs], np.int64)
    batch = coalesce(warps, addrs, 128)
    assert 1 <= batch.transactions <= len(pairs)
    assert batch.lane_requests == len(pairs)
    assert np.all(batch.line_addrs % 128 == 0)
    covered = {(int(w), int(a) // 128) for w, a in zip(warps, addrs)}
    produced = {(int(w), int(a) // 128)
                for w, a in zip(batch.warp_ids, batch.line_addrs)}
    assert produced == covered


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4096), min_size=1, max_size=64),
       st.sampled_from([32, 64, 128]))
def test_finer_granularity_never_fewer_transactions(addrs, granule):
    warps = np.zeros(len(addrs), np.int64)
    a = np.array(addrs, np.int64)
    coarse = coalesce(warps, a, 128)
    fine = coalesce(warps, a, granule)
    assert fine.transactions >= coarse.transactions
