"""Shared fixtures: small reference graphs with known triangle counts."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.gpusim import cachestream
from repro.gpusim.device import GTX_980, DeviceSpec
from repro.graphs.edgearray import EdgeArray
from repro.graphs.generators import (barabasi_albert, complete_graph,
                                     cycle_graph, erdos_renyi_gnm,
                                     path_graph, rmat, star_graph,
                                     watts_strogatz)


@pytest.fixture
def k5() -> EdgeArray:
    """K5 — 10 triangles."""
    return complete_graph(5)


@pytest.fixture
def k12() -> EdgeArray:
    """K12 — 220 triangles."""
    return complete_graph(12)


@pytest.fixture
def triangle() -> EdgeArray:
    """A single triangle."""
    return cycle_graph(3)


@pytest.fixture
def two_triangles_shared_edge() -> EdgeArray:
    """Two triangles sharing edge (0,1): K4 minus edge (2,3)."""
    return EdgeArray.from_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])


@pytest.fixture
def triangle_free() -> EdgeArray:
    """Petersen graph — girth 5, zero triangles, degree-regular."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return EdgeArray.from_edges(outer + spokes + inner)


@pytest.fixture
def small_rmat() -> EdgeArray:
    """A small but non-trivial skewed graph (deterministic)."""
    return rmat(8, edge_factor=10, seed=42)


@pytest.fixture
def small_ba() -> EdgeArray:
    return barabasi_albert(120, 8, seed=7)


@pytest.fixture
def small_ws() -> EdgeArray:
    return watts_strogatz(150, 8, 0.1, seed=11)


@pytest.fixture
def small_er() -> EdgeArray:
    return erdos_renyi_gnm(100, 400, seed=5)


@pytest.fixture
def star20() -> EdgeArray:
    return star_graph(20)


@pytest.fixture
def path10() -> EdgeArray:
    return path_graph(10)


@pytest.fixture(scope="session")
def medium_rmat() -> EdgeArray:
    """Large enough that fixed launch overheads stop dominating (the
    regime the paper's graphs live in); session-scoped because GPU
    simulations on it take ~a second."""
    return rmat(11, edge_factor=14, seed=13)


@pytest.fixture(params=["k5", "triangle", "two_triangles_shared_edge",
                        "triangle_free", "small_rmat", "small_ba",
                        "small_ws", "small_er", "star20", "path10"])
def any_graph(request) -> EdgeArray:
    """Parametrized sweep over all reference graphs."""
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="session")
def tiny_device() -> DeviceSpec:
    """A synthetic 2-SM device whose caches hold a handful of lines
    (L1: 2 sets x 2 ways per SM, L2: 4 sets x 4 ways), so even tiny
    graphs drive grid-stride rounds and evictions at both levels."""
    return replace(GTX_980, name="tiny-2sm", num_sms=2,
                   l1_bytes=4 * GTX_980.line_bytes, l1_ways=2,
                   l2_bytes=16 * GTX_980.line_bytes, l2_ways=4)


def expected_triangles(graph: EdgeArray) -> int:
    """Independent oracle: algebraic count via scipy sparse."""
    return repro.matmul_count(graph).triangles


@pytest.fixture
def oracle():
    return expected_triangles


#: Where an engine's cache model runs (see :mod:`repro.gpusim.cachestream`).
TRANSPORTS = ("inline", "worker")


@contextmanager
def forced_transport(kind: str):
    """Engines built inside the block run their cache model in-process
    (``"inline"``) or in the worker process (``"worker"``), whatever the
    host's core count."""
    saved = cachestream.worker_allowed
    cachestream.worker_allowed = lambda: kind == "worker"
    try:
        yield
    finally:
        cachestream.worker_allowed = saved


@pytest.fixture(params=TRANSPORTS)
def cache_transport(request):
    """Parametrize a test over both cache-model transports."""
    with forced_transport(request.param):
        yield request.param


def assert_same_caches(a, b) -> None:
    """Two engines' L1 and L2 hold the same lines, stamps, clock and
    statistics (after a sync, whichever transport each one used)."""
    for level in ("l1", "l2"):
        ca, cb = getattr(a, level), getattr(b, level)
        if ca is None or cb is None:
            assert ca is cb, level
            continue
        assert np.array_equal(ca._tags, cb._tags), level
        assert np.array_equal(ca._stamp, cb._stamp), level
        assert ca._clock == cb._clock, level
        assert ca.stats == cb.stats, level
