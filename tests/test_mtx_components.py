"""Unit tests for Matrix Market I/O and component utilities."""

import pytest

from repro.cpu.matmul import matmul_count
from repro.errors import GraphFormatError
from repro.graphs import mtx
from repro.graphs.components import (connected_components, giant_component,
                                     induced_subgraph)
from repro.graphs.edgearray import EdgeArray


class TestMtx:
    def test_roundtrip(self, small_rmat, tmp_path):
        path = tmp_path / "g.mtx"
        mtx.write_mtx(small_rmat, path)
        assert mtx.read_mtx(path) == small_rmat

    def test_banner_written(self, k5, tmp_path):
        path = tmp_path / "g.mtx"
        mtx.write_mtx(k5, path)
        text = path.read_text()
        assert text.startswith("%%MatrixMarket matrix coordinate pattern "
                               "symmetric")
        assert "5 5 10" in text

    def test_reads_weighted_entries(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3 3 2\n2 1 0.5\n3 2 1.5\n")
        g = mtx.read_mtx(path)
        assert g.num_edges == 2

    def test_general_symmetric_pairs_collapse(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 2 2\n1 2\n2 1\n")
        assert mtx.read_mtx(path).num_edges == 1

    def test_diagonal_dropped(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "2 2 2\n1 1\n2 1\n")
        assert mtx.read_mtx(path).num_edges == 1

    def test_rejects_dense(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(GraphFormatError, match="coordinate"):
            mtx.read_mtx(path)

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 3 1\n1 2\n")
        with pytest.raises(GraphFormatError, match="square"):
            mtx.read_mtx(path)

    def test_rejects_missing_banner(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("1 1 0\n")
        with pytest.raises(GraphFormatError, match="banner"):
            mtx.read_mtx(path)

    def test_nnz_mismatch(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "3 3 5\n2 1\n")
        with pytest.raises(GraphFormatError, match="promises"):
            mtx.read_mtx(path)


class TestComponents:
    @pytest.fixture
    def two_islands(self):
        # triangle {0,1,2} + path {3,4} + isolated 5
        return EdgeArray.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)],
                                    num_nodes=6)

    def test_labelling(self, two_islands):
        info = connected_components(two_islands)
        assert info.num_components == 3
        assert sorted(info.sizes.tolist()) == [1, 2, 3]

    def test_giant_component(self, two_islands):
        giant = giant_component(two_islands)
        assert giant.num_nodes == 3
        assert giant.num_edges == 3
        assert matmul_count(giant).triangles == 1

    def test_giant_no_compact_keeps_ids(self, two_islands):
        giant = giant_component(two_islands, compact=False)
        assert giant.num_nodes == 6
        assert giant.num_edges == 3

    def test_counts_are_component_additive(self, two_islands):
        info = connected_components(two_islands)
        total = sum(
            matmul_count(induced_subgraph(two_islands,
                                          info.labels == c)).triangles
            for c in range(info.num_components))
        assert total == matmul_count(two_islands).triangles

    def test_connected_graph(self, k5):
        info = connected_components(k5)
        assert info.num_components == 1
        assert giant_component(k5) == k5

    def test_empty(self):
        info = connected_components(EdgeArray.empty(0))
        assert info.num_components == 0
