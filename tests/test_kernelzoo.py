"""The kernel-zoo calibration bench (``repro-bench kernelzoo``): report
gates, the committed-artifact acceptance contract, and baseline drift
detection.

The ISSUE acceptance criterion lives here: with the committed
``BENCH_kernelzoo.json`` as calibration, ``kernel="auto"`` on each of
the bench's own graphs must pick that graph's measured winner.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.kernelzoo import (KernelZooReport, ZooCell, _zoo,
                                   baseline_problems, run_zoo_cell)
from repro.core.autopick import (KERNELZOO_FORMAT, KernelZooCalibration,
                                 allowed_kernels, pick_kernel)
from repro.core.options import GpuOptions
from repro.errors import ReproError
from repro.graphs.generators import barabasi_albert

REPO = Path(__file__).resolve().parent.parent
COMMITTED = REPO / "BENCH_kernelzoo.json"


def _report_from_doc(doc: dict) -> KernelZooReport:
    cells = [ZooCell(graph=c["graph"], family=c["family"],
                     nodes=c["nodes"], arcs=c["arcs"],
                     triangles=c["triangles"],
                     degree_skew=c["degree_skew"], density=c["density"],
                     kernel_ms={k: v["kernel_ms"]
                                for k, v in c["kernels"].items()},
                     winner=c["winner"], identical=c["identical"])
             for c in doc["cells"]]
    return KernelZooReport(cells=cells, device=doc["device"],
                           seed=doc["seed"])


@pytest.fixture(scope="module")
def committed_doc() -> dict:
    return json.loads(COMMITTED.read_text())


class TestCommittedArtifact:
    def test_auto_pick_matches_each_measured_winner(self, committed_doc):
        """The acceptance criterion: on the bench's own graphs the
        auto-pick returns the committed per-cell winner."""
        cal = KernelZooCalibration.load(COMMITTED)
        winners = {c["graph"]: c["winner"]
                   for c in committed_doc["cells"]}
        options = GpuOptions(kernel="auto")
        for name, _family, graph in _zoo(committed_doc["seed"]):
            assert pick_kernel(graph, options, cal) == winners[name], name

    def test_report_gates_pass_on_committed_doc(self, committed_doc):
        assert _report_from_doc(committed_doc).problems() == []

    def test_zoo_spans_multiple_winners(self, committed_doc):
        """A calibration with one global winner would make the whole
        auto-pick layer vacuous; the zoo must keep the plane divided."""
        winners = {c["winner"] for c in committed_doc["cells"]}
        assert len(winners) >= 2

    def test_every_cell_sweeps_the_full_soa_kernel_set(self,
                                                      committed_doc):
        want = set(allowed_kernels(GpuOptions()))
        for cell in committed_doc["cells"]:
            assert set(cell["kernels"]) == want, cell["graph"]

    def test_cells_are_identical_and_winner_is_fastest(self,
                                                       committed_doc):
        for cell in committed_doc["cells"]:
            assert cell["identical"], cell["graph"]
            ms = {k: v["kernel_ms"] for k, v in cell["kernels"].items()}
            assert ms[cell["winner"]] == min(ms.values()), cell["graph"]


class TestReportGates:
    def test_identity_violation_is_a_problem(self, committed_doc):
        report = _report_from_doc(committed_doc)
        report.cells[0].identical = False
        problems = report.problems()
        assert any("disagreed" in p for p in problems)

    def test_winner_flip_breaks_self_consistency(self, committed_doc):
        report = _report_from_doc(committed_doc)
        cell = report.cells[0]
        other = next(k for k in cell.kernel_ms if k != cell.winner)
        cell.winner = other
        problems = report.problems()
        assert any("auto-pick" in p and cell.graph in p
                   for p in problems)

    def test_calibration_round_trip(self, committed_doc):
        report = _report_from_doc(committed_doc)
        cal = report.calibration()
        assert len(cal.cells) == len(report.cells)
        for got, cell in zip(cal.cells, report.cells):
            assert got.graph == cell.graph
            assert got.winner == cell.winner

    def test_json_str_is_committed_shape(self, committed_doc):
        report = _report_from_doc(committed_doc)
        doc = json.loads(report.json_str())
        assert doc["format"] == KERNELZOO_FORMAT
        assert [c["graph"] for c in doc["cells"]] == [
            c["graph"] for c in committed_doc["cells"]]


class TestBaselineCheck:
    def test_committed_doc_matches_itself(self, committed_doc):
        report = _report_from_doc(committed_doc)
        assert baseline_problems(report, committed_doc) == []

    def test_timing_drift_is_reported(self, committed_doc):
        report = _report_from_doc(committed_doc)
        cell = report.cells[0]
        kernel = next(iter(cell.kernel_ms))
        cell.kernel_ms[kernel] *= 1.5
        problems = baseline_problems(report, committed_doc)
        assert any("kernel_ms" in p and cell.graph in p
                   for p in problems)

    def test_small_float_noise_is_absorbed(self, committed_doc):
        report = _report_from_doc(committed_doc)
        cell = report.cells[0]
        kernel = next(iter(cell.kernel_ms))
        cell.kernel_ms[kernel] *= 1.0 + 1e-9
        assert baseline_problems(report, committed_doc) == []

    def test_new_zoo_cell_is_a_problem(self, committed_doc):
        """The calibration is a *policy input*: a zoo
        cell the baseline has never seen means the committed artifact
        is stale and must be regenerated."""
        report = _report_from_doc(committed_doc)
        report.cells[0].graph = "brand_new_graph"
        problems = baseline_problems(report, committed_doc)
        assert any("no matching baseline" in p for p in problems)
        assert any("zoo shrank" in p for p in problems)

    def test_missing_kernel_in_baseline(self, committed_doc):
        doc = json.loads(json.dumps(committed_doc))
        kernel, _ = doc["cells"][0]["kernels"].popitem()
        problems = baseline_problems(_report_from_doc(committed_doc), doc)
        assert any(f"kernel {kernel!r} missing" in p for p in problems)

    def test_wrong_format_short_circuits(self, committed_doc):
        report = _report_from_doc(committed_doc)
        problems = baseline_problems(report, {"format": "other"})
        assert problems == [
            f"baseline is not a {KERNELZOO_FORMAT!r} document"]

    def test_negative_tolerance_rejected(self, committed_doc):
        with pytest.raises(ReproError, match="tolerance"):
            baseline_problems(_report_from_doc(committed_doc),
                              committed_doc, tolerance=-1.0)


class TestSweep:
    def test_run_zoo_cell_on_small_graph(self):
        graph = barabasi_albert(120, 6, seed=7)
        cell = run_zoo_cell("tiny_ba", "ba", graph)
        assert set(cell.kernel_ms) == set(allowed_kernels(GpuOptions()))
        assert cell.identical
        assert cell.winner in cell.kernel_ms
        assert cell.kernel_ms[cell.winner] == min(cell.kernel_ms.values())
        assert cell.nodes == 120 and cell.arcs == graph.num_arcs
        assert cell.triangles > 0

    def test_zoo_is_deterministic_for_a_seed(self):
        a = {name: (g.num_nodes, g.num_arcs)
             for name, _f, g in _zoo(3)}
        b = {name: (g.num_nodes, g.num_arcs)
             for name, _f, g in _zoo(3)}
        assert a == b
