"""The one-command reproduction bundle: schema, determinism, CLI and
docs regression."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.reproduce import (ARTIFACT_FILES, PRESETS, SUMMARY_FORMAT,
                                   VOLATILE_KEYS, build_parser, checks_ok,
                                   committed_drift, deterministic_doc,
                                   run_reproduce)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """One shared micro-scale reproduction run (the expensive fixture)."""
    out = tmp_path_factory.mktemp("artifacts")
    result = run_reproduce(preset_name="tiny", seed=0, out_dir=str(out),
                           verbose=False)
    return result


class TestSummarySchema:
    def test_bundle_passes(self, bundle):
        assert bundle.ok, json.dumps(bundle.summary, indent=2,
                                     default=str)[:4000]

    def test_every_artifact_written(self, bundle):
        names = {Path(p).name for p in bundle.files}
        assert names == set(ARTIFACT_FILES)

    def test_summary_structure(self, bundle):
        doc = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
        assert doc["format"] == SUMMARY_FORMAT
        assert set(doc["sections"]) == {"table1", "figure1", "claims",
                                        "serve", "serve_scale", "analyze"}
        for section in doc["sections"].values():
            assert isinstance(section["ok"], bool)
        assert doc["volatile_keys"] == sorted(VOLATILE_KEYS)

    def test_measured_next_to_paper_band(self, bundle):
        """Every band check carries value + the paper's band + verdict."""
        checks = bundle.summary["sections"]["table1"]["band_checks"]
        assert checks
        for c in checks:
            assert {"name", "workload", "value", "paper_lo", "paper_hi",
                    "applies", "passed", "detail"} <= set(c)
            assert c["paper_lo"] < c["paper_hi"]
        # The tiny preset runs rows large enough that some checks apply.
        assert any(c["applies"] for c in checks)

    def test_claims_carry_value_bound_and_verdict(self, bundle):
        from repro.bench.calibration import CLAIM_BOUNDS
        checks = bundle.summary["sections"]["claims"]["checks"]
        for c in checks:
            assert {"name", "workload", "value", "lo", "hi", "closed",
                    "applies", "passed", "detail"} <= set(c)
            assert c["name"] in CLAIM_BOUNDS
        # Every claim is checked at least once, and most apply even at
        # the tiny preset's scale.
        assert {c["name"] for c in checks} == set(CLAIM_BOUNDS)
        assert sum(c["applies"] for c in checks) > len(checks) // 2

    def test_table2_claims_check_every_row(self, bundle):
        """Hit rates are checked on every row, the ones below the
        speedup bands' 20k-arc floor included."""
        rows = bundle.summary["sections"]["table1"]["rows"]
        hit = {c["workload"]: c for c in
               bundle.summary["sections"]["table1"]["band_checks"]
               if c["name"] == "cache_hit_pct"}
        assert set(hit) == {r["workload"] for r in rows}
        assert any(r["arcs"] < 20_000 for r in rows)
        assert all(c["applies"] for c in hit.values())

    def test_rows_pair_measured_with_paper(self, bundle):
        for row in bundle.summary["sections"]["table1"]["rows"]:
            assert set(row["measured"]) == set(row["paper"])

    def test_manifest_stamps_environment_and_seeds(self, bundle):
        m = json.loads((Path(bundle.out_dir) / "manifest.json").read_text())
        assert m["preset"] == "tiny"
        assert m["python"] and m["numpy"]
        assert set(m["seeds"]) == {"table1", "figure1", "serve",
                                  "serve_scale"}

    def test_band_check_failure_wiring(self, bundle):
        """A failing applicable band or claim check must flip its
        section and the bundle."""
        import copy
        for section, key in (("table1", "band_checks"),
                             ("claims", "checks")):
            doc = copy.deepcopy(bundle.summary)
            sec = doc["sections"][section]
            assert checks_ok(sec[key])
            sec[key][0].update(applies=True, passed=False)
            # the wiring run_reproduce uses
            sec["ok"] = checks_ok(sec[key])
            assert sec["ok"] is False, section
            assert not all(s["ok"] for s in doc["sections"].values())

    def test_report_md_mentions_verdict_and_sections(self, bundle):
        text = (Path(bundle.out_dir) / "report.md").read_text()
        assert "Verdict: PASS" in text
        for heading in ("Manifest", "Table I", "Figure 1",
                        "Paper claims", "Serving",
                        "Serve-scale",
                        "Static analysis", "Artifacts"):
            assert heading in text
        for filename in ARTIFACT_FILES:
            assert filename in text


class TestDeterminism:
    def test_two_runs_byte_identical_modulo_volatile(self, bundle,
                                                     tmp_path):
        again = run_reproduce(preset_name="tiny", seed=0,
                              out_dir=str(tmp_path), verbose=False)
        a = deterministic_doc(bundle.summary)
        b = deterministic_doc(again.summary)
        assert json.dumps(a, sort_keys=True, default=str) == \
            json.dumps(b, sort_keys=True, default=str)
        # The purely-simulated artifacts are byte-identical outright.
        for name in ("table1.csv", "figure1.csv", "BENCH_serve.json",
                     "serve_jobs.csv", "analysis.sarif"):
            assert (Path(bundle.out_dir) / name).read_text() == \
                (tmp_path / name).read_text(), name

    def test_volatile_keys_stripped_recursively(self):
        doc = {"a": 1, "git_sha": "abc",
               "nested": [{"generated_at": "x", "keep": True}]}
        assert deterministic_doc(doc) == {"a": 1, "nested": [{"keep": True}]}


def _committed() -> dict:
    return {"benchmark": "x", "seed": 0, "ok": True,
            "host": {"python": "3.11.0"}, "generated_at": "2016-05-23",
            "rows": [{"workload": "kron17", "makespan_ms": 1.25,
                      "triangles": 10},
                     {"workload": "ba", "makespan_ms": 0.5,
                      "triangles": 3}]}


def _set(path, value):
    def mutate(doc):
        *parents, leaf = path
        for key in parents:
            doc = doc[key]
        doc[leaf] = value(doc[leaf]) if callable(value) else value
    return mutate


def _delete(key):
    return lambda doc: doc.pop(key)


#: (case, mutation of the committed document, JSON path of the one
#: expected problem or None for a match).
DRIFT_CASES = [
    ("identical", lambda doc: None, None),
    ("float_within_tolerance",
     _set(("rows", 0, "makespan_ms"), lambda v: v * (1 + 1e-9)), None),
    ("host_ignored", _set(("host", "python"), "3.12.1"), None),
    ("volatile_ignored", _set(("generated_at",), "2026-10-20"), None),
    ("float_beyond_tolerance",
     _set(("rows", 0, "makespan_ms"), lambda v: v * (1 + 1e-5)),
     "$.rows[0].makespan_ms"),
    ("int", _set(("rows", 1, "triangles"), 4), "$.rows[1].triangles"),
    ("bool", _set(("ok",), False), "$.ok"),
    ("bool_for_int", _set(("seed",), False), "$.seed"),
    ("string", _set(("rows", 0, "workload"), "ws"), "$.rows[0].workload"),
    ("shorter_list", lambda doc: doc["rows"].pop(), "$.rows"),
    ("missing_key", _delete("seed"), "$.seed"),
    ("extra_key", _set(("extra",), 1), "$.extra"),
]


class TestCommittedDrift:
    @pytest.mark.parametrize("mutate,path",
                             [c[1:] for c in DRIFT_CASES],
                             ids=[c[0] for c in DRIFT_CASES])
    def test_committed_drift(self, mutate, path):
        fresh = _committed()
        mutate(fresh)
        problems = committed_drift(fresh, _committed())
        if path is None:
            assert problems == []
        else:
            assert len(problems) == 1, problems
            assert problems[0].startswith(path + ":"), problems


class TestCli:
    def test_unknown_subcommand_lists_commands(self, capsys):
        assert cli_main(["definitely-not-a-command"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "table1" in err and "reproduce" in err and "gridsearch" in err

    def test_known_plus_unknown_still_rejected(self, capsys):
        assert cli_main(["table1", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_reproduce_parser_round_trips_presets(self):
        parser = build_parser()
        for preset in PRESETS:
            args = parser.parse_args(["--scale", preset])
            assert args.scale == preset
        with pytest.raises(SystemExit):
            parser.parse_args(["--scale", "huge"])

    def test_multigpu_cli_and_claims_share_one_table(self, monkeypatch):
        """`repro-bench multigpu` and the bundle's E11 claims measure the
        same graphs, kron18 at 4x its mini default included."""
        from repro.bench import experiments, reproduce
        from repro.graphs.datasets import get

        seen = []

        def fake_amdahl(graph, name=""):
            seen.append((name, graph.num_arcs))
            return experiments.AmdahlPoint(name, graph.num_arcs, 0.5, 1.6,
                                           1.2)

        monkeypatch.setattr(experiments, "amdahl_experiment", fake_amdahl)
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert cli_main(["multigpu"]) == 0
        cli_arcs = dict(seen)
        seen.clear()
        reproduce._amdahl_claims(seed=0)
        assert dict(seen) == cli_arcs
        assert cli_arcs["kron18"] > get("kron18").build().num_arcs

    def test_docs_commands_parse(self):
        """scripts/check_docs: every documented command parses."""
        out = subprocess.run([sys.executable,
                              str(REPO / "scripts" / "check_docs")],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_reproduce_script_help_runs(self):
        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "reproduce_all"),
             "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "--scale" in out.stdout and "--out-dir" in out.stdout
