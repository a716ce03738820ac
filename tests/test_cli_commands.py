"""Smoke tests for the remaining repro-bench CLI commands (tiny
scales), plus the contractual 0/1/2 exit codes of the analyzer CLIs."""

import json

import pytest

from repro.analyze import LEGACY_RULES
from repro.analyze.cli import main as analyze_main
from repro.bench.cli import main


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")


class TestCliCommands:
    def test_profile(self, capsys):
        assert main(["profile", "-w", "kron16"]) == 0
        out = capsys.readouterr().out
        assert "==PROF==" in out
        assert "tex/L1 hit rate" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "-w", "kron17"]) == 0
        out = capsys.readouterr().out
        assert "scale sweep" in out
        assert "GTX" in out

    def test_gridsearch(self, capsys):
        assert main(["gridsearch"]) == 0
        out = capsys.readouterr().out
        assert "paper's choice" in out

    def test_multiple_commands_compose(self, capsys):
        assert main(["inputformat", "baselines"]) == 0
        out = capsys.readouterr().out
        assert "input format" in out
        assert "exact baselines" in out

    def test_figure1_with_csv(self, tmp_path, capsys):
        assert main(["figure1", "--no-quad", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "figure1.csv").exists()
        out = capsys.readouterr().out
        assert "FIGURE 1" in out


_CLEAN = "def f(x):\n    return x + 1\n"
_DIRTY = ("def f(tl):\n"
          "    tl.wait_for(1, 1)\n")
_LEGACY_DIRTY = "import numpy as np\nv = np.random.rand(3)\n"
_BROKEN = "def broken(:\n"


class TestAnalyzeExitCodes:
    """The 0/1/2 contract of repro-analyze, also when ``--rules``
    restricts it to the legacy rules: 0 clean, 1 findings (or stale
    baseline entries), 2 usage/parse."""

    @pytest.fixture()
    def tree(self, tmp_path):
        def write(name, source):
            path = tmp_path / name
            path.write_text(source)
            return str(path)
        return write

    def test_clean_exits_zero(self, tree, capsys):
        assert analyze_main([tree("clean.py", _CLEAN)]) == 0
        assert "clean: no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert analyze_main([tree("dirty.py", _DIRTY)]) == 1
        assert "SAN202" in capsys.readouterr().out

    def test_syntax_error_exits_two(self, tree, capsys):
        assert analyze_main([tree("broken.py", _BROKEN)]) == 2
        assert "SAN000" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tree, capsys):
        assert analyze_main([tree("clean.py", _CLEAN),
                             "--rules", "SAN777"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_update_baseline_requires_baseline(self, tree, capsys):
        assert analyze_main([tree("clean.py", _CLEAN),
                             "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_unreadable_baseline_exits_two(self, tree, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{nope")
        assert analyze_main([tree("clean.py", _CLEAN),
                             "--baseline", str(bad)]) == 2

    def test_baseline_gates_known_findings_to_zero(self, tree, tmp_path):
        dirty = tree("dirty.py", _DIRTY)
        baseline = tmp_path / "baseline.json"
        assert analyze_main([dirty, "--baseline", str(baseline),
                             "--update-baseline"]) == 0
        assert analyze_main([dirty, "--baseline", str(baseline)]) == 0

    def test_stale_baseline_entry_exits_one(self, tree, tmp_path, capsys):
        dirty = tree("dirty.py", _DIRTY)
        baseline = tmp_path / "baseline.json"
        assert analyze_main([dirty, "--baseline", str(baseline),
                             "--update-baseline"]) == 0
        (tmp_path / "dirty.py").write_text(_CLEAN)  # debt fixed
        assert analyze_main([dirty, "--baseline", str(baseline)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_sarif_output_written_on_findings(self, tree, tmp_path):
        out = tmp_path / "analysis.sarif"
        assert analyze_main([tree("dirty.py", _DIRTY), "--format",
                             "sarif", "--output", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "SAN202"

    def test_legacy_rules_same_contract(self, tree, capsys):
        legacy = ["--rules", ",".join(LEGACY_RULES)]
        assert analyze_main([tree("clean.py", _CLEAN)] + legacy) == 0
        assert analyze_main([tree("legacy.py", _LEGACY_DIRTY)] + legacy) == 1
        assert "SAN103" in capsys.readouterr().out
        assert analyze_main([tree("broken.py", _BROKEN)] + legacy) == 2

    def test_legacy_rules_ignore_new_rules(self, tree):
        # A run restricted to the legacy rules must not start failing on
        # the path-sensitive SAN2xx findings.
        assert analyze_main([tree("dirty.py", _DIRTY), "--rules",
                             ",".join(LEGACY_RULES)]) == 0
