"""The one-command reproduction bundle: schema, determinism, sweeps,
tuned-config round-trip, CLI regression (ISSUE 7)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.autotune import run_sweep
from repro.bench.cli import main as cli_main
from repro.bench.reproduce import (ARTIFACT_FILES, PRESETS, SUMMARY_FORMAT,
                                   VOLATILE_KEYS, build_parser,
                                   deterministic_doc, run_reproduce)
from repro.bench.sweepconfig import (SweepConfig, load_sweep_config,
                                     validate_sweep_doc)
from repro.errors import SweepConfigError
from repro.gpusim.device import DEVICES, GTX_980
from repro.serve import (Fleet, TraceConfig, TunedConfigs, build_graph_pool,
                         generate_trace, serve_trace, size_fleet_memory)

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
        assert set(doc["sections"]) == {"table1", "figure1", "serve",
                                        "serve_scale", "tune", "analyze"}
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

    def test_rows_pair_measured_with_paper(self, bundle):
        for row in bundle.summary["sections"]["table1"]["rows"]:
            assert set(row["measured"]) == set(row["paper"])

    def test_manifest_stamps_environment_and_seeds(self, bundle):
        m = json.loads((Path(bundle.out_dir) / "manifest.json").read_text())
        assert m["preset"] == "tiny"
        assert m["python"] and m["numpy"]
        assert set(m["seeds"]) == {"table1", "figure1", "serve",
                                  "serve_scale", "sweep"}
        assert m["sweep_config"]["grid"]["device"]

    def test_band_check_failure_wiring(self, bundle):
        """A failing applicable check must flip the section and bundle."""
        import copy
        doc = copy.deepcopy(bundle.summary)
        sec = doc["sections"]["table1"]
        sec["band_checks"][0].update(applies=True, passed=False)
        applicable = [c for c in sec["band_checks"] if c["applies"]]
        recomputed = (all(c["passed"] for c in applicable)
                      and not sec["dagger_problems"])
        assert recomputed is False   # the wiring run_reproduce uses

    def test_report_md_mentions_verdict_and_sections(self, bundle):
        text = (Path(bundle.out_dir) / "report.md").read_text()
        assert "Verdict: PASS" in text
        for heading in ("Manifest", "Table I", "Figure 1", "Serving",
                        "Serve-scale", "Autotune",
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
                     "tuned.json", "serve_jobs.csv", "analysis.sarif"):
            assert (Path(bundle.out_dir) / name).read_text() == \
                (tmp_path / name).read_text(), name

    def test_volatile_keys_stripped_recursively(self):
        doc = {"a": 1, "host_s": 2.0,
               "nested": [{"generated_at": "x", "keep": True}]}
        assert deterministic_doc(doc) == {"a": 1, "nested": [{"keep": True}]}


class TestSweepConfig:
    def test_committed_sweep_parses(self):
        config = load_sweep_config(str(REPO / "configs" / "sweep.toml"))
        assert config.name == "paper-grid"
        assert config.workload == "kron17"
        assert config.emit_tuned == "configs/tuned.json"
        assert len(config.points()) == (len(config.devices)
                                        * len(config.kernels)
                                        * len(config.threads_per_block)
                                        * len(config.blocks_per_sm))

    @pytest.mark.parametrize("doc,key", [
        ({"sweep": {"workload": "nope"}}, "sweep.workload"),
        ({"sweep": {"objective": "fastest"}}, "sweep.objective"),
        ({"sweep": {"seed": "zero"}}, "sweep.seed"),
        ({"grid": {"device": ["rtx4090"]}}, "grid.device"),
        ({"grid": {"kernel": ["local"]}}, "grid.kernel"),
        ({"grid": {"engine": ["turbo"]}}, "grid.engine"),
        ({"grid": {"threads_per_block": []}}, "grid.threads_per_block"),
        ({"grid": {"blocks_per_sm": [-1]}}, "grid.blocks_per_sm"),
        ({"grid": {"scale": [2.0]}}, "grid.scale"),
        ({"grid": {"warp": [32]}}, "grid.warp"),
        ({"typo": {}}, "typo"),
        ({"emit": {"tuned": 7}}, "emit.tuned"),
    ])
    def test_typed_errors_name_the_bad_key(self, doc, key):
        with pytest.raises(SweepConfigError) as exc:
            validate_sweep_doc(doc)
        assert exc.value.key == key
        assert key in str(exc.value)

    def test_unreadable_file_is_typed(self, tmp_path):
        with pytest.raises(SweepConfigError):
            load_sweep_config(str(tmp_path / "missing.toml"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SweepConfigError):
            load_sweep_config(str(bad))

    def test_minimal_toml_fallback_matches_schema(self, tmp_path):
        """The 3.10 fallback parser handles the committed file's shape."""
        from repro.bench.sweepconfig import _parse_toml_minimal
        text = (REPO / "configs" / "sweep.toml").read_text()
        config = validate_sweep_doc(_parse_toml_minimal(text))
        assert config == load_sweep_config(str(REPO / "configs"
                                               / "sweep.toml"))


class TestTunedRoundTrip:
    @pytest.fixture(scope="class")
    def tuned(self, tmp_path_factory):
        config = SweepConfig(
            name="t", workload="kron16", seed=0, objective="kernel_ms",
            devices=("gtx980",), kernels=("merge",),
            threads_per_block=(64, 256), blocks_per_sm=(2, 8),
            scales=(1.0,))
        path = tmp_path_factory.mktemp("tuned") / "tuned.json"
        run_sweep(config).write_tuned(str(path))
        return TunedConfigs.load(str(path))

    def test_loader_resolves_device(self, tuned):
        entry = tuned.entry_for(GTX_980)
        assert entry is not None
        assert (entry.threads_per_block, entry.blocks_per_sm) in {
            (64, 2), (64, 8), (256, 2), (256, 8)}

    def test_scheduler_applies_tuned_without_changing_counts(self, tuned):
        config = TraceConfig(seed=0, duration_ms=4_000.0, rate_per_s=2.0)
        pool = build_graph_pool(config)
        spec = min(Fleet.parse("gtx980x2"),
                   key=lambda d: d.spec.memory_bytes).spec
        memory = size_fleet_memory(pool, config, spec)

        def replay(tuned_cfg):
            fleet = Fleet.parse("gtx980x2", memory_bytes=memory)
            return serve_trace(fleet, generate_trace(config, pool),
                               tuned=tuned_cfg)
        base, tuned_rep = replay(None), replay(tuned)
        counts = {j.job_id: j.triangles for j in base.done}
        assert counts  # trace must exercise the fleet
        for job in tuned_rep.done:
            assert job.triangles == counts[job.job_id]

    def test_job_cache_identity_unchanged(self, tuned):
        """Tuning is an execution detail: cache keys ignore it."""
        config = TraceConfig(seed=0, duration_ms=4_000.0, rate_per_s=2.0)
        pool = build_graph_pool(config)
        jobs_a = generate_trace(config, pool)
        jobs_b = generate_trace(config, pool)
        assert [j.cache_key() for j in jobs_a] == \
            [j.cache_key() for j in jobs_b]

    def test_invalid_tuned_doc_names_key(self):
        with pytest.raises(SweepConfigError) as exc:
            TunedConfigs.from_doc({"format": "repro-tuned/v1", "devices": {
                "gtx980": {"kernel": "merge",
                           "threads_per_block": -4, "blocks_per_sm": 1}}})
        assert exc.value.key == "devices.gtx980.threads_per_block"

    def test_unlaunchable_entry_rejected_at_load(self):
        with pytest.raises(Exception):
            TunedConfigs.from_doc({"format": "repro-tuned/v1", "devices": {
                "gtx980": {"kernel": "merge",
                           "threads_per_block": 4096, "blocks_per_sm": 64}}})

    def test_committed_tuned_json_loads(self):
        tuned = TunedConfigs.load(str(REPO / "configs" / "tuned.json"))
        for device in tuned.entries:
            assert device in DEVICES

    def test_tunable_kernels_track_the_registry(self):
        """A tuned entry may name any non-per-vertex registry kernel —
        including the probing strategies — or "auto"."""
        from repro.serve.tuned import _tunable_kernels
        tunable = _tunable_kernels()
        assert {"merge", "binary_search", "hash",
                "warp_intersect", "auto"} <= set(tunable)
        assert "local" not in tunable   # per-vertex pipeline, not serve

    def test_auto_entry_passes_through_to_options(self):
        from repro.core.options import GpuOptions
        tuned = TunedConfigs.from_doc({
            "format": "repro-tuned/v1", "devices": {
                "gtx980": {"kernel": "auto",
                           "threads_per_block": 64, "blocks_per_sm": 8}}})
        entry = tuned.entry_for(GTX_980)
        applied = entry.apply(GpuOptions())
        assert applied.kernel == "auto"

    def test_strategy_entry_maps_to_option_field(self):
        from repro.core.options import GpuOptions
        tuned = TunedConfigs.from_doc({
            "format": "repro-tuned/v1", "devices": {
                "gtx980": {"kernel": "binary_search",
                           "threads_per_block": 64, "blocks_per_sm": 8}}})
        applied = tuned.entry_for(GTX_980).apply(GpuOptions())
        assert applied.kernel == "binary_search"


class TestCli:
    def test_unknown_subcommand_lists_commands(self, capsys):
        assert cli_main(["definitely-not-a-command"]) == 2
        err = capsys.readouterr().err
        assert "unknown command" in err
        assert "table1" in err and "reproduce" in err and "tune" in err

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

    def test_reproduce_script_help_runs(self):
        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "reproduce_all"),
             "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "--scale" in out.stdout and "--out-dir" in out.stdout
