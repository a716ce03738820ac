"""The repro.analyze subsystem (ISSUE 9): CFG shapes, the dataflow
fixpoint, the plugin registry, baselines, emitter determinism, and the
path-sensitive checks SAN201-SAN205b (each with a seeded true positive
and a clean negative)."""

import ast
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analyze import LEGACY_RULES, analyze_paths, analyze_source
from repro.analyze import baseline as baseline_mod
from repro.analyze import check_ids, get_check
from repro.analyze.cfg import build_cfg
from repro.analyze.dataflow import (ReachingDefinitions, propagate_taint,
                                    walk_shallow)
from repro.analyze.emit import (JSON_FORMAT, SARIF_VERSION, emit_json,
                                emit_sarif, emit_text)
from repro.analyze.findings import Finding
from repro.analyze.registry import CheckSpec, _REGISTRY, register
from repro.errors import AnalysisError, CheckRegistrationError

FIXTURE_PATH = "src/repro/core/fixture.py"


def _rules(source, path=FIXTURE_PATH, checks=None):
    result = analyze_source(source, path, checks=checks)
    return [f.rule for f in result.findings]


def _findings(source, path=FIXTURE_PATH, checks=None):
    return analyze_source(source, path, checks=checks).findings


def _fn_cfg(source):
    node = ast.parse(source).body[0]
    assert isinstance(node, ast.FunctionDef)
    return build_cfg(node)


# ------------------------------------------------------------------- #
# CFG construction
# ------------------------------------------------------------------- #

class TestCfg:
    def test_straight_line_single_block(self):
        cfg = _fn_cfg("def f():\n    a = 1\n    b = a\n")
        entry = cfg.block(cfg.entry_id)
        assert len(entry.stmts) == 2
        assert cfg.exit_id in entry.succs

    def test_if_else_diamond(self):
        cfg = _fn_cfg(
            "def f(c):\n"
            "    if c:\n        a = 1\n"
            "    else:\n        a = 2\n"
            "    return a\n")
        labels = [b.label for b in cfg.blocks.values()]
        assert "if-body" in labels and "if-else" in labels \
            and "if-join" in labels
        entry = cfg.block(cfg.entry_id)
        assert len(entry.succs) == 2  # both arms branch from the test

    def test_if_header_exposes_condition_reads(self):
        cfg = _fn_cfg("def f(c):\n    if c:\n        pass\n")
        header = cfg.block(cfg.entry_id).stmts[-1]
        assert isinstance(header, ast.Expr)
        assert isinstance(header.value, ast.Name)

    def test_early_return_edges_to_exit(self):
        cfg = _fn_cfg(
            "def f(c):\n"
            "    if c:\n        return 1\n"
            "    return 2\n")
        exit_preds = cfg.preds()[cfg.exit_id]
        assert len(exit_preds) == 2

    def test_loop_has_back_edge_and_after_block(self):
        cfg = _fn_cfg(
            "def f(n):\n"
            "    i = 0\n"
            "    while i < n:\n        i = i + 1\n"
            "    return i\n")
        header = next(b for b in cfg.blocks.values()
                      if b.label == "loop-header")
        body = next(b for b in cfg.blocks.values()
                    if b.label == "loop-body")
        assert header.id in body.succs  # the back edge
        after = next(b for b in cfg.blocks.values()
                     if b.label == "loop-after")
        assert after.id in header.succs  # loop may not run

    def test_for_header_binds_loop_target(self):
        cfg = _fn_cfg("def f(xs):\n    for x in xs:\n        pass\n")
        header = next(b for b in cfg.blocks.values()
                      if b.label == "loop-header")
        assign = header.stmts[0]
        assert isinstance(assign, ast.Assign)
        assert isinstance(assign.targets[0], ast.Name)
        assert assign.targets[0].id == "x"

    def test_try_body_edges_into_handler(self):
        cfg = _fn_cfg(
            "def f():\n"
            "    try:\n        a = risky()\n"
            "    except ValueError:\n        a = 0\n"
            "    return a\n")
        handler = next(b for b in cfg.blocks.values()
                       if b.label == "except")
        try_blocks = [b for b in cfg.blocks.values()
                      if b.label == "try-body"]
        assert try_blocks
        assert all(handler.id in b.succs for b in try_blocks)

    def test_unhandled_raise_goes_to_raise_sink_not_exit(self):
        cfg = _fn_cfg("def f():\n    raise ValueError()\n")
        preds = cfg.preds()
        assert preds[cfg.raise_id]
        # Nothing reaches the normal exit through the raise path.
        raising = {b.id for b in cfg.blocks.values()
                   if any(isinstance(s, ast.Raise) for s in b.stmts)}
        assert all(p not in raising for p in preds[cfg.exit_id])

    def test_with_binds_as_name_in_header(self):
        cfg = _fn_cfg(
            "def f(p):\n"
            "    with open(p) as fh:\n        return fh\n")
        entry = cfg.block(cfg.entry_id)
        # The with body flows into the same block: header assign first,
        # then the body's return.
        assign, ret = entry.stmts
        assert isinstance(assign, ast.Assign)
        assert assign.targets[0].id == "fh"
        assert isinstance(ret, ast.Return)

    def test_break_edges_to_loop_after(self):
        cfg = _fn_cfg(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        if x:\n            break\n"
            "    return 0\n")
        after = next(b for b in cfg.blocks.values()
                     if b.label == "loop-after")
        assert len(cfg.preds()[after.id]) >= 2  # header fallout + break


# ------------------------------------------------------------------- #
# dataflow
# ------------------------------------------------------------------- #

class TestDataflow:
    def test_fixpoint_terminates_on_loop(self):
        # A loop with a cyclically reassigned name: the powerset lattice
        # must stabilize instead of oscillating.
        cfg = _fn_cfg(
            "def f(n):\n"
            "    x = 0\n"
            "    for i in range(n):\n"
            "        x = x + i\n"
            "    return x\n")
        rd = ReachingDefinitions(cfg)
        assert rd.sites("x")  # both definitions may reach the exit
        assert len(rd.sites("x")) == 2

    def test_reaching_defs_strong_update(self):
        cfg = _fn_cfg("def f():\n    x = 1\n    x = 2\n    return x\n")
        assert len(cfg.block(cfg.entry_id).stmts) == 3
        rd = ReachingDefinitions(cfg)
        assert rd.sites("x") == frozenset({(cfg.entry_id, 1)})

    def test_taint_strong_update_clears_rebound_name(self):
        cfg = _fn_cfg(
            "def f(tid, data):\n"
            "    x = tid\n"
            "    x = data\n")

        def expr_tainted(expr, tainted):
            return isinstance(expr, ast.Name) and (expr.id in tainted
                                                   or expr.id == "tid")
        state = propagate_taint(cfg, frozenset({"tid"}),
                                expr_tainted)[cfg.exit_id]
        assert "tid" in state and "x" not in state

    def test_taint_joins_over_branches(self):
        cfg = _fn_cfg(
            "def f(tid, data, c):\n"
            "    if c:\n        x = tid\n"
            "    else:\n        x = data\n"
            "    y = x\n")

        def expr_tainted(expr, tainted):
            return isinstance(expr, ast.Name) and (expr.id in tainted
                                                   or expr.id == "tid")
        state = propagate_taint(cfg, frozenset({"tid"}),
                                expr_tainted)[cfg.exit_id]
        assert "x" in state and "y" in state  # may-taint survives joins

    def test_walk_shallow_skips_nested_function_bodies(self):
        tree = ast.parse("visible = 1\n"
                         "def helper():\n    hidden = 2\n")
        names = {n.id for n in walk_shallow(tree)
                 if isinstance(n, ast.Name)}
        assert "visible" in names and "hidden" not in names

    def test_walk_shallow_never_descends_into_opaque_root(self):
        fn = ast.parse("def f():\n    inner = 1\n").body[0]
        names = [n for n in walk_shallow(fn) if isinstance(n, ast.Name)]
        assert names == []  # the unit's body is iterated separately


# ------------------------------------------------------------------- #
# registry
# ------------------------------------------------------------------- #

class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert set(check_ids()) >= set(LEGACY_RULES) | {
            "SAN201", "SAN202", "SAN203b", "SAN204b", "SAN205b"}

    def test_duplicate_id_is_typed_error(self):
        spec = CheckSpec(id="SAN999", name="probe-a", summary="s",
                         severity="error", run=lambda ctx: [])
        register(spec)
        try:
            clone = CheckSpec(id="SAN999", name="probe-b", summary="s",
                              severity="error", run=lambda ctx: [])
            with pytest.raises(CheckRegistrationError) as exc:
                register(clone)
            assert "SAN999" in str(exc.value)
            register(spec)  # same object re-registers fine (idempotent)
        finally:
            _REGISTRY.pop("SAN999", None)

    def test_malformed_rule_id_rejected(self):
        with pytest.raises(CheckRegistrationError):
            CheckSpec(id="BUG7", name="x", summary="s", severity="error",
                      run=lambda ctx: [])

    def test_unknown_severity_rejected(self):
        with pytest.raises(CheckRegistrationError):
            CheckSpec(id="SAN998", name="x", summary="s",
                      severity="fatal", run=lambda ctx: [])

    def test_get_unknown_check_is_typed_error(self):
        with pytest.raises(AnalysisError):
            get_check("SAN000x")

    def test_skip_parts_exempts_package(self):
        spec = get_check("SAN201")
        assert not spec.applies_to(("src", "repro", "gpusim", "x.py"))
        assert spec.applies_to(("src", "repro", "core", "x.py"))


# ------------------------------------------------------------------- #
# baselines
# ------------------------------------------------------------------- #

def _finding(path="src/a.py", rule="SAN201", line=3):
    return Finding(path=path, line=line, col=4, rule=rule, message="m")


class TestBaseline:
    def test_round_trip_matches_everything(self, tmp_path):
        findings = [_finding(line=3), _finding(line=9, rule="SAN202")]
        path = tmp_path / "baseline.json"
        baseline_mod.save(path, findings)
        new, matched, stale = baseline_mod.split(
            findings, baseline_mod.load(path))
        assert new == [] and stale == []
        assert sorted(matched) == sorted(findings)

    def test_new_finding_not_absorbed(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline_mod.save(path, [_finding(line=3)])
        new, _matched, stale = baseline_mod.split(
            [_finding(line=3), _finding(line=99)],
            baseline_mod.load(path))
        assert [f.line for f in new] == [99]
        assert stale == []

    def test_stale_entry_surfaces(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline_mod.save(path, [_finding(line=3), _finding(line=9)])
        new, _matched, stale = baseline_mod.split(
            [_finding(line=3)], baseline_mod.load(path))
        assert new == []
        assert stale == [("src/a.py", "SAN201", 9)]

    def test_matching_is_a_multiset(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline_mod.save(path, [_finding(line=3)])
        new, matched, _stale = baseline_mod.split(
            [_finding(line=3), _finding(line=3)],
            baseline_mod.load(path))
        assert len(matched) == 1 and len(new) == 1

    def test_message_ignored_in_matching(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline_mod.save(path, [_finding()])
        reworded = Finding(path="src/a.py", line=3, col=4, rule="SAN201",
                           message="entirely different wording")
        new, matched, stale = baseline_mod.split(
            [reworded], baseline_mod.load(path))
        assert new == [] and stale == [] and matched == [reworded]

    @pytest.mark.parametrize("text", [
        "{nope", '{"format": "something/else", "findings": []}',
        '{"format": "repro-analyze-baseline/v1", "findings": "x"}',
        '{"format": "repro-analyze-baseline/v1",'
        ' "findings": [{"path": 3}]}',
    ])
    def test_malformed_baseline_is_typed_error(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(AnalysisError):
            baseline_mod.load(bad)

    def test_missing_baseline_is_typed_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            baseline_mod.load(tmp_path / "absent.json")


# ------------------------------------------------------------------- #
# emitters
# ------------------------------------------------------------------- #

_FINDING_STRATEGY = st.builds(
    Finding,
    path=st.sampled_from(["src/a.py", "src/b.py", "examples/demo.py"]),
    line=st.integers(min_value=1, max_value=500),
    col=st.integers(min_value=0, max_value=79),
    rule=st.sampled_from(["SAN101", "SAN201", "SAN203b"]),
    message=st.text(min_size=0, max_size=40),
    severity=st.sampled_from(["error", "warning", "note"]),
)


class TestEmitters:
    def test_text_clean(self):
        assert emit_text([]) == "clean: no findings\n"

    def test_text_lists_and_counts(self):
        text = emit_text([_finding(), _finding(rule="SAN202", line=9)])
        assert "src/a.py:3:4: SAN201 m" in text
        assert "2 findings" in text
        assert "SAN201×1" in text and "SAN202×1" in text

    def test_json_schema(self):
        doc = json.loads(emit_json([_finding()], files=7))
        assert doc["format"] == JSON_FORMAT
        assert doc["files"] == 7
        assert doc["counts"] == {"SAN201": 1}
        assert doc["findings"][0]["rule"] == "SAN201"

    def test_sarif_rules_come_from_registry(self):
        doc = json.loads(emit_sarif([_finding()]))
        assert doc["version"] == SARIF_VERSION
        driver = doc["runs"][0]["tool"]["driver"]
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(check_ids())
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "SAN201"
        assert result["ruleIndex"] == rule_ids.index("SAN201")
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 5}

    @given(st.lists(
        _FINDING_STRATEGY, max_size=8,
        unique_by=lambda f: (f.path, f.line, f.col, f.rule)))
    def test_emitters_byte_identical_and_order_insensitive(self, findings):
        """Same set of findings -> byte-identical output, in every
        format, regardless of input order."""
        reordered = list(reversed(findings))
        assert emit_text(findings) == emit_text(reordered)
        assert emit_json(findings) == emit_json(reordered)
        assert emit_sarif(findings) == emit_sarif(reordered)
        assert emit_sarif(findings) == emit_sarif(list(findings))


# ------------------------------------------------------------------- #
# driver
# ------------------------------------------------------------------- #

class TestDriver:
    def test_syntax_error_becomes_san000_record(self):
        result = analyze_source("def broken(:\n", "bad.py")
        assert not result.findings
        assert [f.rule for f in result.errors] == ["SAN000"]
        assert result.files == 1

    def test_checks_filter_restricts_rules(self):
        assert "SAN201" not in _rules(_SAN201_BAD, checks=LEGACY_RULES)

    def test_analyze_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(_SAN201_BAD)
        (tmp_path / "pkg" / "notes.txt").write_text("not python")
        result = analyze_paths([str(tmp_path)])
        assert result.files == 1
        assert [f.rule for f in result.findings] == ["SAN201"]


# ------------------------------------------------------------------- #
# SAN201 — static racecheck
# ------------------------------------------------------------------- #

_SAN201_BAD = """\
def kernel(engine, buf, vertex_ids, tid, vals):
    engine.write(buf, vertex_ids, vals, tid)
"""

_SAN201_GOOD = """\
def kernel(engine, buf, tid, vals):
    idx = tid * 2 + 1
    engine.write(buf, idx, vals, tid)
"""


class TestSan201:
    def test_data_indexed_store_flagged(self):
        findings = _findings(_SAN201_BAD)
        assert [f.rule for f in findings] == ["SAN201"]
        assert "vertex_ids" in findings[0].message

    def test_identity_derived_index_clean(self):
        assert _rules(_SAN201_GOOD) == []

    def test_arange_iteration_space_is_identity(self):
        src = ("def kernel(engine, buf, vals, n):\n"
               "    tids = np.arange(n)\n"
               "    engine.atomic_add(buf, tids, vals, tids)\n")
        assert _rules(src) == []

    def test_taint_lost_through_data_lookup(self):
        # vertex_ids[tid] is *data indexed by identity*, not identity.
        src = ("def kernel(engine, buf, vertex_ids, tid, vals):\n"
               "    dest = vertex_ids[tid]\n"
               "    engine.atomic_add(buf, dest, vals, tid)\n")
        assert _rules(src) == ["SAN201"]

    def test_branch_rebinding_keeps_may_taint(self):
        src = ("def kernel(engine, buf, data, tid, vals, cond):\n"
               "    idx = tid\n"
               "    if cond:\n"
               "        idx = tid + 1\n"
               "    engine.write(buf, idx, vals, tid)\n")
        assert _rules(src) == []

    def test_suppression_at_call_site(self):
        src = _SAN201_BAD.replace(
            "engine.write(buf, vertex_ids, vals, tid)",
            "engine.write(buf, vertex_ids, vals, tid)  # san-ok: SAN201")
        assert _rules(src) == []


# ------------------------------------------------------------------- #
# SAN202 — stream-wait hygiene
# ------------------------------------------------------------------- #

class TestSan202:
    def test_self_wait_flagged(self):
        src = "def f(tl):\n    tl.wait_for(1, 1)\n"
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN202"]
        assert "waits on itself" in findings[0].message

    def test_wait_on_unrecorded_stream_flagged(self):
        src = "def f(tl):\n    tl.wait_for(0, 2)\n"
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN202"]
        assert "unrecorded" in findings[0].message

    def test_reversed_pair_reported_as_cycle(self):
        src = ("def f(tl):\n"
               "    tl.wait_for(1, 2)\n"
               "    tl.wait_for(2, 1)\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN202"]
        assert "cycle" in findings[0].message

    def test_issue_then_wait_is_clean(self):
        src = ("def f(tl):\n"
               "    tl.add_on('h2d', 1.0, 'copy', 1)\n"
               "    tl.wait_for(0, 1)\n")
        assert _rules(src) == []

    def test_arithmetic_stream_ids_out_of_scope(self):
        # The multi-GPU ring's wait_for(d, d - 1) shape.
        src = ("def f(tl, d):\n"
               "    tl.wait_for(d, d - 1)\n")
        assert _rules(src) == []

    def test_symbolic_upstream_in_passive_helper_skipped(self):
        # A helper that merely receives stream ids issues no events of
        # its own; intraprocedural matching cannot judge it.
        src = "def f(tl, upstream):\n    tl.wait_for(0, upstream)\n"
        assert _rules(src) == []

    def test_symbolic_upstream_checked_when_scope_issues(self):
        src = ("def f(tl, copy_stream, kernel_stream):\n"
               "    tl.add_on('h2d', 1.0, 'copy', stream=copy_stream)\n"
               "    tl.wait_for(0, kernel_stream)\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN202"]
        assert "kernel_stream" in findings[0].message


# ------------------------------------------------------------------- #
# SAN203b — buffer lifetime
# ------------------------------------------------------------------- #

class TestSan203b:
    def test_use_after_free(self):
        src = ("def f(mem, engine, n):\n"
               "    buf = mem.alloc(n)\n"
               "    mem.free(buf)\n"
               "    return engine.read(buf)\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN203b"]
        assert "after it was freed" in findings[0].message

    def test_double_free(self):
        src = ("def f(mem, n):\n"
               "    buf = mem.alloc(n)\n"
               "    mem.free(buf)\n"
               "    mem.free(buf)\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN203b"]
        assert "double free" in findings[0].message

    def test_leak_on_early_return(self):
        src = ("def f(mem, n, cond):\n"
               "    buf = mem.alloc(n)\n"
               "    if cond:\n"
               "        return 0\n"
               "    mem.free(buf)\n"
               "    return 1\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN203b"]
        assert "leaks on this early return" in findings[0].message
        assert findings[0].line == 4  # the return statement

    def test_maybe_freed_is_not_reported(self):
        # Only *definite* facts fire: freed on one branch, used after
        # the join -> maybe-freed -> silent.
        src = ("def f(mem, engine, n, cond):\n"
               "    buf = mem.alloc(n)\n"
               "    if cond:\n"
               "        mem.free(buf)\n"
               "    engine.read(buf)\n")
        assert _rules(src) == []

    def test_try_alloc_early_return_not_a_leak(self):
        # The queue.fits_device shape: try_alloc may return None, so
        # returning early without freeing is not a definite leak.
        src = ("def fits(mem, n):\n"
               "    probe = mem.try_alloc(n)\n"
               "    if probe is None:\n"
               "        return False\n"
               "    mem.free(probe)\n"
               "    return True\n")
        assert _rules(src) == []

    def test_returned_buffer_escapes_ownership(self):
        src = ("def f(mem, n, cond):\n"
               "    buf = mem.alloc(n)\n"
               "    if cond:\n"
               "        return buf\n"
               "    mem.free(buf)\n"
               "    return None\n")
        assert _rules(src) == []

    def test_free_all_then_use(self):
        src = ("def f(mem, engine, n):\n"
               "    buf = mem.alloc(n)\n"
               "    mem.free_all()\n"
               "    return engine.read(buf)\n")
        assert _rules(src) == ["SAN203b"]


# ------------------------------------------------------------------- #
# SAN204b — launch geometry vs the device catalog
# ------------------------------------------------------------------- #

class TestSan204b:
    def test_catalog_geometry_clean(self):
        src = "cfg = LaunchConfig(64, 8)\n"
        assert _rules(src) == []

    def test_tpb_over_hard_cap_flagged(self):
        findings = _findings("cfg = LaunchConfig(4096 * 4)\n")
        assert [f.rule for f in findings] == ["SAN204b"]
        assert "exceeds the hardware cap" in findings[0].message

    def test_oversubscribed_sm_flagged(self):
        src = "cfg = LaunchConfig(1024, blocks_per_sm=4)\n"
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN204b"]
        assert "max_threads_per_sm" in findings[0].message

    def test_nonpositive_geometry_flagged(self):
        assert _rules("cfg = LaunchConfig(threads_per_block=0)\n") \
            == ["SAN204b"]
        assert _rules("cfg = LaunchConfig(64, -1)\n") == ["SAN204b"]

    def test_non_constant_dimension_skipped(self):
        src = ("def f(tpb):\n"
               "    return LaunchConfig(tpb, 8)\n")
        assert _rules(src) == []

    def test_non_warp_multiple_flagged(self):
        findings = _findings("cfg = LaunchConfig(50, 1)\n")
        assert [f.rule for f in findings] == ["SAN204b"]
        assert "warp" in findings[0].message


# ------------------------------------------------------------------- #
# SAN205b — untimed transfers
# ------------------------------------------------------------------- #

class TestSan205b:
    def test_discarded_transfer_cost_flagged(self):
        src = "def f(mem, nbytes):\n    mem.h2d_ms(nbytes)\n"
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN205b"]
        assert "discarded" in findings[0].message

    def test_assigned_but_never_read_flagged(self):
        src = ("def f(mem, nbytes):\n"
               "    cost = mem.d2h_ms(nbytes)\n"
               "    return 0\n")
        findings = _findings(src)
        assert [f.rule for f in findings] == ["SAN205b"]
        assert "never" in findings[0].message

    def test_stamped_on_timeline_clean(self):
        src = ("def f(tl, mem, nbytes):\n"
               "    cost = mem.h2d_ms(nbytes)\n"
               "    tl.add_on('h2d', cost, 'copy', 1)\n")
        assert _rules(src) == []

    def test_cost_as_argument_clean(self):
        src = ("def f(tl, mem, nbytes):\n"
               "    tl.add_on('h2d', mem.h2d_ms(nbytes), 'copy', 1)\n")
        assert _rules(src) == []

    def test_cost_in_arithmetic_clean(self):
        src = ("def f(mem, nbytes):\n"
               "    return 2.0 + mem.h2d_ms(nbytes)\n")
        assert _rules(src) == []
