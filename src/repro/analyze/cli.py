"""``repro-analyze`` — the static-analysis command line.

Exit-code contract (pinned by ``tests/test_cli_commands.py``):

* ``0`` — clean: no findings (or every finding baselined);
* ``1`` — findings: at least one new (non-baselined) finding, or a
  stale baseline entry that should be burned down;
* ``2`` — usage or parse error: bad flags, unreadable baseline,
  unknown rule id, or analyzed source that does not parse (SAN000).

``--rules SAN100,SAN101,SAN102,SAN103,SAN104,SAN105`` restricts a run
to the original flat-walker rules.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO

from repro.analyze import analyze_paths, check_ids
from repro.analyze import baseline as baseline_mod
from repro.analyze.emit import emit_json, emit_sarif, emit_text
from repro.analyze.registry import rule_catalog
from repro.errors import AnalysisError

_FORMATS = ("text", "json", "sarif")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Dataflow-based static analysis for the repro "
                    "(CFG + plugin checks SAN100-SAN205b).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=_FORMATS, default="text",
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--baseline", metavar="FILE",
                        help="baseline file: matching findings are "
                             "reported but do not gate")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline from the current "
                             "findings and exit 0")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all registered)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def run(argv: list[str] | None = None,
        out: IO[str] | None = None) -> int:
    stream = out if out is not None else sys.stdout
    parser = _build_parser()
    ns = parser.parse_args(argv)

    if ns.list_rules:
        for rule, summary in sorted(rule_catalog().items()):
            print(f"{rule}  {summary}", file=stream)
        return 0

    checks: list[str] | None = None
    if ns.rules:
        requested = [r.strip() for r in ns.rules.split(",") if r.strip()]
        known = set(check_ids())
        unknown = [r for r in requested if r not in known]
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(check_ids())}")
        checks = requested
    if ns.update_baseline and not ns.baseline:
        raise AnalysisError("--update-baseline requires --baseline FILE")

    result = analyze_paths(ns.paths, checks=checks)
    findings = list(result.findings)

    if ns.update_baseline:
        baseline_mod.save(ns.baseline, findings)
        print(f"baseline {ns.baseline} updated: "
              f"{len(findings)} finding(s) recorded", file=stream)
        # Parse errors still surface even when rewriting the baseline.
        for record in result.errors:
            print(record.format(), file=sys.stderr)
        return 2 if result.errors else 0

    new, matched, stale = findings, [], []  # type: ignore[var-annotated]
    if ns.baseline:
        known_baseline = baseline_mod.load(ns.baseline)
        new, matched, stale = baseline_mod.split(findings, known_baseline)

    report = sorted(list(result.errors) + new)
    if ns.format == "text":
        rendered = emit_text(report)
        if matched:
            rendered += (f"{len(matched)} baselined finding(s) "
                         "suppressed by the baseline\n")
        for path, rule, line in stale:
            rendered += (f"stale baseline entry: {path}:{line} {rule} "
                         "no longer reported — refresh with "
                         "--update-baseline\n")
    elif ns.format == "json":
        rendered = emit_json(report, files=result.files)
    else:
        rendered = emit_sarif(report)

    if ns.output:
        Path(ns.output).write_text(rendered, encoding="utf-8")
    else:
        stream.write(rendered)

    if result.errors:
        for record in result.errors:
            print(record.format(), file=sys.stderr)
        return 2
    return 1 if new or stale else 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point wrapping :func:`run` into the 0/1/2 exit
    contract (argparse's own usage failures land on 2 already)."""
    try:
        return run(argv)
    except AnalysisError as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
