"""``repro lint`` — run the static invariants gate from the CLI.

Exit codes: 0 clean (or all findings baselined under ``--check``); 1 when
violations (or, with ``--check``, *new* violations) exist; 2 on usage
errors.  See ``docs/lint.md`` for the rule catalog.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.lint.baseline import Baseline
from repro.lint.core import LintProject, run_lint, select_rules
from repro.lint.flow import engine as flow_engine
from repro.lint.flow.graph import to_dot, to_json_doc
from repro.lint.parity import update_manifest
from repro.lint.reporters import render_json, render_rule_catalog, render_text

__all__ = ["add_lint_parser", "cmd_lint"]

#: severities that gate (notices inform but never fail a run)
_GATING = ("warning", "error")


def add_lint_parser(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "lint",
        help="statically prove the simulator's invariants "
             "(determinism, units, fast-path parity, registry drift)",
    )
    p.add_argument("--root", default=".",
                   help="repository root (default: current directory)")
    p.add_argument("--rules",
                   help="comma-separated rule ids or prefixes "
                        "(e.g. DET,UNIT001,PAR); default: all")
    p.add_argument("--check", action="store_true",
                   help="gate mode: fail only on violations not in the "
                        "committed baseline (LINT_BASELINE.json)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report instead of text")
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--baseline",
                   help="baseline file (default: <root>/LINT_BASELINE.json)")
    p.add_argument("--update-baseline", action="store_true",
                   help="re-record the baseline from the current findings")
    p.add_argument("--update-parity", action="store_true",
                   help="re-record the engine decode-window parity snapshot "
                        "(LINT_PARITY.json) after a verified paired edit")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--graph", action="store_true",
                   help="export the interprocedural call graph (taint "
                        "paths highlighted) instead of a violation report")
    p.add_argument("--graph-format", choices=("dot", "json"), default="dot",
                   help="call-graph export format (default: dot)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the incremental flow "
                        "cache (.lint_cache/); results are identical, "
                        "only slower")
    p.set_defaults(func=cmd_lint)


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rule_catalog())
        return 0
    root = pathlib.Path(args.root)
    if not (root / "src" / "repro").is_dir():
        print(f"lint: {root} does not look like the repo root "
              f"(no src/repro)", file=sys.stderr)
        return 2
    flow_engine.configure(cache=not args.no_cache)

    if args.graph:
        from repro.lint.flow.taint import taint_report
        project = LintProject(root)
        program = flow_engine.program_for(project)
        taint = taint_report(program, project)
        text = (to_dot(program, taint) if args.graph_format == "dot"
                else to_json_doc(program, taint))
        if args.out:
            out = pathlib.Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text)
            print(f"wrote {out} ({program.stats['functions']} functions, "
                  f"{program.stats['edges']} edges, "
                  f"{len(taint.findings)} taint path(s))")
        else:
            print(text, end="")
        return 0

    if args.update_parity:
        path = update_manifest(root)
        print(f"[recorded] parity snapshot -> {path}")
        if not (args.check or args.update_baseline):
            return 0

    try:
        rules = select_rules(args.rules)
    except KeyError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    project = LintProject(root)
    violations = run_lint(root, rules=rules, project=project)
    gating = [v for v in violations if v.severity in _GATING]

    baseline = Baseline(pathlib.Path(args.baseline)) if args.baseline \
        else Baseline.at_root(root)
    if args.update_baseline:
        path = baseline.write(gating)
        print(f"[recorded] {len(gating)} finding(s) -> {path}")
        return 0

    new_keys: set[str] | None = None
    if args.check:
        new, stale = baseline.diff(gating)
        new_keys = {v.key() for v in new}

    text = render_json(violations, new_keys) if args.json \
        else render_text(violations, new_keys)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)

    if args.check:
        if stale:
            print(f"[hint] {len(stale)} baselined finding(s) no longer "
                  f"occur — re-record with `repro lint --update-baseline` "
                  f"to tighten the gate", file=sys.stderr)
        if new_keys:
            print(f"[FAIL] {len(new_keys)} new violation(s) vs the "
                  f"committed baseline", file=sys.stderr)
            return 1
        return 0
    return 1 if gating else 0
