"""``python -m repro.analysis`` — the gemlint command line.

Exit codes: 0 clean (everything baselined/suppressed with a reason),
1 findings or stale baseline entries, 2 configuration errors (unreadable
baseline, empty justification, unknown rule or option).

Typical invocations::

    python -m repro.analysis src                    # gate the library
    python -m repro.analysis src --format github    # CI annotations
    python -m repro.analysis src --prune-stale      # rewrite the baseline
    python -m repro.analysis src --write-baseline   # skeleton to review
    python -m repro.analysis --list-rules           # the rule catalog

Two stages run on every invocation over the whole of the given paths: the
per-file AST rules and the project-graph rules (GEM-C03/C04/R02/R03) — a
lock-order cycle or a dropped deadline spans files, so the graph stage
needs every module at once.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    write_baseline,
    write_entries,
)
from repro.analysis.engine import all_project_rules, all_rules, analyze_project

DEFAULT_BASELINE = "gemlint-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="gemlint: AST + project-graph checks for the repo's "
        "determinism, RNG, lock, copy-on-write, layering, deadline and "
        "resource contracts. Two stages run on every invocation: the "
        "per-file AST rules and the project-graph rules "
        "(GEM-C03/C04/R02/R03).",
        epilog="exit codes: 0 clean (everything baselined/suppressed "
        "with a reason); 1 findings or stale baseline entries; 2 "
        "configuration errors (unreadable baseline, empty justification, "
        "unknown rule or option, --format markdown without --list-rules)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github", "markdown"),
        default="text",
        help="finding output style; 'github' emits ::error workflow "
        "commands; 'markdown' is only valid with --list-rules and renders "
        "the rule catalog as the table embedded in docs/cli.md",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE} if it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring any baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline path with empty "
        "justifications (fill them in: the file refuses to load otherwise)",
    )
    parser.add_argument(
        "--prune-stale",
        action="store_true",
        help="rewrite the baseline dropping stale entries (justifications "
        "of surviving entries are preserved)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all, both stages)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (both stages) and exit",
    )
    return parser


def _print_rules(fmt: str = "text") -> None:
    if fmt == "markdown":
        # The exact table embedded between the gemlint-rules markers in
        # docs/cli.md; tests/test_docs.py diffs the two, so regenerating
        # the doc is `--list-rules --format markdown` + paste.
        print("| Rule | Name | Stage | Invariant |")
        print("| --- | --- | --- | --- |")
        for rule in all_rules():
            print(f"| {rule.id} | {rule.name} | per-file | {rule.invariant} |")
        for rule in all_project_rules():
            print(f"| {rule.id} | {rule.name} | project graph | {rule.invariant} |")
        return
    for rule in all_rules():
        print(f"{rule.id}  {rule.name}")
        print(f"    invariant:  {rule.invariant}")
        print(f"    motivated by: {rule.motivation}")
    for rule in all_project_rules():
        print(f"{rule.id}  {rule.name}  [project graph]")
        print(f"    invariant:  {rule.invariant}")
        print(f"    motivated by: {rule.motivation}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules(args.format)
        return 0
    if args.format == "markdown":
        print(
            "gemlint: --format markdown renders the rule catalog and is "
            "only valid with --list-rules",
            file=sys.stderr,
        )
        return 2

    rules = all_rules()
    project_rules = all_project_rules()
    if args.select:
        wanted = {rid.strip() for rid in args.select.split(",") if rid.strip()}
        known = {rule.id for rule in rules} | {rule.id for rule in project_rules}
        unknown = wanted - known
        if unknown:
            print(
                f"gemlint: unknown rule id(s) {sorted(unknown)}; "
                f"known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]
        project_rules = [rule for rule in project_rules if rule.id in wanted]

    root = Path.cwd()
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"gemlint: no such path(s): {missing}", file=sys.stderr)
        return 2

    findings = analyze_project(paths, root=root, rules=rules, project_rules=project_rules)

    baseline_path = Path(args.baseline) if args.baseline else Path(DEFAULT_BASELINE)
    if args.write_baseline:
        count = write_baseline(findings, baseline_path)
        print(
            f"gemlint: wrote {count} entr{'y' if count == 1 else 'ies'} to "
            f"{baseline_path}; write a justification for each before the "
            "baseline will load"
        )
        return 0

    stale = []
    if not args.no_baseline and (args.baseline or baseline_path.exists()):
        try:
            baseline = load_baseline(baseline_path)
        except (BaselineError, OSError) as exc:
            print(f"gemlint: {exc}", file=sys.stderr)
            return 2
        findings, stale = baseline.apply(findings)
        if args.prune_stale and stale:
            stale_ids = {id(entry) for entry in stale}
            survivors = [e for e in baseline.entries if id(e) not in stale_ids]
            write_entries(survivors, baseline_path)
            print(
                f"gemlint: pruned {len(stale)} stale entr"
                f"{'y' if len(stale) == 1 else 'ies'} from {baseline_path} "
                f"({len(survivors)} kept)",
                file=sys.stderr,
            )
            stale = []

    for finding in findings:
        if args.format == "github":
            print(finding.render_github())
        else:
            print(finding.render())
    for entry in stale:
        message = (
            f"stale baseline entry (no matching finding): {entry.render()} — "
            "delete it from the baseline (or run --prune-stale)"
        )
        if args.format == "github":
            print(f"::error file={baseline_path},title=gemlint baseline::{message}")
        else:
            print(f"{baseline_path}: {message}")

    total = len(findings) + len(stale)
    print(
        f"gemlint: {len(findings)} finding(s), {len(stale)} stale baseline "
        f"entr{'y' if len(stale) == 1 else 'ies'}",
        file=sys.stderr,
    )
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
