"""``python -m repro.analysis`` — the gemlint command line.

Exit codes: 0 clean (every finding fixed or excused by a reasoned
same-line pragma), 1 findings, 2 configuration errors (unknown rule or
option).

Typical invocations::

    python -m repro.analysis src                    # gate the library
    python -m repro.analysis src --format github    # CI annotations
    python -m repro.analysis src --select GEM-D01   # one rule only
    python -m repro.analysis --list-rules           # the rule catalog

One pass runs over the whole of the given paths: each file is parsed
once for the per-file AST rules, and the project-graph rules
(GEM-C03/C04/R02/R03) check a graph built from the same trees — a
lock-order cycle or a dropped deadline spans files, so the graph needs
every module at once.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import all_project_rules, all_rules, analyze_project


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="gemlint: AST + project-graph checks for the repo's "
        "determinism, RNG, lock, copy-on-write, layering, deadline and "
        "resource contracts. One pass parses each file once and runs the "
        "per-file AST rules and the project-graph rules "
        "(GEM-C03/C04/R02/R03).",
        epilog="exit codes: 0 clean (every finding fixed or excused by a "
        "reasoned same-line pragma); 1 findings; 2 configuration errors "
        "(unknown rule or option, --format markdown without --list-rules)",
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
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (per-file and project-graph rules) and exit",
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

    rules = [*all_rules(), *all_project_rules()]
    if args.select:
        wanted = {rid.strip() for rid in args.select.split(",") if rid.strip()}
        known = {rule.id for rule in rules}
        unknown = wanted - known
        if unknown:
            print(
                f"gemlint: unknown rule id(s) {sorted(unknown)}; "
                f"known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"gemlint: no such path(s): {missing}", file=sys.stderr)
        return 2

    findings = analyze_project(paths, root=Path.cwd(), rules=rules)
    for finding in findings:
        print(finding.render_github() if args.format == "github" else finding.render())
    print(f"gemlint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
