"""Tier-1 gate: the shipped tree must be gemlint-clean.

Runs the full analyzer — the per-file rules and the project-graph rules
(GEM-C03/C04/R02/R03) in one pass — over ``src/`` exactly like CI does and
asserts that it reports nothing. If this test fails, fix the reported
finding or excuse it with a same-line
``# gemlint: disable=<rule>(reason)`` pragma; there is no other way.
The remaining tests pin the CLI's ``--select`` on the real tree and the
one-pass contract: each file is parsed once and scanned for pragmas once.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import analyze_project, iter_python_files, project_rule_registry, rule_registry
from repro.analysis.__main__ import main

REPO = Path(__file__).resolve().parents[1]


def test_src_tree_has_no_unbaselined_findings():
    findings = analyze_project([REPO / "src"], root=REPO)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"gemlint findings:\n{rendered}"


@pytest.mark.parametrize("rule_id", sorted({**rule_registry(), **project_rule_registry()}))
def test_select_any_single_rule_is_clean(rule_id, monkeypatch, capsys):
    # A pragma for a rule that did not run is not stale.
    monkeypatch.chdir(REPO)
    assert main(["src", "--select", rule_id]) == 0, capsys.readouterr().out


def test_each_file_is_parsed_and_scanned_for_pragmas_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ast, "parse", counted("parse", ast.parse))
    monkeypatch.setattr(tokenize, "generate_tokens", counted("tokenize", tokenize.generate_tokens))
    analyze_project([REPO / "src"], root=REPO)
    n_files = len(list(iter_python_files([REPO / "src"])))
    assert calls == {"parse": n_files, "tokenize": n_files}
