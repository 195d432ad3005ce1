"""Gemlint: AST-based enforcement of the repo's cross-cutting contracts.

Generic linters see style; they cannot see that this codebase's guarantees
hinge on a handful of invariants that every past PR has had to defend by
hand: bit-identity of batched vs. solo kernels, deterministic tie-breaking
in retrieval, lock-guarded shared state and copy-on-write snapshot buffers
in :mod:`repro.serve`, and the core → index → serve layering. This package
encodes those invariants as machine-checked rules:

Analysis runs in **two stages**:

* the per-file stage — a visitor/rule-registry **engine**
  (:mod:`repro.analysis.engine`) parses each file once and dispatches AST
  nodes to every registered :class:`Rule` (:mod:`repro.analysis.rules`,
  the GEM-* families in the README's rule catalog);
* the project-graph stage — :mod:`repro.analysis.graph` builds the module
  import graph, symbol table and conservative call graph over the whole
  project, and :mod:`repro.analysis.flow` runs the cross-module,
  flow-sensitive :class:`ProjectRule` families on it: GEM-C03 lock-order
  inversion, GEM-C04 blocking-call-under-lock, GEM-R02
  deadline-propagation, GEM-R03 resource leaks. Graph findings carry a
  cross-file witness ``trace``.

Shared machinery spans both stages:

* inline suppression via ``# gemlint: disable=GEM-XXX(reason)`` pragmas —
  the reason is mandatory, a bare pragma suppresses nothing; pragmas for
  graph rules are honored by the project stage;
* a reviewed **baseline** (:mod:`repro.analysis.baseline`) for findings
  that predate a rule, each entry carrying a written justification;
* a CLI (``python -m repro.analysis``) with ``--format github`` for CI
  annotation and ``--format markdown --list-rules`` for the generated
  rule table in ``docs/cli.md``, wired into the lint job as a gate;
  ``--prune-stale`` rewrites the baseline dropping entries whose findings
  no longer exist.

The package is deliberately stdlib-only (``ast``, ``json``, ``argparse``)
and touches nothing at runtime: importing :mod:`repro` never imports it,
and it never imports numpy.
"""

from repro.analysis.baseline import Baseline, BaselineError, load_baseline, write_baseline
from repro.analysis.engine import (
    Finding,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    analyze_file,
    analyze_project,
    analyze_project_sources,
    analyze_source,
    iter_python_files,
    module_name_for,
    project_rule_registry,
    rule_registry,
)

__all__ = [
    "Baseline",
    "BaselineError",
    "Finding",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "analyze_file",
    "analyze_project",
    "analyze_project_sources",
    "analyze_source",
    "iter_python_files",
    "load_baseline",
    "module_name_for",
    "project_rule_registry",
    "rule_registry",
    "write_baseline",
]
