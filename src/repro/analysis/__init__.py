"""Gemlint: AST-based enforcement of the repo's cross-cutting contracts.

Generic linters see style; they cannot see that this codebase's guarantees
hinge on a handful of invariants that every past PR has had to defend by
hand: bit-identity of batched vs. solo kernels, deterministic tie-breaking
in retrieval, lock-guarded shared state and copy-on-write snapshot buffers
in :mod:`repro.serve`, and the core → index → serve layering. This package
encodes those invariants as machine-checked rules.

Analysis is **one pass** (:mod:`repro.analysis.engine`): each file is
read, parsed and tokenized once, and two kinds of rule run on it:

* per-file rules — the engine dispatches AST nodes to every registered
  :class:`Rule` (:mod:`repro.analysis.rules`, the GEM-* families in the
  README's rule catalog);
* project rules — :mod:`repro.analysis.graph` builds the module import
  graph, symbol table and conservative call graph from the same trees,
  and :mod:`repro.analysis.flow` runs the cross-module, flow-sensitive
  :class:`ProjectRule` families on it: GEM-C03 lock-order inversion,
  GEM-C04 blocking-call-under-lock, GEM-R02 deadline-propagation, GEM-R03
  resource leaks. Graph findings carry a cross-file witness ``trace``.

A finding is excused only by a same-line
``# gemlint: disable=GEM-XXX(reason)`` pragma: the reason is mandatory (a
bare pragma suppresses nothing), and a pragma that no longer matches a
finding fails the gate. The CLI (``python -m repro.analysis``) has
``--format github`` for CI annotation and ``--format markdown
--list-rules`` for the generated rule table in ``docs/cli.md``, and is
wired into the lint job as a gate.

The package is deliberately stdlib-only (``ast``, ``tokenize``,
``argparse``) and touches nothing at runtime: importing :mod:`repro` never
imports it, and it never imports numpy.
"""

from repro.analysis.engine import (
    Finding,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    analyze_project,
    analyze_sources,
    iter_python_files,
    module_name_for,
    project_rule_registry,
    rule_registry,
)

__all__ = [
    "Finding",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "analyze_project",
    "analyze_sources",
    "iter_python_files",
    "module_name_for",
    "project_rule_registry",
    "rule_registry",
]
