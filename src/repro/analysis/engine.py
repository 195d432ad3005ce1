"""The gemlint engine: one pass that reads, parses and tokenizes each file once.

For every file, the engine builds one :class:`FileContext` (source and
tree) and runs both kinds of rule on it:

* **per-file rules** — a :class:`Rule` declares the node types it wants
  (``node_types``) and yields :class:`Finding` objects from
  :meth:`Rule.visit_node`; one walk dispatches every node to every
  interested rule, so adding a rule never adds a parse or a walk.
* **project rules** — a :class:`ProjectRule` receives one
  :class:`~repro.analysis.graph.ProjectGraph` built from the same trees
  (import graph, symbol tables, call graph) and checks cross-module,
  flow-sensitive contracts: lock-order inversion, blocking calls under
  locks, deadline propagation, resource leaks. Graph findings may carry a
  cross-file witness ``trace``. The graph always spans every analyzed
  file: a changed-files subset cannot see the other half of a
  cross-module hazard.

Same-line pragmas are the only way to excuse a finding. A finding on line
*L* is suppressed iff line *L* carries ``# gemlint: disable=<RULE>(<reason>)``
for its rule id **with a non-empty reason** — a bare ``disable=GEM-D01``
suppresses nothing and is itself reported (:data:`PRAGMA_RULE_ID`), as is
a pragma naming no registered rule, so a typo cannot hide. A pragma whose
rule ran but suppressed nothing is reported as stale
(:data:`UNUSED_PRAGMA_RULE_ID`), so suppressions cannot outlive the code
they excused. Each file's pragmas are parsed once and applied once, to the
findings of both kinds of rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports engine)
    from repro.analysis.graph import ProjectGraph

#: Engine-level meta rules (reported like rule findings).
PRAGMA_RULE_ID = "GEM-P00"  # malformed pragma / missing reason / unknown rule
UNUSED_PRAGMA_RULE_ID = "GEM-P01"  # pragma that suppressed nothing

_PRAGMA_RE = re.compile(r"#\s*gemlint:\s*disable=(?P<entries>.+)$")
_PRAGMA_ENTRY_RE = re.compile(r"(?P<rule>[A-Z]+-[A-Z0-9]+)\s*(?:\((?P<reason>[^)]*)\))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Optional cross-file witness trace (graph rules): each entry is one
    #: ``path:line: note`` hop explaining *how* the violation is reached.
    trace: tuple[str, ...] = field(default=())

    def render(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.trace:
            head += "".join(f"\n    trace: {hop}" for hop in self.trace)
        return head

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotation line."""
        text = self.message
        if self.trace:
            text += "".join(f"\ntrace: {hop}" for hop in self.trace)
        message = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title=gemlint {self.rule}::{message}"
        )


@dataclass
class FileContext:
    """One analyzed file, parsed once: everything a rule may need."""

    path: str
    module: str
    source: str
    tree: ast.Module

    @classmethod
    def parse(cls, source: str, path: str, module: str) -> "FileContext":
        """Parse ``source`` as ``path`` in ``module``; raises :class:`SyntaxError`."""
        return cls(path, module, source, ast.parse(source))

    @property
    def is_package(self) -> bool:
        return Path(self.path).name == "__init__.py"

    def finding(self, rule: "Rule | str", node: ast.AST, message: str) -> Finding:
        rule_id = rule if isinstance(rule, str) else rule.id
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule_id, self.path, line, col, message)


class Rule:
    """Base class for per-file gemlint rules.

    Subclasses set the class attributes and implement :meth:`visit_node`;
    registration via :func:`register` makes the rule active for every
    analysis run. ``parents`` in :meth:`visit_node` is the enclosing-node
    stack, outermost first (the module is ``parents[0]``).
    """

    id: str = ""
    name: str = ""
    #: One-line statement of the invariant the rule protects.
    invariant: str = ""
    #: Which PR's hand-fixed regression motivated the rule (rule catalog).
    motivation: str = ""
    #: AST node classes the engine should dispatch to this rule.
    node_types: tuple[type[ast.AST], ...] = ()

    def visit_node(
        self, node: ast.AST, ctx: FileContext, parents: Sequence[ast.AST]
    ) -> Iterator[Finding]:
        """Called for every node whose type is in ``node_types``."""
        return iter(())


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def rule_registry() -> dict[str, Rule]:
    """The registered rules, keyed by id (rule modules imported lazily)."""
    # Importing the rules package triggers its @register decorators.
    from repro.analysis import rules  # noqa: F401  (import-for-effect)

    return dict(_REGISTRY)


def all_rules() -> list[Rule]:
    """Registered rules in id order."""
    return [rule for _, rule in sorted(rule_registry().items())]


class ProjectRule:
    """Base class for project-graph rules.

    Subclasses set the same descriptive class attributes as :class:`Rule`
    and implement :meth:`check`, which receives the whole-project
    :class:`~repro.analysis.graph.ProjectGraph` once per run and yields
    findings (typically carrying a cross-file witness ``trace``).
    Project rules always see the whole project: the hazards they exist
    for — a lock-order inversion, a dropped deadline — live *between*
    files, so there is no meaningful per-file or changed-files subset.
    """

    id: str = ""
    name: str = ""
    invariant: str = ""
    motivation: str = ""

    def check(self, project: "ProjectGraph") -> Iterator[Finding]:
        """Called once per run with the built project graph."""
        return iter(())


_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding one instance of ``cls`` to the project registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"project rule {cls.__name__} has no id")
    if rule.id in _PROJECT_REGISTRY or rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _PROJECT_REGISTRY[rule.id] = rule
    return cls


def project_rule_registry() -> dict[str, ProjectRule]:
    """The registered project rules, keyed by id (imported lazily)."""
    # Importing the flow module triggers its @register_project decorators.
    from repro.analysis import flow  # noqa: F401  (import-for-effect)

    return dict(_PROJECT_REGISTRY)


def all_project_rules() -> list[ProjectRule]:
    """Registered project rules in id order."""
    return [rule for _, rule in sorted(project_rule_registry().items())]


class _Dispatcher(ast.NodeVisitor):
    """Single-pass walker dispatching nodes to interested rules."""

    def __init__(self, rules: Sequence[Rule], ctx: FileContext) -> None:
        self._ctx = ctx
        self._stack: list[ast.AST] = []
        self.findings: list[Finding] = []
        self._interested: dict[type, list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._interested.setdefault(node_type, []).append(rule)

    def generic_visit(self, node: ast.AST) -> None:
        for rule in self._interested.get(type(node), ()):
            self.findings.extend(rule.visit_node(node, self._ctx, self._stack))
        self._stack.append(node)
        super().generic_visit(node)
        self._stack.pop()


@dataclass
class _Pragma:
    line: int
    rule: str
    used: bool = False


def _comment_tokens(source: str) -> Iterator[tuple[int, str]]:
    """(line, text) of every comment token — pragma text inside string
    literals and docstrings must not count as a pragma."""
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return


def _parse_pragmas(
    ctx: FileContext, known: Collection[str]
) -> tuple[list[_Pragma], list[Finding]]:
    """Extract ``# gemlint: disable=...`` pragmas and their defects."""
    pragmas: list[_Pragma] = []
    defects: list[Finding] = []

    def defect(line: int, message: str) -> None:
        defects.append(Finding(PRAGMA_RULE_ID, ctx.path, line, 1, message))

    for lineno, text in _comment_tokens(ctx.source):
        match = _PRAGMA_RE.search(text)
        if not match:
            if "gemlint:" in text and "disable" in text:
                defect(
                    lineno,
                    "unparseable gemlint pragma; expected '# gemlint: disable=GEM-XXX(reason)'",
                )
            continue
        parsed = list(_PRAGMA_ENTRY_RE.finditer(match.group("entries")))
        if not parsed:
            defect(
                lineno,
                "gemlint pragma names no rule; expected '# gemlint: disable=GEM-XXX(reason)'",
            )
            continue
        for entry in parsed:
            rule = entry.group("rule")
            if not (entry.group("reason") or "").strip():
                defect(
                    lineno,
                    f"suppression of {rule} has no written justification — a bare "
                    f"pragma suppresses nothing; write '# gemlint: disable={rule}"
                    "(why this is safe)'",
                )
            elif rule not in known:
                defect(lineno, f"pragma names {rule}, which is no registered rule")
            else:
                pragmas.append(_Pragma(lineno, rule))
    return pragmas, defects


def _apply_pragmas(
    ctx: FileContext, findings: list[Finding], ran: Collection[str], known: Collection[str]
) -> list[Finding]:
    """``findings`` of ``ctx``'s file, less those its pragmas excuse, plus
    the pragmas' defects and the stale pragmas of every rule that ran."""
    pragmas, defects = _parse_pragmas(ctx, known)
    by_line = {(p.line, p.rule): p for p in pragmas}
    kept: list[Finding] = []
    for finding in findings:
        pragma = by_line.get((finding.line, finding.rule))
        if pragma is not None:
            pragma.used = True
        else:
            kept.append(finding)
    for pragma in pragmas:
        if not pragma.used and pragma.rule in ran:
            kept.append(
                Finding(
                    UNUSED_PRAGMA_RULE_ID,
                    ctx.path,
                    pragma.line,
                    1,
                    f"pragma suppresses {pragma.rule} but nothing on this "
                    "line triggers it — remove the stale suppression",
                )
            )
    return kept + defects


def module_name_for(path: Path) -> tuple[str, bool]:
    """Dotted module name for ``path`` and whether it is a package.

    Resolved from the path's ``repro`` segment (preferring one directly
    under ``src``), so files analysed in place — ``src/repro/core/gem.py``
    — map to the importable name (``repro.core.gem``). Files outside any
    ``repro`` tree (fixtures, scratch) get an empty module name; rules
    with module-scoped logic treat those as unconstrained unless the test
    overrides the module explicitly.
    """
    parts = list(path.parts)
    anchor = None
    for i, part in enumerate(parts):
        if part == "repro" and i < len(parts) - 1:
            if anchor is None or (i > 0 and parts[i - 1] == "src"):
                anchor = i
    if anchor is None:
        return "", False
    dotted = [p for p in parts[anchor:]]
    leaf = dotted[-1]
    is_package = leaf == "__init__.py"
    if is_package:
        dotted = dotted[:-1]
    else:
        dotted[-1] = leaf[:-3] if leaf.endswith(".py") else leaf
    return ".".join(dotted), is_package


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths``, skipping caches and hidden dirs.

    Only the parts below each given directory are checked, so a checkout
    that itself lives under a hidden directory is still analyzed.
    """
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            parts = sub.relative_to(path).parts
            if any(part.startswith(".") or part == "__pycache__" for part in parts):
                continue
            yield sub


def analyze_sources(
    units: Iterable[tuple[str, str, str]],
    *,
    rules: Sequence[Rule | ProjectRule] | None = None,
) -> list[Finding]:
    """Analyze ``(source, path, module)`` units as one project.

    ``module`` is the unit's dotted module name, as :func:`module_name_for`
    derives it (``""`` outside the package; tests set it to place a
    fixture in a layer). ``rules`` selects any mix of per-file and
    project rules (default: every registered rule). A file that does not
    parse yields a single GEM-E00 finding rather than raising — the
    analyzer must be able to report on a tree the interpreter would
    reject — and stays out of the project graph. Findings come back
    sorted by path, line, column and rule.
    """
    from repro.analysis.graph import build_project

    active = list(rules) if rules is not None else [*all_rules(), *all_project_rules()]
    file_rules = [rule for rule in active if isinstance(rule, Rule)]
    project_rules = [rule for rule in active if isinstance(rule, ProjectRule)]
    files: list[FileContext] = []
    findings: list[Finding] = []
    for source, path, module in units:
        try:
            ctx = FileContext.parse(source, path, module)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    "GEM-E00",
                    path,
                    exc.lineno or 1,
                    (exc.offset or 0) + 1,
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        files.append(ctx)
        dispatcher = _Dispatcher(file_rules, ctx)
        dispatcher.visit(ctx.tree)
        findings.extend(dispatcher.findings)
    if project_rules:
        project = build_project(files)
        for project_rule in project_rules:
            findings.extend(project_rule.check(project))

    by_path: dict[str, list[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    ran = {rule.id for rule in active}
    known = rule_registry().keys() | project_rule_registry().keys()
    for ctx in files:
        by_path[ctx.path] = _apply_pragmas(ctx, by_path.get(ctx.path, []), ran, known)
    out = [finding for group in by_path.values() for finding in group]
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def analyze_project(
    paths: Sequence[Path],
    *,
    root: Path | None = None,
    rules: Sequence[Rule | ProjectRule] | None = None,
) -> list[Finding]:
    """Read every ``.py`` file under ``paths`` and analyze them as one project.

    Reported paths are made relative to ``root`` when they lie under it;
    see :func:`analyze_sources` for ``rules`` and the result.
    """
    units = []
    for file in iter_python_files(paths):
        display = file
        if root is not None and file.is_relative_to(root):
            display = file.relative_to(root)
        units.append(
            (file.read_text(encoding="utf-8"), display.as_posix(), module_name_for(file)[0])
        )
    return analyze_sources(units, rules=rules)
