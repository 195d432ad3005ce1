"""The gemlint engine: per-file AST walks, then a whole-project graph pass.

Analysis runs in two stages:

* **per-file** — a :class:`Rule` declares the node types it wants
  (``node_types``) and yields :class:`Finding` objects from
  :meth:`Rule.visit_node`; the engine parses each file once and
  dispatches every node to every interested rule, so adding a rule never
  adds a parse or a walk. This stage is embarrassingly parallel
  (``jobs`` in :func:`analyze_project`).
* **project graph** — a :class:`ProjectRule` receives one
  :class:`~repro.analysis.graph.ProjectGraph` built over *all* analyzed
  files (import graph, symbol tables, call graph) and checks
  cross-module, flow-sensitive contracts: lock-order inversion, blocking
  calls under locks, deadline propagation, resource leaks. Graph
  findings may carry a cross-file witness ``trace``. This stage always
  runs whole-project (a changed-files subset cannot see the other half
  of a cross-module hazard) and is serial.

Suppression is explicit and justified. A finding on line *L* is suppressed
iff line *L* carries ``# gemlint: disable=<RULE>(<reason>)`` for its rule
id **with a non-empty reason** — a bare ``disable=GEM-D01`` suppresses
nothing and is itself reported (:data:`PRAGMA_RULE_ID`), and a pragma that
suppresses no finding is reported as stale (:data:`UNUSED_PRAGMA_RULE_ID`)
so suppressions cannot outlive the code they excused. Pragmas naming a
project rule are applied by the project stage (against the finding's
anchor line), never counted stale by the per-file stage.
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

#: Engine-level meta rules (reported like rule findings, baselinable).
PRAGMA_RULE_ID = "GEM-P00"  # malformed pragma / missing reason
UNUSED_PRAGMA_RULE_ID = "GEM-P01"  # pragma that suppressed nothing

_PRAGMA_RE = re.compile(r"#\s*gemlint:\s*disable=(?P<entries>.+)$")
_PRAGMA_ENTRY_RE = re.compile(r"(?P<rule>[A-Z]+-[A-Z0-9]+)\s*(?:\((?P<reason>[^)]*)\))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``code`` is the stripped source line, the line-number-independent half
    of the baseline matching key — baselined findings survive unrelated
    edits above them.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    code: str = ""
    #: Optional cross-file witness trace (graph rules): each entry is one
    #: ``path:line: note`` hop explaining *how* the violation is reached.
    #: Not part of the baseline key — a witness path may shift with
    #: unrelated refactors while the violation itself is unchanged.
    trace: tuple[str, ...] = field(default=())

    @property
    def key(self) -> tuple[str, str, str]:
        """Baseline matching key: (rule, path, stripped source line)."""
        return (self.rule, self.path, self.code)

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
    """Everything a rule may need about the file under analysis."""

    path: str
    module: str
    is_package: bool
    source: str
    tree: ast.Module
    lines: list[str]

    def code_at(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: "Rule | str", node: ast.AST, message: str) -> Finding:
        rule_id = rule if isinstance(rule, str) else rule.id
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule_id, self.path, line, col, message, self.code_at(line))


class Rule:
    """Base class for gemlint rules.

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

    def begin_module(self, ctx: FileContext) -> Iterator[Finding]:
        """Called once per file before the walk; may yield findings."""
        return iter(())

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
    """Base class for project-graph (second stage) rules.

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
    reason: str
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


def _parse_pragmas(ctx: FileContext) -> tuple[list[_Pragma], list[Finding]]:
    """Extract ``# gemlint: disable=...`` pragmas and their defects."""
    pragmas: list[_Pragma] = []
    defects: list[Finding] = []
    for lineno, text in _comment_tokens(ctx.source):
        match = _PRAGMA_RE.search(text)
        if not match:
            if "gemlint:" in text and "disable" in text:
                defects.append(
                    Finding(
                        PRAGMA_RULE_ID,
                        ctx.path,
                        lineno,
                        1,
                        "unparseable gemlint pragma; expected "
                        "'# gemlint: disable=GEM-XXX(reason)'",
                        ctx.code_at(lineno),
                    )
                )
            continue
        entries = match.group("entries")
        parsed = list(_PRAGMA_ENTRY_RE.finditer(entries))
        if not parsed:
            defects.append(
                Finding(
                    PRAGMA_RULE_ID,
                    ctx.path,
                    lineno,
                    1,
                    "gemlint pragma names no rule; expected "
                    "'# gemlint: disable=GEM-XXX(reason)'",
                    ctx.code_at(lineno),
                )
            )
            continue
        for entry in parsed:
            reason = (entry.group("reason") or "").strip()
            if not reason:
                defects.append(
                    Finding(
                        PRAGMA_RULE_ID,
                        ctx.path,
                        lineno,
                        1,
                        f"suppression of {entry.group('rule')} has no written "
                        "justification — a bare pragma suppresses nothing; "
                        "write '# gemlint: disable="
                        f"{entry.group('rule')}(why this is safe)'",
                        ctx.code_at(lineno),
                    )
                )
                continue
            pragmas.append(_Pragma(lineno, entry.group("rule"), reason))
    return pragmas, defects


def _apply_pragmas(
    findings: list[Finding],
    pragmas: list[_Pragma],
    ctx: FileContext,
    *,
    defer: Collection[str] = (),
) -> list[Finding]:
    """Drop findings excused by a justified same-line pragma.

    Pragmas naming a rule in ``defer`` (the project-rule ids, during the
    per-file stage) are left alone entirely: they are applied — and
    staleness-checked — by the stage that owns those rules.
    """
    if defer:
        pragmas = [p for p in pragmas if p.rule not in defer]
    by_line: dict[tuple[int, str], _Pragma] = {(p.line, p.rule): p for p in pragmas}
    kept: list[Finding] = []
    for finding in findings:
        pragma = by_line.get((finding.line, finding.rule))
        if pragma is not None:
            pragma.used = True
        else:
            kept.append(finding)
    for pragma in pragmas:
        if not pragma.used:
            kept.append(
                Finding(
                    UNUSED_PRAGMA_RULE_ID,
                    ctx.path,
                    pragma.line,
                    1,
                    f"pragma suppresses {pragma.rule} but nothing on this "
                    "line triggers it — remove the stale suppression",
                    ctx.code_at(pragma.line),
                )
            )
    return kept


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


def analyze_source(
    source: str,
    path: str | Path,
    *,
    module: str | None = None,
    is_package: bool = False,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Analyze ``source`` as ``path``; the core entry point.

    ``module`` overrides the dotted module name derived from the path
    (tests use this to place fixtures into a layer). Syntax errors yield a
    single GEM-E00 finding rather than raising: the analyzer must be able
    to report on a tree the interpreter would reject.
    """
    path_obj = Path(path)
    if module is None:
        module, is_package = module_name_for(path_obj)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                "GEM-E00",
                str(path),
                exc.lineno or 1,
                (exc.offset or 0) + 1,
                f"file does not parse: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=str(path),
        module=module,
        is_package=is_package,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )
    active = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for rule in active:
        findings.extend(rule.begin_module(ctx))
    dispatcher = _Dispatcher(active, ctx)
    dispatcher.visit(tree)
    findings.extend(dispatcher.findings)
    pragmas, pragma_defects = _parse_pragmas(ctx)
    findings = _apply_pragmas(findings, pragmas, ctx, defer=project_rule_registry())
    findings.extend(pragma_defects)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def analyze_file(
    path: Path,
    *,
    root: Path | None = None,
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Analyze one file; reported paths are made relative to ``root``."""
    display = path
    if root is not None:
        try:
            display = path.relative_to(root)
        except ValueError:
            display = path
    source = path.read_text(encoding="utf-8")
    return analyze_source(
        source,
        display.as_posix(),
        module=module,
        rules=rules,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths``, skipping caches and hidden dirs."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for sub in sorted(path.rglob("*.py")):
            if any(part.startswith(".") or part == "__pycache__" for part in sub.parts):
                continue
            yield sub


# --------------------------------------------------------------------------
# Two-stage analysis: per-file dispatch, then the project graph.


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _project_units(
    paths: Sequence[Path], root: Path | None
) -> list[tuple[str, str, str, bool]]:
    """(source, display path, module, is_package) for every project file.

    Files that do not read or parse are skipped here — the per-file stage
    reports unreadable/unparseable files (GEM-E00); the graph stage just
    cannot include them.
    """
    units: list[tuple[str, str, str, bool]] = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
            ast.parse(source)
        except (OSError, SyntaxError):
            continue
        module, is_package = module_name_for(file)
        units.append((source, _display_path(file, root), module, is_package))
    return units


def _run_project_stage(
    units: Sequence[tuple[str, str, str, bool]],
    project_rules: Sequence[ProjectRule] | None = None,
    *,
    report_pragma_defects: bool = False,
) -> list[Finding]:
    """Build the project graph, run project rules, apply graph pragmas."""
    from repro.analysis.graph import build_project

    active = list(project_rules) if project_rules is not None else all_project_rules()
    project_ids = {rule.id for rule in active} | set(project_rule_registry())
    project = build_project(units)
    findings: list[Finding] = []
    for rule in active:
        findings.extend(rule.check(project))
    for source, display, module, is_package in units:
        ctx = FileContext(
            path=display,
            module=module,
            is_package=is_package,
            source=source,
            # Pragma parsing is token-level; the tree is never consulted.
            tree=ast.Module(body=[], type_ignores=[]),
            lines=source.splitlines(),
        )
        pragmas, pragma_defects = _parse_pragmas(ctx)
        graph_pragmas = [p for p in pragmas if p.rule in project_ids]
        here = [f for f in findings if f.path == display]
        elsewhere = [f for f in findings if f.path != display]
        findings = elsewhere + _apply_pragmas(here, graph_pragmas, ctx)
        if report_pragma_defects:
            findings.extend(pragma_defects)
    return findings


def analyze_project(
    paths: Sequence[Path],
    *,
    root: Path | None = None,
    rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
) -> list[Finding]:
    """Run both stages over ``paths``; the full-analysis entry point.

    The per-file stage analyzes each file on its own; the project-graph
    stage then builds one graph over all of ``paths``. Findings of both
    come back sorted by path, line, column and rule.
    """
    findings: list[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(analyze_file(file, root=root, rules=rules))
    units = _project_units(paths, root)
    findings.extend(_run_project_stage(units, project_rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_project_sources(
    files: Sequence[tuple[str, str, str]],
    *,
    rules: Sequence[ProjectRule] | None = None,
) -> list[Finding]:
    """Run the project-graph stage over in-memory sources (test harness).

    ``files`` is a sequence of ``(source, display_path, module)`` triples
    forming one synthetic project. Unlike :func:`analyze_project` this
    also reports pragma defects — there is no per-file stage here to
    report them.
    """
    units = [(source, path, module, False) for source, path, module in files]
    findings = _run_project_stage(units, rules, report_pragma_defects=True)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
