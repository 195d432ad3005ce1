"""Cross-module flow rules over the project graph (gemlint's project rules).

Four rule families consume :class:`~repro.analysis.graph.ProjectGraph`:

* **GEM-C03** — lock-order inversion: the static lock-acquisition graph
  has an edge ``A → B`` whenever some code path acquires ``B`` (directly
  or through any resolved call chain) while holding ``A``; a cycle means
  two threads can deadlock by taking the locks in opposite orders. Each
  cycle is reported once, with witness traces for *both* directions.
* **GEM-C04** — blocking call under a lock: ``.result()``, ``.join()``,
  ``fsync`` or a fault-injection hook reached while any lock is held —
  directly or transitively — serialises every contender of that lock
  behind I/O or another thread's progress (and a fault hook can inject
  an unbounded delay there).
* **GEM-R02** — deadline propagation: a ``repro.serve`` function that
  accepts a ``deadline``/``deadline_ms`` must forward a value derived
  from it to every callee that accepts one; dropping the budget (or
  minting a fresh one mid-request) is the bug PR 7 exists to prevent.
* **GEM-R03** — resource leak: a ``GemOpLog``/executor/file handle bound
  to a local on a path where some exit skips its ``close()``/
  ``shutdown()``; ``with`` blocks, try/finally and escaping handles
  (returned, stored, passed on) are recognised as owned elsewhere.

The shared :class:`_Concurrency` analysis (region walk + transitive
summaries) also backs :func:`build_lock_graph`, the lock-site map and
acquisition-order edges GEM-C03 reports cycles in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.engine import Finding, ProjectRule, register_project
from repro.analysis.graph import (
    FuncKey,
    FunctionInfo,
    LockKey,
    ProjectGraph,
    iter_lock_sites,
)

DEADLINE_PARAMS = frozenset({"deadline", "deadline_ms"})

#: Local-variable resource factories and the call that releases them.
_RESOURCE_FACTORIES = {
    "open": ("file handle", ("close",)),
    "GemOpLog": ("op log", ("close",)),
    "ThreadPoolExecutor": ("executor", ("shutdown",)),
    "ProcessPoolExecutor": ("executor", ("shutdown",)),
}


def _lock_name(lock: LockKey) -> str:
    module, cls, attr = lock
    return f"{module}.{cls}.{attr}"


def _site(path: str, node: ast.AST, text: str) -> str:
    return f"{path}:{getattr(node, 'lineno', 0)}: {text}"


def _blocking_desc(call: ast.Call) -> str | None:
    """A human label if this call is in the blocking set, else None."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "result":
            return ".result()"
        if func.attr == "fsync":
            return "fsync()"
        if func.attr == "join" and not call.args:
            # str.join / os.path.join always pass positional arguments;
            # thread/queue joins take at most a timeout keyword.
            return ".join()"
        if func.attr == "fault_point":
            return "fault_point() hook"
    elif isinstance(func, ast.Name):
        if func.id == "fsync":
            return "fsync()"
        if func.id == "fault_point":
            return "fault_point() hook"
    return None


def _stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expression nodes evaluated by this statement itself (not by the
    statements nested inside it); lambda/nested-def bodies excluded —
    they run later, under whatever locks *their* caller holds."""
    roots: list[ast.expr] = []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    for _, value in ast.iter_fields(stmt):
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.expr):
                roots.append(item)
            elif isinstance(item, ast.withitem):
                roots.append(item.context_expr)
    stack = roots
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr) and not isinstance(node, ast.Lambda):
                stack.append(child)


@dataclass
class _Facts:
    """Per-function facts from one region walk."""

    func: FunctionInfo
    #: (lock, node, locks held at the acquisition).
    acquires: list[tuple[LockKey, ast.AST, tuple[LockKey, ...]]] = field(default_factory=list)
    #: blocking sites reached while holding at least one lock.
    blocking_held: list[tuple[str, ast.AST, tuple[LockKey, ...]]] = field(default_factory=list)
    #: resolved calls made while holding at least one lock.
    calls_held: list[tuple[ast.Call, FunctionInfo, tuple[LockKey, ...]]] = field(
        default_factory=list
    )
    #: every blocking site in the function, held or not (for summaries).
    blocking_all: list[tuple[str, ast.AST]] = field(default_factory=list)


class _Concurrency:
    """Shared lock-region analysis over a project graph."""

    def __init__(self, project: ProjectGraph) -> None:
        self.project = project
        self._facts: dict[FuncKey, _Facts] = {}
        self._lock_memo: dict[FuncKey, dict[LockKey, tuple[str, ...]]] = {}
        self._block_memo: dict[FuncKey, dict[tuple[str, int, str], tuple[str, ...]]] = {}
        self._visiting: set[FuncKey] = set()

    # ------------------------------------------------------------ region walk

    def facts(self, func: FunctionInfo) -> _Facts:
        cached = self._facts.get(func.key)
        if cached is not None:
            return cached
        facts = _Facts(func)
        callees: dict[int, list[FunctionInfo]] = {}
        for call, callee in self.project.calls_in(func):
            callees.setdefault(id(call), []).append(callee)
        cls = (
            self.project.classes.get((func.module, func.class_name))
            if func.class_name is not None
            else None
        )

        def with_locks(stmt: ast.stmt) -> list[tuple[LockKey, ast.AST]]:
            if cls is None or not isinstance(stmt, (ast.With, ast.AsyncWith)):
                return []
            found: list[tuple[LockKey, ast.AST]] = []
            for item in stmt.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and expr.attr in cls.lock_attrs
                ):
                    found.append(((func.module, cls.name, expr.attr), expr))
            return found

        def visit_exprs(stmt: ast.stmt, held: tuple[LockKey, ...]) -> None:
            for expr in _stmt_exprs(stmt):
                if not isinstance(expr, ast.Call):
                    continue
                desc = _blocking_desc(expr)
                if desc is not None:
                    facts.blocking_all.append((desc, expr))
                    if held:
                        facts.blocking_held.append((desc, expr, held))
                if held:
                    for callee in callees.get(id(expr), ()):
                        facts.calls_held.append((expr, callee, held))

        def walk(body: Sequence[ast.stmt], held: tuple[LockKey, ...]) -> None:
            for stmt in body:
                locks = with_locks(stmt)
                visit_exprs(stmt, held)
                inner = held
                for lock, node in locks:
                    facts.acquires.append((lock, node, inner))
                    if lock not in inner:
                        inner = inner + (lock,)
                for sub in _stmt_bodies(stmt):
                    walk(sub, inner)

        walk(func.node.body, ())
        self._facts[func.key] = facts
        return facts

    # ------------------------------------------------------- transitive sums

    def lock_summary(self, func: FunctionInfo) -> dict[LockKey, tuple[str, ...]]:
        """Locks a call to ``func`` may acquire, with one witness chain each."""
        cached = self._lock_memo.get(func.key)
        if cached is not None:
            return cached
        if func.key in self._visiting:
            return {}
        self._visiting.add(func.key)
        path = self.project.modules[func.module].path
        result: dict[LockKey, tuple[str, ...]] = {}
        facts = self.facts(func)
        for lock, node, _held in facts.acquires:
            result.setdefault(
                lock, (_site(path, node, f"{func.qual} acquires {_lock_name(lock)}"),)
            )
        for call, callee in self.project.calls_in(func):
            if callee.key == func.key:
                continue
            hop = _site(path, call, f"{func.qual} calls {callee.qual}()")
            for lock, chain in self.lock_summary(callee).items():
                result.setdefault(lock, (hop,) + chain)
        self._visiting.discard(func.key)
        self._lock_memo[func.key] = result
        return result

    def blocking_summary(
        self, func: FunctionInfo
    ) -> dict[tuple[str, int, str], tuple[str, ...]]:
        """Blocking sites reachable by calling ``func``, with witness chains."""
        cached = self._block_memo.get(func.key)
        if cached is not None:
            return cached
        if func.key in self._visiting:
            return {}
        self._visiting.add(func.key)
        path = self.project.modules[func.module].path
        result: dict[tuple[str, int, str], tuple[str, ...]] = {}
        facts = self.facts(func)
        for desc, node in facts.blocking_all:
            key = (path, getattr(node, "lineno", 0), desc)
            result.setdefault(key, (_site(path, node, f"{func.qual} calls {desc}"),))
        for call, callee in self.project.calls_in(func):
            if callee.key == func.key:
                continue
            hop = _site(path, call, f"{func.qual} calls {callee.qual}()")
            for key, chain in self.blocking_summary(callee).items():
                result.setdefault(key, (hop,) + chain)
        self._visiting.discard(func.key)
        self._block_memo[func.key] = result
        return result

    # ---------------------------------------------------------- lock graph

    def lock_edges(self) -> dict[tuple[LockKey, LockKey], tuple[str, ...]]:
        """Static acquisition-order edges ``held -> acquired`` with witnesses."""
        edges: dict[tuple[LockKey, LockKey], tuple[str, ...]] = {}
        for func in self.project.sorted_functions():
            path = self.project.modules[func.module].path
            facts = self.facts(func)
            for lock, node, held in facts.acquires:
                for h in held:
                    if h != lock:
                        edges.setdefault(
                            (h, lock),
                            (
                                _site(
                                    path,
                                    node,
                                    f"{func.qual} acquires {_lock_name(lock)} "
                                    f"while holding {_lock_name(h)}",
                                ),
                            ),
                        )
            for call, callee, held in facts.calls_held:
                summary = self.lock_summary(callee)
                for lock in sorted(summary):
                    for h in held:
                        if h != lock:
                            hop = _site(
                                path,
                                call,
                                f"{func.qual} calls {callee.qual}() while "
                                f"holding {_lock_name(h)}",
                            )
                            edges.setdefault((h, lock), (hop,) + summary[lock])
        return edges


def build_lock_graph(
    project: ProjectGraph,
) -> tuple[
    dict[tuple[str, int], LockKey],
    dict[tuple[LockKey, LockKey], tuple[str, ...]],
]:
    """(creation-site -> lock, acquisition-order edges) for the project.

    The site map keys are ``(path, lineno)`` of the creating assignment,
    so a finding can point at the line that declares each lock.
    """
    sites = {(path, line): lock for lock, path, line in iter_lock_sites(project)}
    return sites, _Concurrency(project).lock_edges()


def _strongly_connected(
    nodes: Sequence[LockKey], edges: dict[tuple[LockKey, LockKey], tuple[str, ...]]
) -> list[list[LockKey]]:
    """Tarjan SCCs (iterative), components in deterministic order."""
    adjacency: dict[LockKey, list[LockKey]] = {n: [] for n in nodes}
    for a, b in sorted(edges):
        if a in adjacency and b in adjacency:
            adjacency[a].append(b)
    index: dict[LockKey, int] = {}
    low: dict[LockKey, int] = {}
    on_stack: set[LockKey] = set()
    stack: list[LockKey] = []
    sccs: list[list[LockKey]] = []
    counter = [0]

    def strongconnect(root: LockKey) -> None:
        work: list[tuple[LockKey, int]] = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for j in range(i, len(adjacency[node])):
                succ = adjacency[node][j]
                if succ not in index:
                    work.append((node, j + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                component: list[LockKey] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)
    return sccs


def _shortest_cycle_back(
    start: LockKey,
    end: LockKey,
    members: set[LockKey],
    edges: dict[tuple[LockKey, LockKey], tuple[str, ...]],
) -> list[tuple[LockKey, LockKey]]:
    """BFS path ``start -> ... -> end`` inside the component, as edges."""
    frontier: list[tuple[LockKey, list[tuple[LockKey, LockKey]]]] = [(start, [])]
    seen = {start}
    while frontier:
        next_frontier: list[tuple[LockKey, list[tuple[LockKey, LockKey]]]] = []
        for node, path in frontier:
            for a, b in sorted(edges):
                if a != node or b not in members:
                    continue
                hop = path + [(a, b)]
                if b == end:
                    return hop
                if b not in seen:
                    seen.add(b)
                    next_frontier.append((b, hop))
        frontier = next_frontier
    return []


@register_project
class LockOrderInversionRule(ProjectRule):
    """GEM-C03: the project-wide lock-acquisition graph must be acyclic.

    Two code paths that take the same pair of locks in opposite orders —
    possibly through any number of cross-module calls — can each hold
    one lock and wait forever for the other. The rule derives the static
    acquisition graph from every ``with self.<lock>:`` region and the
    resolved call graph, and reports each cycle once with witness traces
    for both directions.
    """

    id = "GEM-C03"
    name = "lock-order-inversion"
    invariant = (
        "no two code paths acquire the same pair of locks in opposite "
        "orders, directly or through any resolved call chain"
    )
    motivation = "PR 7/8's multi-lock serving layer (batcher, WAL, breaker)"

    def check(self, project: ProjectGraph) -> Iterator[Finding]:
        sites, edges = build_lock_graph(project)
        site_of: dict[LockKey, tuple[str, int]] = {
            lock: (path, line) for (path, line), lock in sites.items()
        }
        nodes = sorted({n for edge in edges for n in edge})
        for component in _strongly_connected(nodes, edges):
            if len(component) < 2:
                continue
            members = set(component)
            first = component[0]
            forward = next(
                (a, b) for a, b in sorted(edges) if a == first and b in members
            )
            back = _shortest_cycle_back(forward[1], first, members, edges)
            trace: list[str] = [f"order {_lock_name(forward[0])} -> {_lock_name(forward[1])}:"]
            trace.extend(edges[forward])
            for edge in back:
                trace.append(
                    f"order {_lock_name(edge[0])} -> {_lock_name(edge[1])}:"
                )
                trace.extend(edges[edge])
            path, line = site_of.get(first, (project.modules[first[0]].path, 1))
            yield Finding(
                self.id,
                path,
                line,
                1,
                "lock-order inversion: "
                + " and ".join(_lock_name(lock) for lock in component)
                + " are acquired in opposite orders on different code paths — "
                "two threads can deadlock holding one each; pick one global "
                "order (or release before crossing)",
                trace=tuple(trace),
            )


@register_project
class BlockingUnderLockRule(ProjectRule):
    """GEM-C04: never block on another thread or on I/O while holding a lock.

    ``Ticket.result``/``Future.result`` wait on another thread's
    progress, ``join`` waits on a thread's exit, ``fsync`` is unbounded
    disk I/O, and a fault-injection hook may be scheduled to inject an
    arbitrary delay — doing any of these inside a ``with self._lock:``
    region (directly or through a call chain) serialises every contender
    of that lock behind the wait. Move the slow work outside the
    critical section; the lock should guard state, not I/O.
    """

    id = "GEM-C04"
    name = "blocking-call-under-lock"
    invariant = (
        "no lock-holding region reaches .result()/.join()/fsync or a "
        "fault-injection hook, directly or transitively"
    )
    motivation = "PR 8's WAL: fsync under the oplog lock stalled every writer"

    def check(self, project: ProjectGraph) -> Iterator[Finding]:
        analysis = _Concurrency(project)
        for func in project.sorted_functions():
            path = project.modules[func.module].path
            facts = analysis.facts(func)
            for desc, node, held in facts.blocking_held:
                yield Finding(
                    self.id,
                    path,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0) + 1,
                    f"{desc} while holding {_lock_name(held[-1])} blocks every "
                    "contender of the lock — hoist the blocking call out of "
                    "the critical section",
                )
            reported: set[tuple[int, tuple[str, int, str]]] = set()
            for call, callee, held in facts.calls_held:
                if callee.key == func.key:
                    continue
                summary = analysis.blocking_summary(callee)
                for site_key in sorted(summary):
                    dedupe = (getattr(call, "lineno", 0), site_key)
                    if dedupe in reported:
                        continue
                    reported.add(dedupe)
                    yield Finding(
                        self.id,
                        path,
                        getattr(call, "lineno", 1),
                        getattr(call, "col_offset", 0) + 1,
                        f"calling {callee.qual}() while holding "
                        f"{_lock_name(held[-1])} reaches {site_key[2]} at "
                        f"{site_key[0]}:{site_key[1]} — the lock is held "
                        "across the blocking call",
                        trace=summary[site_key],
                    )


def _expr_tainted(expr: ast.expr, names: set[str], attrs: set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in names:
            return True
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in attrs
        ):
            return True
    return False


def _assignment_targets(stmt: ast.stmt) -> tuple[list[ast.expr], ast.expr | None]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets), stmt.value
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
        return [stmt.target], stmt.value
    return [], None


@register_project
class DeadlinePropagationRule(ProjectRule):
    """GEM-R02: a serve-layer function forwards its deadline to every hop.

    A request's budget is minted once at the boundary and must flow
    through every stage (embed → submit → ticket); any hop that accepts
    a ``deadline``/``deadline_ms`` but calls a deadline-accepting callee
    without passing a value *derived from its own* re-opens the unbounded
    -wait hole — the callee waits on a fresh (or absent) allowance while
    the caller's budget silently expires.
    """

    id = "GEM-R02"
    name = "deadline-propagation"
    invariant = (
        "a repro.serve function accepting a deadline forwards a value "
        "derived from it to every callee that accepts one"
    )
    motivation = "PR 7's request deadlines (shared budget across hops)"

    def check(self, project: ProjectGraph) -> Iterator[Finding]:
        attr_taint = self._class_attr_taint(project)
        for func in project.sorted_functions():
            if not func.module.startswith("repro.serve"):
                continue
            own = [p for p in func.all_params if p in DEADLINE_PARAMS]
            if not own:
                continue
            names, attrs = self._taint(func, attr_taint)
            path = project.modules[func.module].path
            for call, callee in project.calls_in(func):
                if callee.key == func.key:
                    continue
                slots = [p for p in callee.all_params if p in DEADLINE_PARAMS]
                if not slots:
                    continue
                verdict = self._call_forwards(call, callee, names, attrs)
                if verdict is None:  # *args/**kwargs: opaque, assume forwarded
                    continue
                if verdict:
                    continue
                callee_path = project.modules[callee.module].path
                yield Finding(
                    self.id,
                    path,
                    getattr(call, "lineno", 1),
                    getattr(call, "col_offset", 0) + 1,
                    f"{func.qual} accepts {own[0]!r} but calls "
                    f"{callee.qual}() without forwarding it "
                    f"({callee.qual} accepts {slots[0]!r}) — the request's "
                    "budget is dropped at this hop",
                    trace=(
                        f"{callee_path}:{callee.node.lineno}: "
                        f"{callee.qual} declares {slots[0]!r}",
                    ),
                )

    @staticmethod
    def _class_attr_taint(project: ProjectGraph) -> dict[tuple[str, str], set[str]]:
        """Self attributes assigned, in any method, from a deadline param."""
        taint: dict[tuple[str, str], set[str]] = {}
        for cls_key in sorted(project.classes):
            cls = project.classes[cls_key]
            attrs: set[str] = set()
            for _ in range(4):  # fixpoint over attr-from-attr chains
                grew = False
                for method in cls.methods.values():
                    dparams = set(method.all_params) & DEADLINE_PARAMS
                    if not dparams and not attrs:
                        continue
                    for stmt in ast.walk(method.node):
                        targets, value = _assignment_targets(stmt)
                        if value is None:
                            continue
                        if not _expr_tainted(value, dparams, attrs):
                            continue
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                                and target.attr not in attrs
                            ):
                                attrs.add(target.attr)
                                grew = True
                if not grew:
                    break
            taint[cls_key] = attrs
        return taint

    @staticmethod
    def _taint(
        func: FunctionInfo, attr_taint: dict[tuple[str, str], set[str]]
    ) -> tuple[set[str], set[str]]:
        names = {p for p in func.all_params if p in DEADLINE_PARAMS}
        attrs = set()
        if func.class_name is not None:
            attrs = set(attr_taint.get((func.module, func.class_name), ()))
        for _ in range(3):  # fixpoint over local assignment chains
            grew = False
            for stmt in ast.walk(func.node):
                targets, value = _assignment_targets(stmt)
                if value is None or not _expr_tainted(value, names, attrs):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        grew = True
            if not grew:
                break
        return names, attrs

    @staticmethod
    def _call_forwards(
        call: ast.Call,
        callee: FunctionInfo,
        names: set[str],
        attrs: set[str],
    ) -> bool | None:
        """True if a tainted value lands in a deadline slot; None if opaque."""
        if any(kw.arg is None for kw in call.keywords):
            return None
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                return None
        for i, arg in enumerate(call.args):
            if i < len(callee.params) and callee.params[i] in DEADLINE_PARAMS:
                if _expr_tainted(arg, names, attrs):
                    return True
        for kw in call.keywords:
            if kw.arg in DEADLINE_PARAMS and _expr_tainted(kw.value, names, attrs):
                return True
        return False


@register_project
class ResourceLeakRule(ProjectRule):
    """GEM-R03: locally acquired handles are released on every exit path.

    A ``GemOpLog``, executor or file handle bound to a local variable
    must reach its ``close()``/``shutdown()`` on *every* path out of the
    function — including the exception edge of any statement between the
    acquisition and the release. ``with`` blocks and try/finally are the
    sanctioned idioms; a handle that escapes (returned, yielded, stored
    on an object, passed to another call) is owned by its receiver and
    not flagged.
    """

    id = "GEM-R03"
    name = "resource-leak"
    invariant = (
        "every locally acquired closeable reaches close()/shutdown() on "
        "all exits (with/try-finally recognised)"
    )
    motivation = "PR 8's WAL + executor handles surviving fault injection"

    def check(self, project: ProjectGraph) -> Iterator[Finding]:
        for func in project.sorted_functions():
            path = project.modules[func.module].path
            for message, line, col, trace in self._check_function(func, path):
                yield Finding(self.id, path, line, col, message, trace=trace)

    def _check_function(
        self, func: FunctionInfo, path: str
    ) -> Iterator[tuple[str, int, int, tuple[str, ...]]]:
        node = func.node
        acquisitions: list[tuple[str, str, tuple[str, ...], ast.stmt]] = []
        for stmt in ast.walk(node):
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            kind = self._resource_kind(stmt.value)
            if kind is not None:
                acquisitions.append((stmt.targets[0].id, kind[0], kind[1], stmt))
        for var, what, closers, acq in acquisitions:
            if self._escapes(node, var, acq, closers):
                continue
            closes = self._close_sites(node, var, closers)
            protected = self._protected(node, var, acq, closes)
            if protected:
                continue
            if not closes:
                yield (
                    f"{what} {var!r} from {self._factory_label(acq.value)} is "
                    "never closed — every path out of "
                    f"{func.qual} leaks it; use `with` or try/finally",
                    acq.lineno,
                    acq.col_offset + 1,
                    (),
                )
                continue
            risky = self._risky_between(node, acq, min(c.lineno for c in closes))
            if risky is not None:
                yield (
                    f"{what} {var!r} leaks when "
                    f"line {risky.lineno} raises or returns before the "
                    f"close on line {min(c.lineno for c in closes)} — move "
                    "the close into a finally block or use `with`",
                    acq.lineno,
                    acq.col_offset + 1,
                    (
                        f"{path}:{risky.lineno}: exit path that skips the close",
                        f"{path}:{min(c.lineno for c in closes)}: the close it skips",
                    ),
                )

    @staticmethod
    def _resource_kind(call: ast.Call) -> tuple[str, tuple[str, ...]] | None:
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _RESOURCE_FACTORIES:
            return _RESOURCE_FACTORIES[name]
        return None

    @staticmethod
    def _factory_label(call: ast.expr) -> str:
        func = call.func  # type: ignore[union-attr]
        if isinstance(func, ast.Name):
            return f"{func.id}()"
        return f"{getattr(func, 'attr', '?')}()"

    @staticmethod
    def _references_handle(expr: ast.expr, var: str) -> bool:
        """True when ``expr`` uses ``var`` other than as a method-call
        receiver — i.e. the handle itself flows somewhere (``return fh``,
        ``register(fh)``, ``self.fh = fh``), as opposed to ``fh.read()``
        whose *result* flows but whose receiver stays local."""

        class Visitor(ast.NodeVisitor):
            found = False

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == var
                ):
                    for arg in node.args:
                        self.visit(arg)
                    for kw in node.keywords:
                        self.visit(kw.value)
                    return
                self.generic_visit(node)

            def visit_Name(self, node: ast.Name) -> None:
                if node.id == var:
                    self.found = True

        visitor = Visitor()
        visitor.visit(expr)
        return visitor.found

    @classmethod
    def _escapes(
        cls, node: ast.AST, var: str, acq: ast.stmt, closers: tuple[str, ...]
    ) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return):
                if sub.value is not None and cls._references_handle(sub.value, var):
                    return True
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                if sub.value is not None and cls._references_handle(sub.value, var):
                    return True
            elif isinstance(sub, ast.Assign) and sub is not acq:
                if cls._references_handle(sub.value, var):
                    return True  # aliased or stored somewhere else
            elif isinstance(sub, ast.Expr):
                if cls._references_handle(sub.value, var):
                    return True  # passed as an argument: ownership moved
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == var:
                        return True  # `with fh:` closes it
        return False

    @staticmethod
    def _close_sites(node: ast.AST, var: str, closers: tuple[str, ...]) -> list[ast.Call]:
        sites: list[ast.Call] = []
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in closers
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id == var
            ):
                sites.append(sub)
        return sites

    @staticmethod
    def _protected(
        node: ast.AST, var: str, acq: ast.stmt, closes: list[ast.Call]
    ) -> bool:
        """True when some close for ``var`` sits in a finally block —
        the try/finally idiom (acquire before or inside the try)."""
        close_lines = {c.lineno for c in closes}
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Try) or not sub.finalbody:
                continue
            for stmt in sub.finalbody:
                if any(
                    getattr(n, "lineno", -1) in close_lines for n in ast.walk(stmt)
                ):
                    return True
        return False

    @staticmethod
    def _risky_between(node: ast.AST, acq: ast.stmt, close_line: int) -> ast.stmt | None:
        """First statement between acquisition and close that can exit."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.stmt) or sub is acq:
                continue
            line = getattr(sub, "lineno", -1)
            if not (acq.lineno < line < close_line):
                continue
            if isinstance(sub, (ast.Return, ast.Raise)):
                return sub
            if any(isinstance(n, ast.Call) for n in ast.walk(sub)):
                # The close call itself is not a hazard to itself.
                if isinstance(sub, ast.Expr) and getattr(sub.value, "lineno", -1) == close_line:
                    continue
                return sub
        return None


__all__ = [
    "DEADLINE_PARAMS",
    "BlockingUnderLockRule",
    "DeadlinePropagationRule",
    "LockOrderInversionRule",
    "ResourceLeakRule",
    "build_lock_graph",
]
