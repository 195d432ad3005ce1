"""Whole-project symbol and call graph for gemlint's project rules.

A per-file rule sees one AST at a time; the contracts PR 7/8 added to
the serving layer — lock ordering between classes, deadlines forwarded
hop to hop, handles closed on every path — live *between* files. This
module builds the shared structure those rules consume:

* a **module table** (:class:`ModuleInfo`): each file's parsed
  :class:`~repro.analysis.engine.FileContext` plus its resolved imports
  (``from repro.x import C as D`` → ``D: repro.x.C``, relative imports
  resolved against the package);
* a **symbol table** per module: top-level functions and classes, with
  per-class method tables, lock-attribute sites (``self._lock =
  threading.Lock()``) and self-attribute types inferred from
  constructor-style assignments (``self._reads = MicroBatcher(...)``,
  including through ``IfExp`` branches);
* a resolved, conservative **call graph**: ``f()``, ``Cls()``,
  ``self.method()``, ``self.attr.method()``, ``imported.f()``,
  ``Cls.classmethod()`` and simple local-variable receivers
  (``x = Cls(); x.method()``). Unresolvable calls are dropped, never
  guessed — a project rule's finding must survive an adversarial reading
  of the witness trace.

Everything here is plain ``ast`` over the trees the engine already
parsed; building the graph parses nothing and makes two passes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.engine import FileContext

#: ``self.X = threading.<factory>()`` assignments that make ``X`` a lock
#: site. Wider than GEM-C01's set on purpose: semaphores and events own
#: an internal lock, so the lock-order graph tracks them as lock sites
#: too.
LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event"}
)

#: A lock's project-wide identity: (module, class, attribute). One per
#: declaration — every instance of the class shares the ordering contract.
LockKey = tuple[str, str, str]
FuncKey = tuple[str, str]
ClassKey = tuple[str, str]


@dataclass
class FunctionInfo:
    """One function or method: its node plus call-mapping metadata."""

    module: str
    qual: str  # "func" or "Class.method"
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Positional parameter names with a leading ``self``/``cls`` stripped.
    params: tuple[str, ...]
    #: Keyword-only parameter names.
    kwonly: tuple[str, ...]
    class_name: str | None = None

    @property
    def key(self) -> FuncKey:
        return (self.module, self.qual)

    @property
    def all_params(self) -> tuple[str, ...]:
        return self.params + self.kwonly


@dataclass
class ClassInfo:
    """One class: methods, lock-attribute sites, inferred attribute types."""

    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: lock attribute name -> lineno of the creating assignment.
    lock_attrs: dict[str, int] = field(default_factory=dict)
    #: self attribute name -> possible classes (resolved in pass 2).
    attr_types: dict[str, set[ClassKey]] = field(default_factory=dict)
    #: raw right-hand candidate names collected in pass 1.
    _attr_exprs: dict[str, list[ast.expr]] = field(default_factory=dict)

    @property
    def key(self) -> ClassKey:
        return (self.module, self.name)


@dataclass
class ModuleInfo:
    """One analyzed file's imports and top-level symbols."""

    file: FileContext
    #: local name -> fully dotted target ("repro.serve.batching.MicroBatcher",
    #: "os", ...). ``import a.b`` binds "a" -> "a".
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.file.path


def _resolve_relative(module: str, is_package: bool, level: int, target: str | None) -> str:
    """Absolute dotted module for a relative import inside ``module``."""
    parts = module.split(".") if module else []
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _callable_factory_name(call: ast.expr) -> str | None:
    """``Lock()``/``threading.Lock()`` → ``"Lock"``; None otherwise."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _function_info(
    node: ast.FunctionDef | ast.AsyncFunctionDef, module: str, class_name: str | None
) -> FunctionInfo:
    decorators = {
        d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")
        for d in node.decorator_list
    }
    positional = [a.arg for a in node.args.posonlyargs + node.args.args]
    if class_name is not None and "staticmethod" not in decorators and positional:
        if positional[0] in ("self", "cls"):
            positional = positional[1:]
    qual = f"{class_name}.{node.name}" if class_name else node.name
    return FunctionInfo(
        module=module,
        qual=qual,
        name=node.name,
        node=node,
        params=tuple(positional),
        kwonly=tuple(a.arg for a in node.args.kwonlyargs),
        class_name=class_name,
    )


def _collect_class(node: ast.ClassDef, module: str) -> ClassInfo:
    info = ClassInfo(module=module, name=node.name, node=node)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[item.name] = _function_info(item, module, node.name)
    # Lock sites and attribute-type candidates come from every method:
    # locks are conventionally made in __init__, but late/lazy creation
    # must not hide one from the ordering analysis.
    for sub in ast.walk(node):
        targets: list[tuple[ast.expr, ast.expr]] = []
        if isinstance(sub, ast.Assign) and sub.value is not None:
            targets = [(t, sub.value) for t in sub.targets]
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            targets = [(sub.target, sub.value)]
        for target, value in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            factory = _callable_factory_name(value)
            if factory in LOCK_FACTORIES:
                info.lock_attrs.setdefault(attr, target.lineno)
            info._attr_exprs.setdefault(attr, []).append(value)
    return info


def build_project(files: Sequence[FileContext]) -> "ProjectGraph":
    """Build the module table, symbol tables and call graph of ``files``."""
    modules: dict[str, ModuleInfo] = {}
    for file in files:
        key = file.module or file.path
        mod = ModuleInfo(file)
        for node in file.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
                    else:
                        # `import a.b` binds the top-level name "a".
                        top = alias.name.split(".")[0]
                        mod.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = (
                    _resolve_relative(key, file.is_package, node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{base}.{alias.name}" if base else alias.name
            elif isinstance(node, ast.ClassDef):
                mod.classes[node.name] = _collect_class(node, key)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[node.name] = _function_info(node, key, None)
        modules[key] = mod
    graph = ProjectGraph(modules)
    graph._resolve_attr_types()
    return graph


class ProjectGraph:
    """Modules, symbols and the resolved call graph over one project."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.functions: dict[FuncKey, FunctionInfo] = {}
        self.classes: dict[ClassKey, ClassInfo] = {}
        for mod in modules.values():
            for func in mod.functions.values():
                self.functions[func.key] = func
            for cls in mod.classes.values():
                self.classes[cls.key] = cls
                for method in cls.methods.values():
                    self.functions[method.key] = method
        self._calls: dict[FuncKey, list[tuple[ast.Call, FunctionInfo]]] = {}

    # ---------------------------------------------------------- module graph

    def import_edges(self) -> dict[str, set[str]]:
        """Project-internal module import graph (module -> imported modules)."""
        edges: dict[str, set[str]] = {name: set() for name in self.modules}
        for name, mod in self.modules.items():
            for target in mod.imports.values():
                candidate = target
                while candidate:
                    if candidate in self.modules and candidate != name:
                        edges[name].add(candidate)
                        break
                    candidate, _, _ = candidate.rpartition(".")
        return edges

    # -------------------------------------------------------- name resolution

    def _resolve_name(
        self, mod: ModuleInfo, name: str
    ) -> tuple[str, ClassInfo | FunctionInfo | ModuleInfo] | None:
        if name in mod.classes:
            return ("class", mod.classes[name])
        if name in mod.functions:
            return ("func", mod.functions[name])
        target = mod.imports.get(name)
        if target is None:
            return None
        if target in self.modules:
            return ("module", self.modules[target])
        head, _, sym = target.rpartition(".")
        other = self.modules.get(head)
        if other is not None:
            if sym in other.classes:
                return ("class", other.classes[sym])
            if sym in other.functions:
                return ("func", other.functions[sym])
        return None

    def _constructor(self, cls: ClassInfo) -> FunctionInfo | None:
        return cls.methods.get("__init__")

    def _resolve_attr_types(self) -> None:
        for cls in self.classes.values():
            mod = self.modules[cls.module]
            for attr, exprs in cls._attr_exprs.items():
                resolved: set[ClassKey] = set()
                stack = list(exprs)
                while stack:
                    expr = stack.pop()
                    if isinstance(expr, ast.IfExp):
                        stack.extend((expr.body, expr.orelse))
                        continue
                    if not isinstance(expr, ast.Call):
                        continue
                    func = expr.func
                    if isinstance(func, ast.Name):
                        hit = self._resolve_name(mod, func.id)
                        if hit is not None and hit[0] == "class":
                            resolved.add(hit[1].key)  # type: ignore[union-attr]
                    elif isinstance(func, ast.Attribute) and isinstance(
                        func.value, ast.Name
                    ):
                        hit = self._resolve_name(mod, func.value.id)
                        if (
                            hit is not None
                            and hit[0] == "module"
                            and func.attr in hit[1].classes  # type: ignore[union-attr]
                        ):
                            resolved.add(hit[1].classes[func.attr].key)  # type: ignore[union-attr]
                if resolved:
                    cls.attr_types[attr] = resolved

    def _local_types(self, func: FunctionInfo) -> dict[str, set[ClassKey]]:
        """``x = Cls(...)`` local-variable types inside one function."""
        mod = self.modules[func.module]
        types: dict[str, set[ClassKey]] = {}
        for node in ast.walk(func.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
            ):
                continue
            hit = self._resolve_name(mod, node.value.func.id)
            if hit is not None and hit[0] == "class":
                types.setdefault(node.targets[0].id, set()).add(hit[1].key)  # type: ignore[union-attr]
        return types

    # ----------------------------------------------------------- call graph

    def resolve_call(
        self,
        func: FunctionInfo,
        call: ast.Call,
        local_types: dict[str, set[ClassKey]] | None = None,
    ) -> list[FunctionInfo]:
        """Project functions this call may enter; [] when unresolvable."""
        mod = self.modules[func.module]
        target = call.func
        out: list[FunctionInfo] = []
        if isinstance(target, ast.Name):
            hit = self._resolve_name(mod, target.id)
            if hit is None:
                return []
            if hit[0] == "func":
                out.append(hit[1])  # type: ignore[arg-type]
            elif hit[0] == "class":
                ctor = self._constructor(hit[1])  # type: ignore[arg-type]
                if ctor is not None:
                    out.append(ctor)
            return out
        if not isinstance(target, ast.Attribute):
            return []
        method = target.attr
        base = target.value
        if isinstance(base, ast.Name):
            if base.id == "self" and func.class_name is not None:
                own = self.classes.get((func.module, func.class_name))
                if own is not None and method in own.methods:
                    return [own.methods[method]]
                return []
            if local_types and base.id in local_types:
                for cls_key in sorted(local_types[base.id]):
                    cls = self.classes.get(cls_key)
                    if cls is not None and method in cls.methods:
                        out.append(cls.methods[method])
                return out
            hit = self._resolve_name(mod, base.id)
            if hit is None:
                return []
            if hit[0] == "module":
                other = hit[1]
                if method in other.functions:  # type: ignore[union-attr]
                    return [other.functions[method]]  # type: ignore[union-attr]
                if method in other.classes:  # type: ignore[union-attr]
                    ctor = self._constructor(other.classes[method])  # type: ignore[union-attr]
                    return [ctor] if ctor is not None else []
                return []
            if hit[0] == "class" and method in hit[1].methods:  # type: ignore[union-attr]
                return [hit[1].methods[method]]  # type: ignore[union-attr]
            return []
        # self.<attr>.method(): type the attribute via the symbol table.
        attr = _self_attr(base)
        if attr is not None and func.class_name is not None:
            own = self.classes.get((func.module, func.class_name))
            if own is not None:
                for cls_key in sorted(own.attr_types.get(attr, ())):
                    cls = self.classes.get(cls_key)
                    if cls is not None and method in cls.methods:
                        out.append(cls.methods[method])
        return out

    def calls_in(self, func: FunctionInfo) -> list[tuple[ast.Call, FunctionInfo]]:
        """Resolved call sites inside ``func`` (cached)."""
        cached = self._calls.get(func.key)
        if cached is not None:
            return cached
        local_types = self._local_types(func)
        resolved: list[tuple[ast.Call, FunctionInfo]] = []
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                for callee in self.resolve_call(func, node, local_types):
                    resolved.append((node, callee))
        self._calls[func.key] = resolved
        return resolved

    def sorted_functions(self) -> list[FunctionInfo]:
        return [self.functions[key] for key in sorted(self.functions)]


def iter_lock_sites(project: ProjectGraph) -> Iterator[tuple[LockKey, str, int]]:
    """Every declared lock: (lock key, path, creation lineno)."""
    for cls_key in sorted(project.classes):
        cls = project.classes[cls_key]
        path = project.modules[cls.module].path
        for attr in sorted(cls.lock_attrs):
            yield (cls.module, cls.name, attr), path, cls.lock_attrs[attr]


__all__ = [
    "LOCK_FACTORIES",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectGraph",
    "build_project",
    "iter_lock_sites",
]
