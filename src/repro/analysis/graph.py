"""Project-wide import graph and resolved intra-package call graph.

The per-module checkers see one file at a time; the whole-program rule
(RACE001 — :mod:`repro.analysis.graph_rules`) needs to know how files
relate: which function calls which, which locks each call site holds,
and what shared state each function touches.  The import graph also
drives the lint cache's transitive invalidation.  This module builds
that picture in two passes over the already-parsed
:class:`~repro.analysis.symbols.ModuleContext` objects:

1. **collect** — per module: dotted module name (derived from
   ``__init__.py`` nesting on disk), every import statement (including
   function-local lazy imports and relative imports, resolved to
   absolute dotted targets), class skeletons (methods, lock attributes,
   mutable attributes, attribute types harvested from ``__init__``),
   and top-level function nodes;
2. **summarize** — per function: an ordered walk of the body producing
   a :class:`FunctionSummary` of resolved call sites and shared-state
   accesses, each with the lock set syntactically held at it.

Resolution is deliberately syntactic and best-effort: local functions,
``from X import f`` aliases, ``self.method``, classes named by parameter
and return annotations (``def get(...) -> Session`` lets
``session = registry.get(id); session.suggest()`` resolve), and local
instances from direct construction.  Anything dynamic resolves to
nothing — the dataflow rules only act on edges that *provably* exist,
so an unresolved call can hide a violation but never invent one.

Thread entry points anchor RACE001's analysis.  A marker on a ``def``
line declares one::

    def handle(...):        # repro: thread-entry

and two patterns are auto-detected: thread targets
(``threading.Thread(target=f)``) and ``do_*`` methods of
``*HTTPRequestHandler`` subclasses.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.symbols import ModuleContext

__all__ = [
    "ProjectGraph",
    "FunctionSummary",
    "ClassInfo",
    "ModuleInfo",
    "build_project_graph",
    "module_name_for",
]

#: Container methods that mutate the receiver (shared with SPAWN001).
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "popleft",
    "clear",
    "remove",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "sort",
    "reverse",
}

_MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "deque",
    "OrderedDict",
    "defaultdict",
    "Counter",
}

_ENTRY_MARK = re.compile(r"#\s*repro:\s*thread-entry\b")


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with the locks held at the site."""

    callee: str
    lineno: int
    col: int
    held: frozenset = frozenset()


@dataclass(frozen=True)
class Access:
    """One read/write of lock-scoped shared state."""

    kind: str  # "module" | "attr"
    owner: str  # module dotted name | class qualname
    attr: str
    write: bool
    lineno: int
    col: int
    held: frozenset = frozenset()


@dataclass
class FunctionSummary:
    """What one function does, as far as the syntactic walk can see."""

    qualname: str
    module: str
    file: str
    lineno: int
    name: str
    params: "tuple[str, ...]"
    cls: "str | None" = None
    thread_entry: bool = False
    calls: "list[CallSite]" = field(default_factory=list)
    accesses: "list[Access]" = field(default_factory=list)


@dataclass
class ClassInfo:
    """Skeleton of one class: methods and the attribute tables."""

    qualname: str
    module: str
    name: str
    bases: "tuple[str, ...]" = ()
    methods: "dict[str, ast.AST]" = field(default_factory=dict)
    lock_attrs: "set[str]" = field(default_factory=set)
    mutable_attrs: "set[str]" = field(default_factory=set)
    #: attr → raw annotation text, resolved to qualnames in pass 2.
    attr_types_raw: "dict[str, str]" = field(default_factory=dict)
    attr_types: "dict[str, str]" = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module facts shared by the graph rules and the cache."""

    name: str
    file: str
    context: ModuleContext
    #: every import site, as ``(lineno, col, absolute dotted target)``.
    import_sites: "list[tuple[int, int, str]]" = field(default_factory=list)
    #: project-internal modules this module imports (for invalidation).
    project_imports: "set[str]" = field(default_factory=set)
    classes_local: "dict[str, ClassInfo]" = field(default_factory=dict)
    functions_local: "dict[str, ast.AST]" = field(default_factory=dict)


def module_name_for(path: "Path | str") -> str:
    """Dotted module name of ``path``, from ``__init__.py`` nesting.

    Walks up while the parent directory is a package; a loose file (no
    enclosing package) is just its stem.  ``pkg/__init__.py`` is the
    package ``pkg`` itself.
    """
    p = Path(path)
    parts = [p.stem]
    current = p.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        current = current.parent
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else p.stem


def _resolve_relative(module: str, is_package: bool, level: int, base: "str | None") -> "str | None":
    """Absolute dotted target of a ``from ...X import Y`` statement."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    anchor = parts[: len(parts) - drop] if drop else parts
    if base:
        anchor = anchor + base.split(".")
    return ".".join(anchor) if anchor else None


def _annotation_text(node: "ast.expr | None") -> "str | None":
    """Raw dotted text of a simple annotation (``Session``, ``np.rng``).

    ``Optional[X]`` / ``X | None`` unwrap to ``X``; anything fancier
    resolves to nothing.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _annotation_text(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Subscript):
        head = _annotation_text(node.value)
        if head in ("Optional", "typing.Optional"):
            return _annotation_text(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_text(node.left)
        if left is not None:
            return left
        return _annotation_text(node.right)
    return None


# ---------------------------------------------------------------------------
# pass 1: per-module collection
# ---------------------------------------------------------------------------


def _collect_module(name: str, file: str, context: ModuleContext) -> ModuleInfo:
    info = ModuleInfo(name=name, file=file, context=context)
    is_package = Path(file).stem == "__init__"
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.import_sites.append((node.lineno, node.col_offset, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(name, is_package, node.level, node.module)
            else:
                base = node.module
            if base is None:
                continue
            for alias in node.names:
                # ``from X import Y`` may bind the submodule ``X.Y`` or an
                # attribute of ``X``; record the longer form, pass 2 keeps
                # it only if it names a real project module.
                info.import_sites.append(
                    (node.lineno, node.col_offset, f"{base}.{alias.name}")
                )
    for stmt in context.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions_local[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            info.classes_local[stmt.name] = _collect_class(name, stmt)
    return info


def _collect_class(module: str, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(
        qualname=f"{module}.{node.name}",
        module=module,
        name=node.name,
        bases=tuple(
            t for t in (_annotation_text(b) for b in node.bases) if t is not None
        ),
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and value is not None:
                    if _is_mutable_value(value):
                        cls.mutable_attrs.add(target.id)
    init = cls.methods.get("__init__")
    if init is not None:
        _collect_init_attrs(cls, init)
    return cls


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


def _is_lock_value(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("Lock", "RLock")
    if isinstance(func, ast.Attribute):
        return func.attr in ("Lock", "RLock")
    return False


def _collect_init_attrs(cls: ClassInfo, init: ast.AST) -> None:
    """Harvest ``self.x = ...`` bindings from ``__init__``."""
    param_ann: "dict[str, str]" = {}
    for arg in (*init.args.posonlyargs, *init.args.args, *init.args.kwonlyargs):
        text = _annotation_text(arg.annotation)
        if text:
            param_ann[arg.arg] = text
    for node in ast.walk(init):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if value is not None and _is_lock_value(value):
                    cls.lock_attrs.add(attr)
                elif value is not None and _is_mutable_value(value):
                    cls.mutable_attrs.add(attr)
                if isinstance(node, ast.AnnAssign):
                    text = _annotation_text(node.annotation)
                    if text:
                        cls.attr_types_raw[attr] = text
                elif isinstance(value, ast.Name) and value.id in param_ann:
                    cls.attr_types_raw[attr] = param_ann[value.id]
                elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    cls.attr_types_raw[attr] = value.func.id


# ---------------------------------------------------------------------------
# the project graph
# ---------------------------------------------------------------------------


class ProjectGraph:
    """The resolved whole-program view over one lint run's files."""

    def __init__(self) -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        self.functions: "dict[str, FunctionSummary]" = {}
        self.thread_entries: "set[str]" = set()

    # -- queries -------------------------------------------------------------
    def call_edges(self) -> "dict[str, list[str]]":
        """qualname → sorted callee qualnames (resolved sites only)."""
        edges: "dict[str, list[str]]" = {}
        for qualname, fn in self.functions.items():
            edges[qualname] = sorted({c.callee for c in fn.calls})
        return edges

    def import_edges(self) -> "dict[str, list[str]]":
        """module → sorted project-internal modules it imports."""
        return {
            name: sorted(info.project_imports)
            for name, info in self.modules.items()
        }

    def resolve_class_ref(self, module: ModuleInfo, text: "str | None") -> "str | None":
        """Class qualname named by annotation ``text`` inside ``module``."""
        if not text:
            return None
        head, _, rest = text.partition(".")
        if not rest:
            if text in module.classes_local:
                return module.classes_local[text].qualname
            dotted = module.context.symbols.attribute_imports.get(text)
            if dotted and dotted in self.classes:
                return dotted
            return None
        root = module.context.symbols.module_imports.get(head, head)
        dotted = f"{root}.{rest}"
        if dotted in self.classes:
            return dotted
        # ``sibling.Class`` where ``sibling`` came in via from-import.
        dotted = module.context.symbols.attribute_imports.get(head)
        if dotted:
            candidate = f"{dotted}.{rest}"
            if candidate in self.classes:
                return candidate
        return None

    def to_json(self) -> dict:
        """The ``--graph`` dump: modules, edges, entries, function count."""
        return {
            "modules": {
                name: {
                    "file": info.file,
                    "imports": sorted(info.project_imports),
                }
                for name, info in sorted(self.modules.items())
            },
            "functions": len(self.functions),
            "call_edges": {
                src: dsts for src, dsts in sorted(self.call_edges().items()) if dsts
            },
            "thread_entries": sorted(self.thread_entries),
        }


def build_project_graph(
    modules: "list[tuple[str, ModuleContext]]",
) -> ProjectGraph:
    """Build the graph over ``(file_name, context)`` pairs (two passes)."""
    graph = ProjectGraph()
    for file, context in modules:
        name = module_name_for(file)
        info = _collect_module(name, file, context)
        # Duplicate dotted names (two loose files with one stem) keep the
        # first, deterministically — inputs arrive in sorted walk order.
        if name not in graph.modules:
            graph.modules[name] = info
        for cls in info.classes_local.values():
            graph.classes[cls.qualname] = cls

    # Resolve import targets now that the project module set is known.
    for info in graph.modules.values():
        resolved_sites = []
        for lineno, col, target in info.import_sites:
            if target not in graph.modules:
                # ``from X import Y`` where Y is an attribute, not a
                # module: fall back to X (itself possibly external).
                parent = target.rpartition(".")[0]
                if parent in graph.modules:
                    target = parent
            resolved_sites.append((lineno, col, target))
            if target in graph.modules and target != info.name:
                info.project_imports.add(target)
        info.import_sites = resolved_sites

    # Resolve class attribute types and register functions.
    for info in graph.modules.values():
        for cls in info.classes_local.values():
            for attr, text in cls.attr_types_raw.items():
                resolved = graph.resolve_class_ref(info, text)
                if resolved:
                    cls.attr_types[attr] = resolved

    # Summarize every function/method body.
    for info in graph.modules.values():
        for fname, node in sorted(info.functions_local.items()):
            summary = _Summarizer(graph, info, node, cls=None).run()
            graph.functions[summary.qualname] = summary
        for cname, cls in sorted(info.classes_local.items()):
            handler = any(b.endswith("HTTPRequestHandler") for b in cls.bases)
            for mname, mnode in sorted(cls.methods.items()):
                summary = _Summarizer(graph, info, mnode, cls=cls).run()
                if handler and mname.startswith("do_"):
                    summary.thread_entry = True
                graph.functions[summary.qualname] = summary

    for qualname, fn in graph.functions.items():
        if fn.thread_entry:
            graph.thread_entries.add(qualname)
    return graph


# ---------------------------------------------------------------------------
# pass 2: per-function summarization
# ---------------------------------------------------------------------------

#: descriptor kinds returned by ``_Summarizer._eval``:
#:   ("instance", class_qualname)   a value of a known project class
#:   ("class", class_qualname)      the class object itself
#:   ("func", func_qualname)        a resolvable function/method
#:   ("dotted", "a.b.c")            import-rooted external dotted path
#:   ("objattr", cls, attr)         attribute of a known class instance
#:   None                           anything unresolvable


class _Summarizer:
    """Ordered single walk of one function body."""

    def __init__(
        self,
        graph: ProjectGraph,
        minfo: ModuleInfo,
        node: ast.AST,
        cls: "ClassInfo | None",
    ) -> None:
        self.graph = graph
        self.minfo = minfo
        self.node = node
        self.cls = cls
        self.symbols = minfo.context.symbols
        qualname = (
            f"{cls.qualname}.{node.name}" if cls else f"{minfo.name}.{node.name}"
        )
        params = tuple(
            a.arg
            for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
        self.fn = FunctionSummary(
            qualname=qualname,
            module=minfo.name,
            file=minfo.file,
            lineno=node.lineno,
            name=node.name,
            params=params,
            cls=cls.qualname if cls else None,
        )
        self.locals: "set[str]" = set(params)
        self.local_types: "dict[str, str]" = {}
        self.declared_global: "set[str]" = set()
        self.held: "list[str]" = []
        #: function-local lazy imports, same shape as ModuleSymbols.
        self.local_module_imports: "dict[str, str]" = {}
        self.local_attr_imports: "dict[str, str]" = {}
        self.in_init = cls is not None and node.name == "__init__"
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
            resolved = graph.resolve_class_ref(minfo, _annotation_text(arg.annotation))
            if resolved:
                self.local_types[arg.arg] = resolved

    def run(self) -> FunctionSummary:
        if _ENTRY_MARK.search(self.minfo.context.line_text(self.node.lineno)):
            self.fn.thread_entry = True
        self._visit_stmts(self.node.body)
        return self.fn

    # -- statements ----------------------------------------------------------
    def _visit_stmts(self, body: "list[ast.stmt]") -> None:
        for stmt in body:
            self._visit_stmt(stmt)

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are folded into the parent: their bodies run
            # (eventually) in the parent's context and their calls are
            # the parent's edges for reachability purposes.
            self.locals.add(stmt.name)
            for arg in (
                *stmt.args.posonlyargs,
                *stmt.args.args,
                *stmt.args.kwonlyargs,
            ):
                self.locals.add(arg.arg)
            self._visit_stmts(stmt.body)
        elif isinstance(stmt, ast.ClassDef):
            self.locals.add(stmt.name)
        elif isinstance(stmt, ast.Global):
            self.declared_global.update(stmt.names)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._visit_assign(stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._visit_write_target(target)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._visit_stmts(stmt.body)
            self._visit_stmts(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            self._bind_target(stmt.target)
            self._visit_stmts(stmt.body)
            self._visit_stmts(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._visit_stmts(stmt.body)
            self._visit_stmts(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._visit_stmts(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.locals.add(handler.name)
                self._visit_stmts(handler.body)
            self._visit_stmts(stmt.orelse)
            self._visit_stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
            if stmt.cause is not None:
                self._eval(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                self.local_module_imports[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module and stmt.level == 0:
                for alias in stmt.names:
                    if alias.name != "*":
                        self.local_attr_imports[alias.asname or alias.name] = (
                            f"{stmt.module}.{alias.name}"
                        )

    def _visit_assign(self, stmt: ast.stmt) -> None:
        value = stmt.value
        vdesc = self._eval(value) if value is not None else None
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                name = target.id
                if name in self.declared_global and self._is_module_mutable(name):
                    self._record_access("module", self.minfo.name, name, True, target)
                self.locals.add(name)
                self.local_types.pop(name, None)
                if vdesc is not None and vdesc[0] == "instance":
                    self.local_types[name] = vdesc[1]
                if isinstance(stmt, ast.AnnAssign):
                    resolved = self.graph.resolve_class_ref(
                        self.minfo, _annotation_text(stmt.annotation)
                    )
                    if resolved:
                        self.local_types[name] = resolved
            else:
                self._visit_write_target(target)

    def _bind_target(self, target: ast.expr) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self.locals.add(node.id)

    def _visit_write_target(self, target: ast.expr) -> None:
        """Record shared-state writes through subscript/attribute targets."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_write_target(element)
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            self._eval(target.slice)
            if isinstance(base, ast.Name) and self._is_module_mutable(base.id):
                self._record_access("module", self.minfo.name, base.id, True, target)
                return
            desc = self._eval(base)
            if desc is not None and desc[0] == "objattr":
                _, owner, attr = desc
                self._upgrade_access(owner, attr)
                self._maybe_attr_access(owner, attr, True, target)
            return
        if isinstance(target, ast.Attribute):
            desc = self._eval(target.value)
            if desc is not None and desc[0] == "instance":
                self._maybe_attr_access(desc[1], target.attr, True, target)
            return
        if isinstance(target, ast.Name):
            self.locals.add(target.id)
            return
        self._eval(target)

    def _visit_with(self, stmt: ast.stmt) -> None:
        acquired: "list[str]" = []
        for item in stmt.items:
            key = self._lock_key(item.context_expr)
            if key is not None:
                self.held.append(key)
                acquired.append(key)
            else:
                self._eval(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars)
        self._visit_stmts(stmt.body)
        for _ in acquired:
            self.held.pop()

    # -- expression evaluation ----------------------------------------------
    def _eval(self, node: "ast.expr | None"):
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return self._resolve_name(node)
        if isinstance(node, ast.Attribute):
            return self._resolve_attr(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Lambda):
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
                self.locals.add(arg.arg)
            self._eval(node.body)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._eval(gen.iter)
                self._bind_target(gen.target)
                for cond in gen.ifs:
                    self._eval(cond)
            if isinstance(node, ast.DictComp):
                self._eval(node.key)
                self._eval(node.value)
            else:
                self._eval(node.elt)
            return None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return None

    def _resolve_name(self, node: ast.Name):
        name = node.id
        if name == "self" and self.cls is not None:
            return ("instance", self.cls.qualname)
        if name in self.local_types:
            return ("instance", self.local_types[name])
        if self._is_module_mutable(name):
            self._record_access("module", self.minfo.name, name, False, node)
            return None
        if name in self.locals:
            return None
        if name in self.minfo.classes_local:
            return ("class", self.minfo.classes_local[name].qualname)
        if name in self.minfo.functions_local:
            return ("func", f"{self.minfo.name}.{name}")
        dotted = (
            self.local_attr_imports.get(name)
            or self.local_module_imports.get(name)
            or self.symbols.attribute_imports.get(name)
            or self.symbols.module_imports.get(name)
        )
        if dotted:
            return self._classify_dotted(dotted)
        return None

    def _classify_dotted(self, dotted: str):
        if dotted in self.graph.classes:
            return ("class", dotted)
        if dotted in self.graph.functions or self._names_project_function(dotted):
            return ("func", dotted)
        return ("dotted", dotted)

    def _names_project_function(self, dotted: str) -> bool:
        """Whether ``dotted`` is ``<module>.<function>`` of a project module."""
        parent, _, leaf = dotted.rpartition(".")
        info = self.graph.modules.get(parent)
        return bool(info and leaf in info.functions_local)

    def _resolve_attr(self, node: ast.Attribute):
        base = self._eval(node.value)
        attr = node.attr
        if base is None:
            return None
        kind = base[0]
        if kind == "instance":
            cls = self.graph.classes.get(base[1])
            if cls is None:
                return None
            if attr in cls.methods:
                return ("func", f"{cls.qualname}.{attr}")
            if attr in cls.attr_types:
                return ("instance", cls.attr_types[attr])
            if attr in cls.mutable_attrs:
                # Record the read here; consumption sites that turn out
                # to be writes (subscript store, mutating method call)
                # upgrade it via _upgrade_access.
                self._maybe_attr_access(cls.qualname, attr, False, node)
                return ("objattr", cls.qualname, attr)
            if attr in cls.lock_attrs:
                return ("objattr", cls.qualname, attr)
            inherited = self._resolve_base_method(cls, attr)
            if inherited:
                return ("func", inherited)
            return None
        if kind == "class":
            cls = self.graph.classes.get(base[1])
            if cls is not None and attr in cls.methods:
                return ("func", f"{cls.qualname}.{attr}")
            return None
        if kind == "dotted":
            return self._classify_dotted(f"{base[1]}.{attr}")
        if kind == "objattr":
            # method lookup on a tracked container (self._cache.pop):
            # keep identifying the container; the call site classifies
            # the method as mutating or not.
            return base
        return None

    def _resolve_base_method(self, cls: ClassInfo, attr: str) -> "str | None":
        """One level of same-project inheritance (``Base.method``)."""
        minfo = self.graph.modules.get(cls.module)
        if minfo is None:
            return None
        for base_name in cls.bases:
            qual = self.graph.resolve_class_ref(minfo, base_name)
            if qual:
                base_cls = self.graph.classes[qual]
                if attr in base_cls.methods:
                    return f"{qual}.{attr}"
        return None

    # -- calls ---------------------------------------------------------------
    def _eval_call(self, node: ast.Call):
        for arg in node.args:
            self._eval(arg)
        for kw in node.keywords:
            self._eval(kw.value)
        func = node.func

        self._detect_thread_target(node, func)

        # g.append(x) on a module-level mutable: classify before the
        # generic eval path records it as a bare read.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and self._is_module_mutable(func.value.id)
        ):
            self._record_access(
                "module",
                self.minfo.name,
                func.value.id,
                func.attr in _MUTATING_METHODS,
                node,
            )
            return None

        desc = self._eval(func)

        if desc is not None and desc[0] == "objattr":
            owner, attr = desc[1], desc[2]
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                # self._cache.pop(...): the read recorded during attribute
                # resolution was really a mutation.
                self._upgrade_access(owner, attr)
                self._maybe_attr_access(owner, attr, True, node)
            return None

        if desc is None:
            return None

        if desc[0] == "class":
            cls = self.graph.classes[desc[1]]
            if "__init__" in cls.methods:
                self._record_call(f"{desc[1]}.__init__", node)
            return ("instance", desc[1])

        if desc[0] == "func":
            qual = desc[1]
            self._record_call(qual, node)
            ret = self._return_class(qual)
            if ret:
                return ("instance", ret)
            return None

        if desc[0] == "dotted":
            # plain external call; receiver evaluation above already
            # recorded any shared-state reads among the arguments.
            return None
        return None

    def _return_class(self, qual: str) -> "str | None":
        """Class qualname named by ``qual``'s return annotation, if any."""
        parent, _, leaf = qual.rpartition(".")
        node = None
        minfo = None
        if parent in self.graph.modules:
            minfo = self.graph.modules[parent]
            node = minfo.functions_local.get(leaf)
        elif parent in self.graph.classes:
            cls = self.graph.classes[parent]
            minfo = self.graph.modules.get(cls.module)
            node = cls.methods.get(leaf)
        if node is None or minfo is None:
            return None
        return self.graph.resolve_class_ref(minfo, _annotation_text(node.returns))

    def _record_call(self, qual: str, node: ast.Call) -> None:
        self.fn.calls.append(
            CallSite(
                callee=qual,
                lineno=node.lineno,
                col=node.col_offset,
                held=frozenset(self.held),
            )
        )

    # -- thread-entry auto-detection -----------------------------------------
    def _detect_thread_target(self, node: ast.Call, func: ast.expr) -> None:
        # threading.Thread(target=f) / Timer(..., target=f): f runs in a thread.
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            qualified = self.symbols.qualified(func)
            basename = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if qualified == "threading.Thread" or basename in ("Thread", "Timer"):
                target = self._entry_target(kw.value)
                if target:
                    self._mark_thread_entry(target)

    def _entry_target(self, node: ast.expr) -> "str | None":
        """Function qualname named by a ``target=`` argument."""
        if isinstance(node, ast.Name):
            name = node.id
            if name in self.minfo.functions_local:
                return f"{self.minfo.name}.{name}"
            dotted = self.local_attr_imports.get(name) or self.symbols.attribute_imports.get(name)
            if dotted and self._names_project_function(dotted):
                return dotted
            return None
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.cls is not None
            and node.attr in self.cls.methods
        ):
            return f"{self.cls.qualname}.{node.attr}"
        if isinstance(node, ast.Attribute):
            dotted = self.symbols.qualified(node)
            if dotted and self._names_project_function(dotted):
                return dotted
        return None

    def _mark_thread_entry(self, qual: str) -> None:
        fn = self.graph.functions.get(qual)
        if fn is not None:
            fn.thread_entry = True
        # Summaries are built in module order, so the target may not be
        # summarized yet — record on the graph directly as well.
        self.graph.thread_entries.add(qual)

    # -- shared-state helpers ------------------------------------------------
    def _is_module_mutable(self, name: str) -> bool:
        return (
            name in self.symbols.mutable_globals
            and (name not in self.locals or name in self.declared_global)
        )

    def _record_access(
        self, kind: str, owner: str, attr: str, write: bool, node: ast.AST
    ) -> None:
        self.fn.accesses.append(
            Access(
                kind=kind,
                owner=owner,
                attr=attr,
                write=write,
                lineno=node.lineno,
                col=node.col_offset,
                held=frozenset(self.held),
            )
        )

    def _upgrade_access(self, owner: str, attr: str) -> None:
        """Drop the read just recorded for ``owner.attr`` (it was a write)."""
        if (
            self.fn.accesses
            and self.fn.accesses[-1].owner == owner
            and self.fn.accesses[-1].attr == attr
            and not self.fn.accesses[-1].write
        ):
            self.fn.accesses.pop()

    def _maybe_attr_access(
        self, owner: str, attr: str, write: bool, node: ast.AST
    ) -> None:
        """Record an instance-attribute access (``__init__`` populates freely)."""
        if self.in_init and self.cls is not None and owner == self.cls.qualname:
            return
        cls = self.graph.classes.get(owner)
        if cls is None or attr not in cls.mutable_attrs:
            return
        self._record_access("attr", owner, attr, write, node)

    # -- locks ---------------------------------------------------------------
    def _lock_key(self, expr: ast.expr) -> "str | None":
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.symbols.lock_globals and name not in self.locals:
                return f"{self.minfo.name}.{name}"
            return None
        if isinstance(expr, ast.Attribute):
            desc = self._eval(expr.value)
            if desc is not None and desc[0] == "instance":
                cls = self.graph.classes.get(desc[1])
                if cls is not None and expr.attr in cls.lock_attrs:
                    return f"{cls.qualname}.{expr.attr}"
            elif desc is not None and desc[0] == "dotted":
                # a lock imported from a sibling module: qualify it if the
                # target module declares it as a lock global.
                dotted = f"{desc[1]}.{expr.attr}"
                parent, _, leaf = dotted.rpartition(".")
                info = self.graph.modules.get(parent)
                if info and leaf in info.context.symbols.lock_globals:
                    return dotted
            return None
        return None
