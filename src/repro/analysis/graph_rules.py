"""The whole-program rule over the project graph: RACE001.

It runs once per lint invocation (not per file) against the
:class:`~repro.analysis.graph.ProjectGraph`, using the fixed-point
engine in :mod:`repro.analysis.dataflow` for its interprocedural part:

* **RACE001** — lock-scoped shared state (module-level mutables, or
  mutable attributes of a lock-owning class) is accessed on a
  thread-reachable path without the guarding lock held — neither
  syntactically (enclosing ``with``) nor on every call path into the
  function (must-hold dataflow).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.dataflow import fixed_point, intersect_join
from repro.analysis.graph import Access, ProjectGraph
from repro.analysis.rules import project_rule

Hit = "tuple[str, int, int, str]"


def _call_edges_with_locks(graph: ProjectGraph):
    """Call edges whose transfer adds the locks held at the call site."""
    edges: "dict[str, list]" = {}
    for qual, fn in graph.functions.items():
        out = []
        for site in fn.calls:
            if site.callee not in graph.functions:
                continue

            def add_site_locks(fact, _extra=site.held):
                return fact | _extra

            out.append((site.callee, add_site_locks))
        edges[qual] = out
    return edges


def _scope_locks(graph: ProjectGraph, access: Access) -> "frozenset[str]":
    """The lock keys that could legitimately guard ``access``."""
    if access.kind == "module":
        info = graph.modules.get(access.owner)
        if info is None:
            return frozenset()
        return frozenset(
            f"{access.owner}.{name}"
            for name in info.context.symbols.lock_globals
        )
    cls = graph.classes.get(access.owner)
    if cls is None:
        return frozenset()
    return frozenset(f"{access.owner}.{attr}" for attr in cls.lock_attrs)


@project_rule(
    "RACE001",
    "shared state accessed on a thread-reachable path without its lock",
    "Under ThreadingHTTPServer every route handler runs concurrently; "
    "module-level mutables and the mutable attributes of lock-owning "
    "classes must be touched with the guarding lock held — either in an "
    "enclosing 'with', or on every call path into the function.",
)
def check_race001(graph: ProjectGraph) -> Iterator[Hit]:
    """Violating::

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}
            def put(self, k, v):        # repro: thread-entry
                self._items[k] = v      # lock exists but is not held

    Clean::

        def put(self, k, v):            # repro: thread-entry
            with self._lock:
                self._items[k] = v
    """
    # Must-hold: a lock is held at function entry iff it is held at
    # *every* thread-reachable call site.  Seeding only thread entries
    # confines the analysis to thread-reachable code.
    must = fixed_point(
        {entry: frozenset() for entry in sorted(graph.thread_entries)},
        _call_edges_with_locks(graph),
        intersect_join,
    )
    for qual in sorted(must):
        fn = graph.functions.get(qual)
        if fn is None:
            continue
        entry_held = must[qual]
        for access in fn.accesses:
            held = access.held | entry_held
            scope = _scope_locks(graph, access)
            if held & scope:
                continue
            if not access.write and not scope:
                # reads of never-locked state are per-process caches;
                # SPAWN001 already polices their writes.
                continue
            state = f"{access.owner}.{access.attr}"
            verb = "written" if access.write else "read"
            guard = (
                " or ".join(f"'with {k.rsplit('.', 1)[1]}'" for k in sorted(scope))
                if scope
                else "a lock"
            )
            yield (
                fn.file,
                access.lineno,
                access.col,
                f"shared state {state} {verb} on a thread-reachable path "
                f"(via {qual}) without holding {guard}",
            )
