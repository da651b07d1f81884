"""Whole-program graph construction and the fixed-point dataflow engine.

The graph tests build tiny throwaway packages under ``tmp_path`` and
inspect the resulting :class:`~repro.analysis.graph.ProjectGraph`: module
naming, import resolution (absolute and relative), call resolution
through annotations, and thread-entry detection (explicit markers,
``threading.Thread`` targets, HTTP ``do_*`` handlers).
"""

from pathlib import Path

import pytest

from repro.analysis.dataflow import fixed_point, intersect_join
from repro.analysis.graph import module_name_for
from repro.analysis.runner import build_graph_for_paths


def _graph(tmp_path, files: "dict[str, str]"):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return build_graph_for_paths([tmp_path])


# -- module naming -----------------------------------------------------------


def test_module_name_for_walks_packages(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "mod.py").write_text("")
    assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == "pkg.sub.mod"
    assert module_name_for(tmp_path / "pkg" / "sub" / "__init__.py") == "pkg.sub"
    assert module_name_for(tmp_path / "loose.py") == "loose"


# -- import resolution -------------------------------------------------------


def test_import_edges_resolve_absolute_and_relative(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/leaf.py": "VALUE = 1\n",
            "pkg/absolute.py": "import pkg.leaf\n",
            "pkg/fromform.py": "from pkg.leaf import VALUE\n",
            "pkg/relative.py": "from .leaf import VALUE\n",
            "pkg/external.py": "import json\nimport numpy as np\n",
        },
    )
    edges = graph.import_edges()
    assert edges["pkg.absolute"] == ["pkg.leaf"]
    assert edges["pkg.fromform"] == ["pkg.leaf"]
    assert edges["pkg.relative"] == ["pkg.leaf"]
    # stdlib/external imports never become project edges
    assert edges["pkg.external"] == []


# -- call resolution ---------------------------------------------------------


def test_call_edges_direct_method_and_annotation(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/store.py": (
                "class Store:\n"
                "    def put(self, k, v):\n"
                "        self._write(k, v)\n"
                "    def _write(self, k, v):\n"
                "        pass\n"
            ),
            "pkg/user.py": (
                "from pkg.store import Store\n\n\n"
                "def local_call():\n"
                "    store = Store()\n"
                "    store.put('a', 1)\n\n\n"
                "def annotated_call(store: Store):\n"
                "    store.put('b', 2)\n"
            ),
        },
    )
    edges = graph.call_edges()
    assert edges["pkg.store.Store.put"] == ["pkg.store.Store._write"]
    assert "pkg.store.Store.put" in edges["pkg.user.local_call"]
    assert "pkg.store.Store.put" in edges["pkg.user.annotated_call"]


def test_init_attribute_types_resolve_cross_module(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/reg.py": (
                "class Registry:\n"
                "    def lookup(self, k):\n"
                "        pass\n"
            ),
            "pkg/app.py": (
                "from pkg.reg import Registry\n\n\n"
                "class App:\n"
                "    def __init__(self, registry: Registry):\n"
                "        self.registry = registry\n"
                "    def route(self, k):\n"
                "        return self.registry.lookup(k)\n"
            ),
        },
    )
    edges = graph.call_edges()
    assert edges["pkg.app.App.route"] == ["pkg.reg.Registry.lookup"]


# -- entry detection ---------------------------------------------------------


def test_entry_detection_markers_and_registrations(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/entries.py": (
                "import threading\n\n\n"
                "def marked_thread():  # repro: thread-entry\n"
                "    pass\n\n\n"
                "def threaded():\n"
                "    pass\n\n\n"
                "def plain():\n"
                "    pass\n\n\n"
                "def dispatch():\n"
                "    threading.Thread(target=threaded).start()\n"
            ),
            "pkg/httpish.py": (
                "from http.server import BaseHTTPRequestHandler\n\n\n"
                "class Handler(BaseHTTPRequestHandler):\n"
                "    def do_GET(self):\n"
                "        pass\n"
                "    def helper(self):\n"
                "        pass\n"
            ),
        },
    )
    assert "pkg.entries.marked_thread" in graph.thread_entries
    assert "pkg.entries.threaded" in graph.thread_entries
    assert "pkg.httpish.Handler.do_GET" in graph.thread_entries
    assert "pkg.entries.plain" not in graph.thread_entries
    assert "pkg.httpish.Handler.helper" not in graph.thread_entries


def test_graph_json_shape(tmp_path):
    graph = _graph(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "import pkg.b\n\n\ndef f():\n    pkg.b.g()\n",
            "pkg/b.py": "def g():\n    pass\n",
        },
    )
    dump = graph.to_json()
    assert dump["modules"]["pkg.a"]["imports"] == ["pkg.b"]
    assert dump["call_edges"]["pkg.a.f"] == ["pkg.b.g"]
    assert dump["functions"] == 2


# -- the dataflow engine -----------------------------------------------------


def test_fixed_point_intersect_models_must_analysis():
    # c is reached from a (holding x) and b (holding nothing): must = {}
    def add_x(fact):
        return fact | {"x"}

    edges = {"a": [("c", add_x)], "b": [("c", None)]}
    facts = fixed_point(
        {"a": frozenset(), "b": frozenset()}, edges, intersect_join
    )
    assert facts["c"] == frozenset()

    # with only the x-holding edge, must-held survives
    facts = fixed_point({"a": frozenset()}, {"a": [("c", add_x)]}, intersect_join)
    assert facts["c"] == frozenset({"x"})


def test_fixed_point_terminates_on_cycles():
    edges = {"a": [("b", None)], "b": [("a", None), ("c", None)]}
    facts = fixed_point({"a": frozenset({"x"})}, edges, intersect_join)
    assert facts == {k: frozenset({"x"}) for k in "abc"}

