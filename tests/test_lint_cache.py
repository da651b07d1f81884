"""Incremental lint cache: reuse, invalidation, corruption, parallelism.

All speed claims are asserted through the ``analysis.cache.*`` telemetry
counters rather than wall-clock: a fully-warm run must do *zero* module
passes (every per-file entry hits) and skip the whole-program pass
(project section hits) — strictly less than 1/5 of the cold run's work,
without the flakiness of timing assertions.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, permissive_config
from repro.telemetry import counters

#: A tiny project with an import chain (a → b → c) plus a bystander.
PROJECT = {
    "pkg/__init__.py": "",
    "pkg/c.py": (
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n"
    ),
    "pkg/b.py": "from pkg.c import stamp\n\n\ndef wrap():\n    return stamp()\n",
    "pkg/a.py": "from pkg.b import wrap\n\n\ndef top():\n    return wrap()\n",
    "pkg/d.py": "def lonely():\n    return 0\n",
}


@pytest.fixture()
def project(tmp_path):
    for rel, source in PROJECT.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def _lint(project, cache, **kwargs):
    return lint_paths(
        [project], config=permissive_config(), cache_path=cache, **kwargs
    )


def test_warm_run_reuses_every_file_and_the_project_pass(project, tmp_path):
    cache = tmp_path / "cache.json"
    counters.reset()
    cold = _lint(project, cache)
    assert cold.cache.misses == cold.files_scanned
    assert cold.cache.hits == 0 and not cold.cache.project_hit
    assert counters.value("analysis.cache.misses") == cold.files_scanned

    counters.reset()
    warm = _lint(project, cache)
    # Zero re-lints and no whole-program re-run: far past the 5x bar.
    assert warm.cache.hits == warm.files_scanned
    assert warm.cache.misses == 0 and warm.cache.project_hit
    assert counters.value("analysis.cache.hits") == warm.files_scanned
    assert counters.value("analysis.cache.misses") == 0
    assert counters.value("analysis.cache.project_hits") == 1

    # Cached results replay identically (c.py's DET002 included).
    assert warm.findings == cold.findings
    assert [f.rule for f in warm.findings] == ["DET002"]


def test_editing_a_module_relints_it_and_its_importers_only(project, tmp_path):
    cache = tmp_path / "cache.json"
    _lint(project, cache)

    (project / "pkg" / "c.py").write_text(
        "def stamp():\n    return 0.0\n", encoding="utf-8"
    )
    result = _lint(project, cache)
    # c itself is dirty; a and b import it (transitively); __init__ and
    # d are untouched and must be served from the cache.
    assert result.cache.misses == 3
    assert result.cache.hits == 2
    assert result.cache.invalidated == 2
    assert not result.cache.project_hit  # any edit re-runs the graph pass
    assert result.findings == []  # the DET002 in c.py is gone now


def test_bystander_edit_does_not_invalidate_the_chain(project, tmp_path):
    cache = tmp_path / "cache.json"
    _lint(project, cache)
    (project / "pkg" / "d.py").write_text(
        "def lonely():\n    return 1\n", encoding="utf-8"
    )
    result = _lint(project, cache)
    assert result.cache.misses == 1  # d.py only — nothing imports it
    assert result.cache.hits == 4
    assert result.cache.invalidated == 0


def test_config_change_busts_the_whole_cache(project, tmp_path):
    cache = tmp_path / "cache.json"
    _lint(project, cache)
    config = permissive_config().with_overrides(disable=("EXC001",))
    result = lint_paths([project], config=config, cache_path=cache)
    assert result.cache.hits == 0
    assert result.cache.misses == result.files_scanned
    assert not result.cache.project_hit


def test_corrupt_cache_is_ignored_not_fatal(project, tmp_path):
    import json

    cache = tmp_path / "cache.json"
    _lint(project, cache)

    # Structurally corrupt (right schema and ruleset, wrong shapes) and
    # not-even-JSON both start cold without crashing.
    broken = json.loads(cache.read_text(encoding="utf-8"))
    broken["files"] = 42
    for garbage in (json.dumps(broken), "not json at all \x00"):
        cache.write_text(garbage, encoding="utf-8")
        counters.reset()
        result = _lint(project, cache)
        assert [f.rule for f in result.findings] == ["DET002"]
        assert result.cache.hits == 0  # cold start, but no crash
        assert counters.value("analysis.cache.corrupt") == 1

    # ...and the rewritten cache is immediately warm again.
    warm = _lint(project, cache)
    assert warm.cache.hits == warm.files_scanned and warm.cache.project_hit


def test_jobs_output_is_byte_identical_to_serial(project):
    serial = lint_paths([project], config=permissive_config(), jobs=1)
    parallel = lint_paths([project], config=permissive_config(), jobs=4)
    assert parallel.findings == serial.findings
    assert [f.fingerprint for f in parallel.findings] == [
        f.fingerprint for f in serial.findings
    ]
    assert parallel.suppressed == serial.suppressed
    assert parallel.files_scanned == serial.files_scanned


def test_changed_scope_restricts_report_but_keeps_graph(project):
    changed = {(project / "pkg" / "a.py").resolve().as_posix()}
    result = lint_paths(
        [project], config=permissive_config(), changed=changed
    )
    # c.py's DET002 is out of scope; only a.py was linted and reported.
    assert result.findings == []
    assert result.files_linted == 1
    assert result.files_scanned == len(PROJECT)

    changed = {(project / "pkg" / "c.py").resolve().as_posix()}
    result = lint_paths(
        [project], config=permissive_config(), changed=changed
    )
    assert [f.rule for f in result.findings] == ["DET002"]


def test_cache_file_round_trips_suppressions(project, tmp_path):
    (project / "pkg" / "e.py").write_text(
        "import time\n"
        "t = time.time()  # repro: allow[DET002] fixture reason\n",
        encoding="utf-8",
    )
    cache = tmp_path / "cache.json"
    cold = _lint(project, cache)
    warm = _lint(project, cache)
    assert warm.cache.hits == warm.files_scanned
    assert warm.suppressed == cold.suppressed
    assert any(s.rule == "DET002" for _f, s in warm.suppressed)
