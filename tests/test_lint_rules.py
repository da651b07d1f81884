"""Per-rule behaviour of the reproducibility checkers.

Two layers: the seeded-violation fixture package
(``tests/fixtures/lintpkg`` — one active violation and one suppressed
twin per rule) pins the end-to-end contract "each rule fires exactly
once and each suppression silences exactly its rule"; targeted
``tmp_path`` snippets pin the trickier per-checker semantics.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, permissive_config
from repro.analysis.rules import known_rule_ids

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lintpkg"
RULE_IDS = (
    "DET002",
    "DET004",
    "SPAWN001",
    "TEL001",
    "IO001",
    "EXC001",
    "FLOW002",
    "RACE001",
)


@pytest.fixture(scope="module")
def fixture_result():
    return lint_paths([FIXTURES], config=permissive_config())


def test_registry_exposes_exactly_the_contract_rules():
    assert known_rule_ids() == tuple(sorted(RULE_IDS))


def test_fixture_package_yields_one_finding_per_rule(fixture_result):
    """8 seeded violations, 8 findings — nothing extra, nothing missed."""
    fired = sorted(f.rule for f in fixture_result.findings)
    assert fired == sorted(RULE_IDS)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_exactly_once_in_its_module(fixture_result, rule_id):
    hits = [f for f in fixture_result.findings if f.rule == rule_id]
    assert len(hits) == 1
    assert hits[0].file.endswith(f"{rule_id.lower()}.py")
    assert hits[0].line > 0 and hits[0].severity == "error"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_suppressed_twin_silences_exactly_its_rule(fixture_result, rule_id):
    waived = [
        (f, s) for f, s in fixture_result.suppressed if s.rule == rule_id
    ]
    assert len(waived) == 1
    file, supp = waived[0]
    assert file.endswith(f"{rule_id.lower()}.py")
    assert supp.reason  # the grammar makes the reason mandatory


def _lint_source(tmp_path, source, name="snippet.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return lint_paths([path], config=permissive_config())


def _rules(result):
    return [f.rule for f in result.findings]


# -- DET002 ------------------------------------------------------------------


def test_det002_datetime_now(tmp_path):
    result = _lint_source(
        tmp_path, "import datetime\nstamp = datetime.datetime.now()\n"
    )
    assert _rules(result) == ["DET002"]


def test_det002_from_import_alias(tmp_path):
    result = _lint_source(
        tmp_path, "from time import monotonic\n\n\ndef f():\n    return monotonic()\n"
    )
    assert _rules(result) == ["DET002"]


# -- DET004 ------------------------------------------------------------------


def test_det004_from_import_environ(tmp_path):
    result = _lint_source(
        tmp_path, "from os import environ\nhome = environ.get('HOME')\n"
    )
    assert _rules(result) == ["DET004"]


def test_det004_os_getenv(tmp_path):
    result = _lint_source(tmp_path, "import os\nv = os.getenv('X')\n")
    assert _rules(result) == ["DET004"]


# -- SPAWN001 ----------------------------------------------------------------


def test_spawn001_global_rebind(tmp_path):
    result = _lint_source(
        tmp_path,
        "_FLAG = False\n\n\ndef flip():\n    global _FLAG\n    _FLAG = True\n",
    )
    assert _rules(result) == ["SPAWN001"]


def test_spawn001_import_time_mutation_passes(tmp_path):
    result = _lint_source(
        tmp_path, "_TABLE = {}\n_TABLE['a'] = 1\n_TABLE.update(b=2)\n"
    )
    assert _rules(result) == []


def test_spawn001_lock_guarded_mutation_passes(tmp_path):
    result = _lint_source(
        tmp_path,
        "import threading\n\n_T = {}\n_L = threading.Lock()\n\n\n"
        "def put(k, v):\n    with _L:\n        _T[k] = v\n",
    )
    assert _rules(result) == []


# -- TEL001 ------------------------------------------------------------------


def test_tel001_computed_name(tmp_path):
    result = _lint_source(
        tmp_path,
        "from repro.telemetry import counters\n\n\n"
        "def f(kind):\n    counters.inc('engine.' + kind)\n",
    )
    assert _rules(result) == ["TEL001"]
    assert "string literal" in result.findings[0].message


def test_tel001_in_grammar_literal_passes(tmp_path):
    result = _lint_source(
        tmp_path,
        "from repro.telemetry import counters\n\n\n"
        "def f():\n    counters.inc('forest.nodes_grown')\n",
    )
    assert _rules(result) == []


# -- IO001 -------------------------------------------------------------------


def test_io001_path_write_text(tmp_path):
    result = _lint_source(
        tmp_path,
        "from pathlib import Path\n\n\n"
        "def f(p):\n    Path(p).write_text('x')\n",
    )
    assert _rules(result) == ["IO001"]


def test_io001_read_modes_pass(tmp_path):
    result = _lint_source(
        tmp_path,
        "def f(p):\n    with open(p, 'rb') as fh:\n        return fh.read()\n",
    )
    assert _rules(result) == []


# -- EXC001 ------------------------------------------------------------------


def test_exc001_bare_except(tmp_path):
    result = _lint_source(
        tmp_path,
        "def f():\n    try:\n        return 1\n    except:\n        return 0\n",
    )
    assert _rules(result) == ["EXC001"]
    assert "bare" in result.findings[0].message


def test_exc001_handled_exception_passes(tmp_path):
    result = _lint_source(
        tmp_path,
        "def f():\n    try:\n        return int('x')\n"
        "    except ValueError:\n        return -1\n",
    )
    assert _rules(result) == []


@pytest.mark.parametrize(
    "source, rules",
    [
        (b"def broken(:\n", ["SYNTAX"]),
        ('# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n'.encode("latin-1"), []),
        (b'NAME = "caf\xe9"\n', ["SYNTAX"]),
    ],
    ids=["syntax-error", "latin-1-cookie", "undecodable"],
)
def test_syntax_error_is_reported_not_raised(tmp_path, source, rules):
    path = tmp_path / "snippet.py"
    path.write_bytes(source)
    result = lint_paths([path], config=permissive_config())
    assert _rules(result) == rules
    assert result.exit_code == (1 if rules else 0)
