"""Framework mechanics: suppressions, baseline, fingerprints, config.

Also pins the shared registry-hygiene contract (satellite of the lint
PR): the rule registry, the sampling-strategy registry, and the
benchmark registry all reject duplicate registration loudly instead of
silently shadowing.
"""

import json

import pytest

from repro.analysis import (
    LintUsageError,
    lint_paths,
    permissive_config,
)
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.findings import Finding
from repro.analysis.suppress import parse_suppressions, suppression_for


def _lint(tmp_path, source, name="mod.py", **kwargs):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return lint_paths([path], config=permissive_config(), **kwargs)


# -- suppressions ------------------------------------------------------------


def test_reasonless_suppression_does_not_suppress(tmp_path):
    result = _lint(
        tmp_path, "import time\nt = time.time()  # repro: allow[DET002]\n"
    )
    assert [f.rule for f in result.findings] == ["DET002"]
    assert "missing reason" in result.findings[0].message
    assert result.suppressed == []


def test_suppression_on_line_above_covers_next_line(tmp_path):
    result = _lint(
        tmp_path,
        "import time\n# repro: allow[DET002] scheduling only\nt = time.time()\n",
    )
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_suppression_does_not_reach_two_lines_down(tmp_path):
    result = _lint(
        tmp_path,
        "import time\n# repro: allow[DET002] too far away\n\nt = time.time()\n",
    )
    assert [f.rule for f in result.findings] == ["DET002"]


def test_suppression_for_other_rule_does_not_silence(tmp_path):
    result = _lint(
        tmp_path,
        "import time\nt = time.time()  # repro: allow[DET004] wrong rule\n",
    )
    assert [f.rule for f in result.findings] == ["DET002"]


def test_two_markers_share_one_line(tmp_path):
    result = _lint(
        tmp_path,
        "import os, time\n"
        "t = (time.time(), os.getenv('X'))"
        "  # repro: allow[DET002] fixture allow[DET004] fixture\n",
    )
    assert result.findings == []
    assert sorted(s.rule for _, s in result.suppressed) == ["DET002", "DET004"]


def test_parse_suppressions_table_shape():
    table = parse_suppressions(
        ["x = 1", "y = 2  # repro: allow[IO001] because reasons"]
    )
    assert set(table) == {2}
    supp = suppression_for(table, 2, "IO001")
    assert supp is not None and supp.valid and supp.reason == "because reasons"
    assert suppression_for(table, 3, "IO001") is not None  # line below
    assert suppression_for(table, 4, "IO001") is None


def test_suppression_above_multiline_statement_covers_inner_lines(tmp_path):
    """The marker anchors to the statement, not the physical line."""
    result = _lint(
        tmp_path,
        "import time\n"
        "# repro: allow[DET002] scheduling only\n"
        "stamp = (\n"
        "    1,\n"
        "    time.time(),\n"
        ")\n",
    )
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_suppression_on_multiline_statement_head_covers_inner_lines(tmp_path):
    result = _lint(
        tmp_path,
        "import time\n"
        "stamp = (  # repro: allow[DET002] scheduling only\n"
        "    time.time(),\n"
        ")\n",
    )
    assert result.findings == []
    assert len(result.suppressed) == 1


def test_suppression_on_block_head_does_not_blanket_the_body(tmp_path):
    """A marker above an ``if`` covers the ``if`` line, not every
    single-line statement nested inside the block."""
    result = _lint(
        tmp_path,
        "import time\n"
        "# repro: allow[DET002] head only\n"
        "if True:\n"
        "    x = 1\n"
        "    t = time.time()\n",
    )
    assert [f.rule for f in result.findings] == ["DET002"]


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_survives_line_shift(tmp_path):
    a = _lint(tmp_path, "import time\nt = time.time()\n", name="a.py")
    b = _lint(
        tmp_path, "import time\n\n\n\nt = time.time()\n", name="a.py"
    )
    (fa,), (fb,) = a.findings, b.findings
    assert fa.line != fb.line
    assert fa.fingerprint == fb.fingerprint


def test_fingerprint_distinguishes_identical_lines(tmp_path):
    result = _lint(
        tmp_path, "import time\nt = time.time()\nu = time.time()\nt = time.time()\n"
    )
    prints = [f.fingerprint for f in result.findings]
    assert len(prints) == 3 and len(set(prints)) == 3


# -- baseline ----------------------------------------------------------------


def _io_finding(file="pkg/m.py"):
    return Finding(
        file=file, line=3, col=4, rule="IO001", message="raw write"
    ).with_fingerprint("    open(p, 'w')", 0)


def test_baseline_round_trip_absorbs_finding(tmp_path):
    src = "def f(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n"
    first = _lint(tmp_path, src, name="m.py")
    assert [f.rule for f in first.findings] == ["IO001"]

    baseline_file = tmp_path / "baseline.json"
    assert write_baseline(str(baseline_file), first.findings) == 1

    again = _lint(
        tmp_path, src, name="m.py", baseline_path=str(baseline_file)
    )
    assert again.findings == []
    assert again.baselined == 1
    assert again.exit_code == 0


def test_baseline_unmatches_when_offending_line_changes(tmp_path):
    baseline_file = tmp_path / "baseline.json"
    first = _lint(
        tmp_path,
        "def f(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n",
        name="m.py",
    )
    write_baseline(str(baseline_file), first.findings)
    changed = _lint(
        tmp_path,
        "def f(p):\n    with open(p, 'w+') as fh:\n        fh.write('y')\n",
        name="m.py",
        baseline_path=str(baseline_file),
    )
    assert [f.rule for f in changed.findings] == ["IO001"]
    assert changed.baselined == 0


def test_write_baseline_refuses_determinism_rules(tmp_path):
    det = Finding(
        file="m.py", line=1, col=0, rule="DET002", message="clock"
    ).with_fingerprint("t = time.time()", 0)
    with pytest.raises(LintUsageError, match="may not be baselined"):
        write_baseline(str(tmp_path / "b.json"), [det])


@pytest.mark.parametrize("rule_id", ["DET002", "SPAWN001"])
def test_load_baseline_refuses_crafted_determinism_entries(tmp_path, rule_id):
    path = tmp_path / "b.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "findings": [
                    {"file": "m.py", "rule": rule_id, "fingerprint": "ab" * 8}
                ],
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(LintUsageError, match="may not be baselined"):
        load_baseline(str(path))


def test_load_baseline_rejects_wrong_schema(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"schema": 99, "findings": []}', encoding="utf-8")
    with pytest.raises(LintUsageError, match="schema"):
        load_baseline(str(path))


# -- config overrides --------------------------------------------------------


def test_select_disables_every_other_rule(tmp_path):
    src = "import time, os\nt = time.time()\nv = os.getenv('X')\n"
    config = permissive_config().with_overrides(select=("DET004",))
    path = tmp_path / "m.py"
    path.write_text(src, encoding="utf-8")
    result = lint_paths([path], config=config)
    assert [f.rule for f in result.findings] == ["DET004"]


def test_disable_drops_one_rule(tmp_path):
    src = "import time, os\nt = time.time()\nv = os.getenv('X')\n"
    config = permissive_config().with_overrides(disable=("DET002",))
    path = tmp_path / "m.py"
    path.write_text(src, encoding="utf-8")
    result = lint_paths([path], config=config)
    assert [f.rule for f in result.findings] == ["DET004"]


def test_severity_warning_does_not_fail_the_run(tmp_path):
    config = permissive_config().with_overrides(
        severities={"DET002": "warning"}
    )
    path = tmp_path / "m.py"
    path.write_text("import time\nt = time.time()\n", encoding="utf-8")
    result = lint_paths([path], config=config)
    assert [f.severity for f in result.findings] == ["warning"]
    assert result.exit_code == 0


def test_unknown_rule_id_raises():
    with pytest.raises(LintUsageError, match="unknown rule id"):
        permissive_config().with_overrides(disable=("NOPE999",))


def test_unknown_severity_raises():
    from repro.analysis.config import RuleConfig

    with pytest.raises(LintUsageError, match="unknown severity"):
        RuleConfig(severity="fatal")


def test_missing_path_is_a_usage_error():
    with pytest.raises(LintUsageError, match="does not exist"):
        lint_paths(["definitely/not/a/path"], config=permissive_config())


# -- registry hygiene (lint registry + domain registries) --------------------


def test_rule_registry_rejects_duplicate_ids():
    from repro.analysis.rules import rule

    with pytest.raises(ValueError, match="already registered"):
        rule("DET002", "impostor")(lambda module: [])


def test_sampling_registry_rejects_duplicate_strategy():
    from repro.sampling.registry import (
        available_strategies,
        get_strategy,
        register_strategy,
    )

    name = available_strategies()[0]
    with pytest.raises(ValueError, match="already registered"):
        register_strategy(name, lambda alpha: None)
    # The loud path must not have clobbered the real factory.
    assert get_strategy(name, alpha=0.05) is not None


def test_sampling_registry_overwrite_is_explicit():
    from repro.sampling import registry

    sentinel_calls = []
    register = registry.register_strategy
    register("_lint_test_dup", lambda alpha: sentinel_calls.append(alpha))
    try:
        with pytest.raises(ValueError, match="overwrite=True"):
            register("_lint_test_dup", lambda alpha: None)
        register("_lint_test_dup", lambda alpha: None, overwrite=True)
    finally:
        registry._REGISTRY.pop("_lint_test_dup", None)


def test_workload_registry_rejects_duplicate_benchmark():
    from repro.workloads import all_benchmarks
    from repro.workloads.registry import register_benchmark

    name = all_benchmarks()[0]
    with pytest.raises(ValueError, match="already registered"):
        register_benchmark(name, lambda: None)
