"""Static reproducibility lint for the repro stack.

``repro.analysis`` parses source trees with :mod:`ast`, resolves a
lightweight per-module symbol table, and checks a registry of rules
against the repo's determinism and concurrency contracts — result paths
read no wall clocks (DET002) or ambient environment (DET004),
worker-visible module state is lock-guarded or justified (SPAWN001),
telemetry names are literal and namespace-disciplined (TEL001), file
writes go through the journal/atomic helpers (IO001), no handler
swallows exceptions silently (EXC001), and no generator parameter is
drawn on only one branch path (FLOW002).

On top of the per-module rules sits a whole-program pass: the
:mod:`~repro.analysis.graph` module builds a project-wide import graph
and a resolved intra-package call graph, and RACE001 runs a must-hold
dataflow over it to find shared state touched on thread-reachable paths
without the guarding lock.  Results are cached incrementally
(:mod:`~repro.analysis.cache`) with content-hash keys and transitive
invalidation through the import graph.

Run it as ``repro lint`` or ``python -m repro.analysis [paths...]``;
the pytest gate ``tests/test_lint_clean.py`` keeps ``src/repro``
violation-free.  See DESIGN.md §2f for the rule table and the
``# repro: allow[RULE] reason`` suppression grammar, and §2k for the
whole-program analysis design.
"""

from repro.analysis.config import (
    LintConfig,
    RuleConfig,
    default_config,
    permissive_config,
)
from repro.analysis.findings import Finding, LintUsageError
from repro.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    findings_from_json,
    render_json,
    render_text,
)
from repro.analysis.rules import (
    all_rules,
    get_rule,
    known_rule_ids,
    module_rules,
    project_rules,
)
from repro.analysis.runner import (
    LintResult,
    build_graph_for_paths,
    lint_paths,
)
from repro.analysis.cli import main

__all__ = [
    "Finding",
    "LintUsageError",
    "LintConfig",
    "RuleConfig",
    "LintResult",
    "lint_paths",
    "build_graph_for_paths",
    "default_config",
    "permissive_config",
    "all_rules",
    "get_rule",
    "known_rule_ids",
    "module_rules",
    "project_rules",
    "render_text",
    "render_json",
    "findings_from_json",
    "JSON_SCHEMA_VERSION",
    "main",
]
