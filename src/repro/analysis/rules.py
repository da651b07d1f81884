"""The rule registry: id → (summary, rationale, checker, scope).

Checkers register themselves with the :func:`rule` (per-module) or
:func:`project_rule` (whole-program) decorator; duplicate ids are
rejected loudly (the same hygiene the strategy/benchmark registries
enforce — a silently shadowed rule would lint nothing while claiming
coverage).

A module-scope checker is a callable taking a
:class:`~repro.analysis.symbols.ModuleContext` and yielding
``(lineno, col, message)`` triples.  A project-scope checker takes the
:class:`~repro.analysis.graph.ProjectGraph` built over the whole walk
and yields ``(file, lineno, col, message)`` — it sees every module at
once, which is what RACE001's call-path analysis needs.

Checker docstrings carry the ``Violating::`` / ``Clean::`` example
blocks that ``repro lint --explain RULE`` renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.symbols import ModuleContext

__all__ = [
    "Rule",
    "rule",
    "project_rule",
    "all_rules",
    "module_rules",
    "project_rules",
    "get_rule",
    "known_rule_ids",
]

Checker = Callable[[ModuleContext], Iterable[tuple]]

_RULES: "dict[str, Rule]" = {}


@dataclass(frozen=True)
class Rule:
    """One lint rule: identity, human rationale, checker, and scope."""

    id: str
    summary: str
    rationale: str
    checker: Checker
    scope: str = "module"

    def run(self, module: ModuleContext) -> "list[tuple[int, int, str]]":
        """Raw ``(line, col, message)`` hits of this module rule on one file."""
        return list(self.checker(module))

    def run_project(self, graph) -> "list[tuple[str, int, int, str]]":
        """Raw ``(file, line, col, message)`` hits of this project rule."""
        return list(self.checker(graph))


def _register(rule_id: str, summary: str, rationale: str, scope: str):
    def register(checker: Checker) -> Checker:
        if rule_id in _RULES:
            raise ValueError(f"lint rule {rule_id!r} is already registered")
        # repro: allow[SPAWN001] rule registry populated by decorators at import time
        _RULES[rule_id] = Rule(
            id=rule_id,
            summary=summary,
            rationale=rationale,
            checker=checker,
            scope=scope,
        )
        return checker

    return register


def rule(rule_id: str, summary: str, rationale: str = "") -> "Callable[[Checker], Checker]":
    """Decorator registering a per-module ``checker`` under ``rule_id``.

    Re-registering an id raises — rule ids are part of the suppression
    and baseline contract and must stay unambiguous.
    """
    return _register(rule_id, summary, rationale, "module")


def project_rule(
    rule_id: str, summary: str, rationale: str = ""
) -> "Callable[[Checker], Checker]":
    """Decorator registering a whole-program ``checker`` under ``rule_id``."""
    return _register(rule_id, summary, rationale, "project")


def all_rules() -> "tuple[Rule, ...]":
    """Every registered rule, sorted by id."""
    _ensure_loaded()
    return tuple(_RULES[k] for k in sorted(_RULES))


def module_rules() -> "tuple[Rule, ...]":
    """The per-module rules, sorted by id."""
    return tuple(r for r in all_rules() if r.scope == "module")


def project_rules() -> "tuple[Rule, ...]":
    """The whole-program rules, sorted by id."""
    return tuple(r for r in all_rules() if r.scope == "project")


def get_rule(rule_id: str) -> Rule:
    """Look one rule up by id (:class:`KeyError` on unknown ids)."""
    _ensure_loaded()
    return _RULES[rule_id]


def known_rule_ids() -> "tuple[str, ...]":
    """Sorted ids of every registered rule."""
    _ensure_loaded()
    return tuple(sorted(_RULES))


def ruleset_digest_parts() -> "tuple[str, ...]":
    """Stable description of the registered rule set, for the cache key."""
    _ensure_loaded()
    return tuple(
        f"{r.id}\x1f{r.scope}\x1f{r.summary}\x1f{r.rationale}"
        for r in all_rules()
    )


def _ensure_loaded() -> None:
    # Import for the side effect of registration; deferred to avoid the
    # checkers ↔ registry import cycle.
    import repro.analysis.checkers  # noqa: F401
    import repro.analysis.graph_rules  # noqa: F401
