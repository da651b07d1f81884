"""The lint driver: walk files, run rules, apply suppressions and baseline.

:func:`lint_paths` is the single entry point used by the CLI, the
pytest gate, and the fixture tests.  The walk is fully deterministic —
files are discovered with a sorted traversal, findings are sorted by
``(file, line, col, rule)`` — because the linter polices a determinism
contract and must honour it itself.

Two passes run per invocation:

* the **module pass** runs every per-module rule over each file in
  isolation (parallelisable with ``jobs``, cacheable per file);
* the **project pass** builds the whole-program
  :class:`~repro.analysis.graph.ProjectGraph` and runs RACE001, which
  needs every module at once (cacheable as a unit, keyed on the digest
  of the entire walk).

Suppression markers anchor to *statements*, not physical lines: a
finding reported inside a multi-line statement is covered by a marker
on (or directly above) the statement's first line, as well as by one on
or directly above the reported line itself.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.cache import (
    CacheStats,
    LintCache,
    compute_dirty,
    file_digest,
    run_module_pass,
)
from repro.analysis.config import LintConfig, default_config, path_matches
from repro.analysis.findings import Finding, LintUsageError
from repro.analysis.rules import (
    module_rules,
    project_rules,
    ruleset_digest_parts,
)
from repro.analysis.suppress import Suppression, parse_suppressions
from repro.analysis.symbols import ModuleContext

__all__ = [
    "LintResult",
    "ModuleRecord",
    "lint_paths",
    "iter_python_files",
    "lint_one_file",
    "build_graph_for_paths",
    "statement_spans",
    "find_suppression",
]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: "list[Finding]" = field(default_factory=list)
    suppressed: "list[tuple[str, Suppression]]" = field(default_factory=list)
    baselined: int = 0
    files_scanned: int = 0
    #: files that actually went through the module pass this run (the
    #: rest were served from the cache or out of ``--changed`` scope).
    files_linted: int = 0
    config: LintConfig = field(default_factory=default_config)
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def errors(self) -> "list[Finding]":
        """Findings at ``error`` severity — the ones that fail the run."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def exit_code(self) -> int:
        """0 when no error-severity findings survived, else 1."""
        return 1 if self.errors else 0


@dataclass
class ModuleRecord:
    """Module-pass output for one file (what the cache stores)."""

    name: str
    findings: "list[Finding]" = field(default_factory=list)
    suppressed: "list[tuple[str, Suppression]]" = field(default_factory=list)
    imports: "list[str]" = field(default_factory=list)
    #: parsed context, kept only when linting ran in-process (a pool
    #: worker drops it rather than pickling a whole AST back).
    context: "ModuleContext | None" = None


def iter_python_files(
    paths: "list[str]", exclude: tuple = ()
) -> "list[tuple[Path, str]]":
    """``(absolute_path, report_name)`` for every ``.py`` under ``paths``.

    ``report_name`` is the path as the user referenced it (relative
    stays relative), which keeps report lines stable across machines.
    The traversal is sorted so runs are byte-identical.
    """
    seen: "set[Path]" = set()
    out: "list[tuple[Path, str]]" = []
    for root in paths:
        root_path = Path(root)
        if not root_path.exists():
            raise LintUsageError(f"path {root!r} does not exist")
        if root_path.is_file():
            candidates = [root_path]
        else:
            candidates = sorted(
                p for p in root_path.rglob("*.py") if p.is_file()
            )
        for path in candidates:
            name = path.as_posix()
            if path_matches(name, exclude):
                continue
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append((path, name))
    return out


def statement_spans(tree: ast.AST) -> "dict[int, int]":
    """Map each line inside a multi-line statement to the statement start.

    Only the *innermost* covering statement counts (a single-line
    statement inside a ten-line ``if`` maps to itself, so a marker on
    the ``if`` head does not blanket-suppress the whole body).
    """
    spans: "dict[int, int]" = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        for lineno in range(node.lineno, end + 1):
            previous = spans.get(lineno)
            if previous is None or node.lineno > previous:
                spans[lineno] = node.lineno
    return spans


def find_suppression(
    table: "dict[int, list[Suppression]]",
    spans: "dict[int, int]",
    line: int,
    rule_id: str,
) -> "Suppression | None":
    """The marker covering ``(line, rule)``, statement-span aware.

    Candidates, in priority order: the reported line, the line above
    it, the first line of the enclosing multi-line statement, and the
    line above that.
    """
    candidates = [line, line - 1]
    start = spans.get(line)
    if start is not None and start != line:
        candidates.extend([start, start - 1])
    seen: "set[int]" = set()
    for candidate in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        for supp in table.get(candidate, ()):
            if supp.rule == rule_id:
                return supp
    return None


def _read_source(path: Path) -> str:
    """The text of ``path``, decoded the way Python decodes a module.

    :func:`tokenize.detect_encoding` honours a PEP 263 coding cookie and
    a UTF-8 BOM.  Bytes that do not decode raise :class:`SyntaxError`,
    as they do on import.
    """
    data = path.read_bytes()
    encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise SyntaxError(str(exc), (str(path), lineno, 1, None)) from exc


def lint_one_file(path: Path, name: str, config: LintConfig) -> ModuleRecord:
    """Run the module pass over one file (also the pool-worker body)."""
    try:
        source = _read_source(path)
        tree = ast.parse(source, filename=name)
    except OSError as exc:
        raise LintUsageError(f"cannot read {name!r}: {exc}") from exc
    except SyntaxError as exc:
        return ModuleRecord(
            name=name,
            findings=[
                Finding(
                    file=name,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="SYNTAX",
                    message=f"file does not parse: {exc.msg}",
                )
            ],
        )
    from repro.analysis.graph import _collect_module, module_name_for

    module = ModuleContext(name, source, tree)
    table = parse_suppressions(module.lines)
    spans = statement_spans(tree)
    info = _collect_module(module_name_for(name), name, module)
    record = ModuleRecord(
        name=name,
        imports=sorted({target for _, _, target in info.import_sites}),
        context=module,
    )
    occurrence: "dict[tuple[str, str], int]" = {}
    for rule in module_rules():
        rule_cfg = config.rule(rule.id)
        if not rule_cfg.enabled or path_matches(name, rule_cfg.allow_paths):
            continue
        for line, col, message in rule.run(module):
            marker = find_suppression(table, spans, line, rule.id)
            if marker is not None and marker.valid:
                record.suppressed.append((name, marker))
                continue
            if marker is not None:
                message += " (suppression ignored: missing reason)"
            line_text = module.line_text(line)
            index = occurrence.get((rule.id, line_text.strip()), 0)
            occurrence[(rule.id, line_text.strip())] = index + 1
            record.findings.append(
                Finding(
                    file=name,
                    line=line,
                    col=col,
                    rule=rule.id,
                    message=message,
                    severity=rule_cfg.severity,
                ).with_fingerprint(line_text, index)
            )
    return record


def _parse_context(path: Path, name: str) -> "ModuleContext | None":
    """Parse one file for the project pass (``None`` if it cannot parse —
    the module pass already reported the SYNTAX finding)."""
    try:
        source = _read_source(path)
        tree = ast.parse(source, filename=name)
    except (OSError, SyntaxError):
        return None
    return ModuleContext(name, source, tree)


def build_graph_for_paths(paths: "list[str]", config: "LintConfig | None" = None):
    """Build the :class:`ProjectGraph` over a walk (the ``--graph`` dump)."""
    from repro.analysis.graph import build_project_graph

    config = config if config is not None else default_config()
    modules = []
    for path, name in iter_python_files([os.fspath(p) for p in paths], config.exclude):
        context = _parse_context(path, name)
        if context is not None:
            modules.append((name, context))
    return build_project_graph(modules)


def _run_project_pass(
    files: "list[tuple[Path, str]]",
    contexts: "dict[str, ModuleContext]",
    config: LintConfig,
) -> "tuple[list[Finding], list[tuple[str, Suppression]]]":
    """Run every whole-program rule over the graph of ``files``."""
    from repro.analysis.graph import build_project_graph

    modules = []
    for path, name in files:
        context = contexts.get(name)
        if context is None:
            context = _parse_context(path, name)
        if context is not None:
            modules.append((name, context))
    graph = build_project_graph(modules)

    tables: "dict[str, dict]" = {}
    spans: "dict[str, dict]" = {}
    for name, context in modules:
        tables[name] = parse_suppressions(context.lines)
        spans[name] = statement_spans(context.tree)
    texts = {name: context for name, context in modules}

    findings: "list[Finding]" = []
    suppressed: "list[tuple[str, Suppression]]" = []
    for rule in project_rules():
        rule_cfg = config.rule(rule.id)
        if not rule_cfg.enabled:
            continue
        occurrence: "dict[tuple[str, str], int]" = {}
        for file, line, col, message in rule.run_project(graph):
            if file not in texts or path_matches(file, rule_cfg.allow_paths):
                continue
            marker = find_suppression(tables[file], spans[file], line, rule.id)
            if marker is not None and marker.valid:
                suppressed.append((file, marker))
                continue
            if marker is not None:
                message += " (suppression ignored: missing reason)"
            line_text = texts[file].line_text(line)
            index = occurrence.get((file, line_text.strip()), 0)
            occurrence[(file, line_text.strip())] = index + 1
            findings.append(
                Finding(
                    file=file,
                    line=line,
                    col=col,
                    rule=rule.id,
                    message=message,
                    severity=rule_cfg.severity,
                ).with_fingerprint(line_text, index)
            )
    return findings, suppressed


def _config_digest_parts(config: LintConfig) -> "list[str]":
    parts = [repr(tuple(config.exclude))]
    for rule_id in sorted(config.rules):
        parts.append(f"{rule_id}={config.rules[rule_id]!r}")
    return parts


def _ruleset_digest(config: LintConfig) -> str:
    h = hashlib.sha256()
    for part in ruleset_digest_parts():
        h.update(part.encode("utf-8", "replace"))
        h.update(b"\x00")
    for part in _config_digest_parts(config):
        h.update(part.encode("utf-8", "replace"))
        h.update(b"\x00")
    return h.hexdigest()


def _project_key(
    files: "list[tuple[Path, str]]", digests: "dict[str, str | None]"
) -> str:
    h = hashlib.sha256()
    for _path, name in files:
        h.update(name.encode("utf-8", "replace"))
        h.update(b"\x1f")
        h.update((digests.get(name) or "?").encode("ascii", "replace"))
        h.update(b"\x00")
    return h.hexdigest()


def lint_paths(
    paths: "list[str]",
    config: "LintConfig | None" = None,
    baseline_path: "str | None" = None,
    *,
    jobs: int = 1,
    cache_path: "str | Path | None" = None,
    changed: "set[str] | None" = None,
) -> LintResult:
    """Lint every Python file under ``paths``; see :class:`LintResult`.

    ``jobs`` fans the module pass over a process pool (output is
    byte-identical to serial).  ``cache_path`` enables the incremental
    cache.  ``changed`` restricts the *reported* findings (and the
    module pass) to the named files while still building the
    whole-program graph over the full walk; it disables the cache for
    the run, since a partial report must not overwrite whole-tree
    entries.
    """
    config = config if config is not None else default_config()
    baseline = load_baseline(baseline_path) if baseline_path else set()
    files = iter_python_files([os.fspath(p) for p in paths], config.exclude)

    if changed is not None:
        # Accept report names or absolute paths; work in report names.
        changed = {
            name
            for path, name in files
            if name in changed or path.resolve().as_posix() in changed
        }

    use_cache = cache_path is not None and changed is None
    stats = CacheStats(enabled=use_cache)
    result = LintResult(config=config, cache=stats)
    result.files_scanned = len(files)

    records: "dict[str, tuple[list[Finding], list[tuple[str, Suppression]]]]" = {}
    contexts: "dict[str, ModuleContext]" = {}

    cache: "LintCache | None" = None
    digests: "dict[str, str | None]" = {}
    if use_cache:
        cache = LintCache(cache_path, _ruleset_digest(config))
        digests = {name: file_digest(path) for path, name in files}
        dirty, stats.invalidated = compute_dirty(files, digests, cache)
        to_lint = [(path, name) for path, name in files if name in dirty]
    elif changed is not None:
        to_lint = [(path, name) for path, name in files if name in changed]
    else:
        to_lint = files

    for record in run_module_pass(to_lint, config, jobs):
        records[record.name] = (record.findings, record.suppressed)
        if record.context is not None:
            contexts[record.name] = record.context
        if cache is not None:
            digest = digests.get(record.name)
            if digest is not None:
                cache.store(
                    record.name,
                    digest,
                    record.imports,
                    record.findings,
                    [supp for _file, supp in record.suppressed],
                )
            stats.misses += 1
    result.files_linted = len(to_lint)

    if cache is not None:
        walked = {name for _path, name in files}
        for gone in cache.cached_names() - walked:
            cache.drop(gone)
        for path, name in files:
            if name in records:
                continue
            entry = cache.lookup(name, digests.get(name) or "")
            if entry is None:  # unreadable file raced the walk; lint it now
                record = lint_one_file(path, name, config)
                records[record.name] = (record.findings, record.suppressed)
                if record.context is not None:
                    contexts[record.name] = record.context
                stats.misses += 1
                continue
            records[name] = (
                entry.findings,
                [(name, supp) for supp in entry.suppressed],
            )
            stats.hits += 1

    for _path, name in files:
        found = records.get(name)
        if found is None:
            continue
        result.findings.extend(found[0])
        result.suppressed.extend(found[1])

    # -- whole-program pass --------------------------------------------------
    project_findings: "list[Finding]" = []
    project_suppressed: "list[tuple[str, Suppression]]" = []
    if files:
        key = _project_key(files, digests) if use_cache else ""
        cached_project = cache.project_lookup(key) if cache is not None else None
        if cached_project is not None:
            project_findings, project_suppressed = cached_project
            stats.project_hit = True
        else:
            project_findings, project_suppressed = _run_project_pass(
                files, contexts, config
            )
            if cache is not None:
                cache.project_store(key, project_findings, project_suppressed)
    result.findings.extend(project_findings)
    result.suppressed.extend(project_suppressed)

    if changed is not None:
        result.findings = [f for f in result.findings if f.file in changed]
        result.suppressed = [
            (file, supp) for file, supp in result.suppressed if file in changed
        ]

    if cache is not None:
        cache.save()
    stats.publish()

    if baseline:
        kept, baselined = apply_baseline(result.findings, baseline)
        result.findings = kept
        result.baselined = len(baselined)
    result.findings.sort()
    return result
