"""Text and JSON rendering of a lint run.

Text format (one line per finding, editor-clickable)::

    src/repro/foo.py:41:8 DET002 wall-clock read time.time() ...

JSON format — the machine interface CI artifacts and editors consume.
Schema (``JSON_SCHEMA_VERSION = 1``)::

    {
      "schema": 1,                       # bumped on incompatible change
      "tool": "repro.analysis",
      "paths": ["src", ...],             # the roots that were walked
      "files_scanned": 84,
      "rules": {                         # every *enabled* rule
        "DET002": {"summary": str, "severity": "error"|"warning"},
        ...
      },
      "findings": [                      # sorted (file, line, col, rule)
        {"file": str, "line": int, "col": int, "rule": str,
         "severity": str, "message": str, "fingerprint": str},
        ...
      ],
      "suppressed": [                    # waived by inline allow[...] markers
        {"file": str, "line": int, "rule": str, "reason": str}, ...
      ],
      "baselined": int,                  # findings absorbed by the baseline
      "summary": {"total": int, "errors": int, "warnings": int,
                  "by_rule": {rule_id: int, ...}}
    }

:func:`findings_from_json` is the inverse of the ``findings`` array —
``findings_from_json(json.loads(render_json(result)))`` round-trips to
the exact :class:`~repro.analysis.findings.Finding` objects, which the
test suite pins.
"""

from __future__ import annotations

import json

from repro.analysis.findings import Finding

__all__ = [
    "JSON_SCHEMA_VERSION",
    "render_text",
    "render_json",
    "findings_from_json",
]

JSON_SCHEMA_VERSION = 1


def render_text(result) -> str:
    """Human/editor-facing report: one finding per line plus a summary."""
    lines = [finding.render() for finding in result.findings]
    n_err = sum(1 for f in result.findings if f.severity == "error")
    n_warn = len(result.findings) - n_err
    summary = (
        f"{len(result.findings)} finding(s) ({n_err} error, {n_warn} warning) "
        f"in {result.files_scanned} file(s); "
        f"{len(result.suppressed)} suppressed, {result.baselined} baselined"
    )
    if lines:
        lines.append(summary)
    else:
        lines = [f"clean: {summary}"]
    return "\n".join(lines)


def render_json(result, paths: "list[str]") -> str:
    """Machine-facing report (schema in the module docstring)."""
    from repro.analysis.rules import all_rules

    by_rule: "dict[str, int]" = {}
    for finding in result.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "schema": JSON_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "paths": [str(p) for p in paths],
        "files_scanned": result.files_scanned,
        "rules": {
            r.id: {
                "summary": r.summary,
                "severity": result.config.rule(r.id).severity,
            }
            for r in all_rules()
            if result.config.rule(r.id).enabled
        },
        "findings": [
            {
                "file": f.file,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "severity": f.severity,
                "message": f.message,
                "fingerprint": f.fingerprint,
            }
            for f in result.findings
        ],
        "suppressed": [
            {"file": s_file, "line": s.line, "rule": s.rule, "reason": s.reason}
            for s_file, s in result.suppressed
        ],
        "baselined": result.baselined,
        "summary": {
            "total": len(result.findings),
            "errors": sum(1 for f in result.findings if f.severity == "error"),
            "warnings": sum(
                1 for f in result.findings if f.severity == "warning"
            ),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def findings_from_json(payload: "dict | str") -> "list[Finding]":
    """Reconstruct :class:`Finding` objects from a JSON report."""
    if isinstance(payload, str):
        payload = json.loads(payload)
    return [
        Finding(
            file=entry["file"],
            line=entry["line"],
            col=entry["col"],
            rule=entry["rule"],
            message=entry["message"],
            severity=entry["severity"],
            fingerprint=entry["fingerprint"],
        )
        for entry in payload["findings"]
    ]
