"""Text rendering of experiment results.

matplotlib is not available in this environment, so every figure is
regenerated as the *series it plots*: aligned numeric columns plus a coarse
ASCII trend line, exactly enough to read off "who wins, by how much, where
the crossovers fall".  JSON dumps are provided for external plotting.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "format_table",
    "series_table",
    "sparkline",
    "dump_json",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append("  ".join(r[i].rjust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # nan
            return "nan"
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3g}"
        return f"{cell:.4f}".rstrip("0").rstrip(".")
    return str(cell)


def sparkline(values: np.ndarray, log: bool = False) -> str:
    """One-line trend rendering of a series."""
    v = np.asarray(values, dtype=np.float64)
    if len(v) == 0:
        return ""
    if log:
        v = np.log10(np.maximum(v, 1e-30))
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-12:
        return _SPARK_CHARS[0] * len(v)
    idx = ((v - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)).round().astype(int)
    return "".join(_SPARK_CHARS[i] for i in idx)


def series_table(
    x: np.ndarray,
    series: Mapping[str, np.ndarray],
    x_label: str,
    value_format: str = "{:.4f}",
    max_rows: int = 12,
    title: str | None = None,
) -> str:
    """Aligned multi-series table subsampled to ``max_rows`` x-positions.

    This is the textual equivalent of one figure panel: a column per
    strategy, a row per sampled x position, plus a sparkline row showing
    each full series' trend.
    """
    x = np.asarray(x)
    n = len(x)
    for name, v in series.items():
        if len(v) != n:
            raise ValueError(f"series {name!r} has {len(v)} points, x has {n}")
    if n <= max_rows:
        pick = np.arange(n)
    else:
        pick = np.unique(np.linspace(0, n - 1, max_rows).round().astype(int))
    headers = [x_label] + list(series)
    rows = []
    for i in pick:
        rows.append(
            [_fmt(x[i].item() if hasattr(x[i], "item") else x[i])]
            + [value_format.format(float(series[s][i])) for s in series]
        )
    rows.append(["trend"] + [sparkline(series[s]) for s in series])
    return format_table(headers, rows, title=title)


def dump_json(obj: dict, path: str) -> None:
    """Persist a results dictionary as JSON, atomically.

    Routed through :func:`repro.engine.store.atomic_write_text` so an
    interrupted run can never leave a torn results file behind (the
    IO001 lint contract).  Deferred import: rendering helpers stay
    usable without pulling the engine in.
    """
    from repro.engine.store import atomic_write_text

    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True))
