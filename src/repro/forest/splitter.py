"""Exact best-split search for regression trees (MSE criterion).

For a node with samples ``(X, y)`` and a candidate feature ``f`` the CART
criterion picks the threshold minimising

.. math:: SSE_L + SSE_R = \\sum_L (y - \\bar y_L)^2 + \\sum_R (y - \\bar y_R)^2

Using prefix sums of ``y`` and ``y^2`` over the feature-sorted node this is
:math:`SSE = \\sum y^2 - (\\sum y)^2 / n` per side.  The search is fully
vectorised *across candidate features as well as thresholds*.
:func:`best_split` argsorts the ``(n, m)`` candidate block per call; it is
the reference the presorted growers in :mod:`repro.forest.tree` are held
to, bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Split", "best_split", "sse"]

#: Gains below this are treated as numerical noise, not real splits.
_MIN_GAIN = 1e-12


class Split(NamedTuple):
    """The outcome of a split search on one node."""

    feature: int
    threshold: float
    gain: float  # SSE reduction achieved by the split (>= 0)
    left_mask: np.ndarray  # boolean mask over the node's samples


def sse(y: np.ndarray) -> float:
    """Sum of squared errors of ``y`` around its mean (node impurity)."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        return 0.0
    return float(np.sum(y * y) - (np.sum(y) ** 2) / len(y))


def _search_sorted_block(
    Fs: np.ndarray, Ys: np.ndarray, min_samples_leaf: int
) -> "tuple[int, float, float] | None":
    """Prefix-sum split search over a feature-sorted block.

    ``Fs``/``Ys`` are ``(n, m)``: column ``j`` holds the node's feature
    values / targets in ascending feature-``j`` order.  Returns
    ``(column, threshold, gain)`` for the best valid split, or ``None``.
    """
    n = len(Ys)
    lo, hi = min_samples_leaf, n - min_samples_leaf  # split position i: left=[0,i)
    if lo > hi:
        return None

    csum = np.cumsum(Ys, axis=0)
    csq = np.cumsum(Ys * Ys, axis=0)
    total_sum = csum[-1]  # (m,)
    total_sq = csq[-1]

    # Candidate positions i in [lo, hi]; left stats use row i-1 of prefixes.
    n_l = np.arange(lo, hi + 1, dtype=np.float64)[:, None]  # (k, 1)
    s_l = csum[lo - 1 : hi]  # (k, m)
    q_l = csq[lo - 1 : hi]
    n_r = n - n_l
    s_r = total_sum[None, :] - s_l
    q_r = total_sq[None, :] - q_l
    combined = (q_l - s_l * s_l / n_l) + (q_r - s_r * s_r / n_r)

    # A position is valid only where the sorted feature value changes.
    valid = Fs[lo : hi + 1] != Fs[lo - 1 : hi]
    if not valid.any():
        return None
    combined = np.where(valid, combined, np.inf)

    flat = int(np.argmin(combined))
    k, m = combined.shape
    pos, col = divmod(flat, m)
    best_combined = float(combined[pos, col])
    if not np.isfinite(best_combined):
        return None

    node_sse = float(total_sq[col] - total_sum[col] ** 2 / n)
    gain = node_sse - best_combined
    if gain <= _MIN_GAIN:
        return None

    i = lo + pos
    lo_val, hi_val = Fs[i - 1, col], Fs[i, col]
    threshold = 0.5 * (lo_val + hi_val)
    # Guard against midpoints collapsing onto the upper value for adjacent
    # floats: the left side must satisfy `value <= threshold < upper value`.
    if not (lo_val <= threshold < hi_val):
        threshold = lo_val
    return col, float(threshold), float(gain)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int = 1,
) -> Split | None:
    """Search ``feature_indices`` for the split with the largest SSE reduction.

    Returns ``None`` when no candidate feature admits a valid split
    (constant features, too few samples, or no positive gain).  Candidate
    thresholds are midpoints between consecutive distinct sorted values;
    both children must keep at least ``min_samples_leaf`` samples.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    feats = np.asarray(feature_indices, dtype=np.intp)
    n = len(y)
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    if n < 2 * min_samples_leaf or n < 2 or len(feats) == 0:
        return None

    F = X[:, feats]  # (n, m)
    order = np.argsort(F, axis=0, kind="stable")
    cols = np.arange(F.shape[1])[None, :]
    Fs = F[order, cols]  # fancy-indexed take_along_axis (lower overhead)
    Ys = y[order]  # (n, m): y re-sorted per feature column

    hit = _search_sorted_block(Fs, Ys, min_samples_leaf)
    if hit is None:
        return None
    col, threshold, gain = hit

    feature = int(feats[col])
    left_mask = X[:, feature] <= threshold
    if not left_mask.any() or left_mask.all():
        return None
    return Split(feature, threshold, gain, left_mask)
