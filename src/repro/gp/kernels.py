"""Pairwise distances for the GP surrogate's RBF kernel."""

from __future__ import annotations

import numpy as np

__all__ = ["squared_distances"]


def squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape ``(len(A), len(B))``.

    Computed via the expansion ``|a-b|² = |a|² + |b|² - 2a·b`` (one GEMM
    instead of an O(n²d) Python loop), clipped at zero against rounding.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    sq = aa + bb - 2.0 * (A @ B.T)
    return np.maximum(sq, 0.0)
