"""The unlabeled data pool of Algorithm 1.

The paper represents the (enormous) parameter space by a pool of 7000
uniformly sampled configurations; the active learner repeatedly removes
selected entries.  :class:`DataPool` stores the encoded matrix once and
tracks availability with an index set, so "remove" is O(batch) and no matrix
copies are made during the learning loop.

The matrix never changes, and a tuning pool's features take few distinct
values, so the pool also keeps a range-encoded bitmap index of it
(:meth:`DataPool.bitmap_index`): the forest's pool scorer splits a bitset
of pool rows at each tree node instead of walking the rows one by one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["BitmapIndex", "DataPool"]


class BitmapIndex(NamedTuple):
    """A range-encoded bitmap index of a pool matrix ``X`` of ``n`` rows.

    Feature ``f``'s sorted distinct non-NaN values are
    ``levels[starts[f]:starts[f + 1]]`` (``-0.0`` and ``0.0`` are one
    level).  Row ``j`` of ``bits`` is the bitset of the rows whose value of
    that feature is ``<= levels[j]``, NaN rows in none: row ``r`` is bit
    ``r % 64`` of word ``r // 64``, over ``ceil(n / 64)`` uint64 words.  So
    ``X[r, f] <= thr`` holds exactly when ``r`` is in the bitset of the
    last of ``f``'s levels that is ``<= thr``, and in none when no level is.
    """

    levels: np.ndarray
    starts: np.ndarray
    bits: np.ndarray


def _levels(col: np.ndarray) -> np.ndarray:
    """The sorted distinct non-NaN values of ``col``, byte for byte what
    ``np.unique`` returns: the same in-place sort and adjacent compare, so
    the same one of ``-0.0`` and ``0.0`` survives.  ``np.unique`` itself
    imports ``numpy.ma`` on its first call, which a forked pool worker
    would pay in its first trial."""
    aux = col[~np.isnan(col)]
    aux.sort()
    keep = np.empty(aux.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = aux[1:] != aux[:-1]
    return aux[keep]


def _bitmap_index(X: np.ndarray) -> "BitmapIndex | None":
    """Index ``X`` one feature at a time; ``None`` once the bitsets would
    take more bytes than ``X`` itself (a continuous feature gets there on
    its own, after one sort)."""
    n, d = X.shape
    n_words = -(-n // 64)
    budget = X.nbytes // (8 * n_words)  # bitsets X's own bytes pay for
    uniques = []
    starts = np.zeros(d + 1, dtype=np.intp)
    for f, col in enumerate(X.T):
        uniques.append(_levels(col))
        starts[f + 1] = starts[f] + len(uniques[f])
        if starts[f + 1] > budget:
            return None
    levels = np.empty(starts[-1])
    packed = np.zeros((starts[-1], 8 * n_words), dtype=np.uint8)
    for f, lv in enumerate(uniques):
        a = starts[f]
        levels[a:a + len(lv)] = lv
        for j in range(0, len(lv), 64):  # 64 levels at a time bound the temporary
            le = X[:, f] <= lv[j:j + 64, None]
            packed[a + j:a + j + len(le), : -(-n // 8)] = np.packbits(
                le, axis=1, bitorder="little"
            )
    bits = packed.view("<u8").astype(np.uint64, copy=False)
    index = BitmapIndex(levels, starts, bits)
    for arr in index:
        arr.setflags(write=False)
    return index


class DataPool:
    """An encoded configuration pool with removal bookkeeping.

    Indices handed out by :meth:`available_indices` (and accepted by
    :meth:`take`) are *global* row indices into :attr:`X`; they stay valid for
    the lifetime of the pool even as entries are removed.  The pool keeps
    its own read-only copy of the matrix it is given, so writes to the
    caller's array (or to the base of a view) never reach it.
    """

    def __init__(self, X: np.ndarray) -> None:
        X = np.array(X, dtype=np.float64, order="C")
        if X.ndim != 2:
            raise ValueError(f"pool matrix must be 2-D, got shape {X.shape}")
        if len(X) == 0:
            raise ValueError("pool must contain at least one configuration")
        X.setflags(write=False)
        self._X = X
        self._available = np.ones(len(X), dtype=bool)
        self._index: "BitmapIndex | None" = None
        self._indexed = False

    # -- views -----------------------------------------------------------
    @property
    def X(self) -> np.ndarray:
        """The full (immutable) encoded matrix, including removed rows."""
        return self._X

    @property
    def n_total(self) -> int:
        return len(self._X)

    @property
    def n_available(self) -> int:
        return int(self._available.sum())

    def available_indices(self) -> np.ndarray:
        """Global row indices still available, ascending."""
        return np.flatnonzero(self._available)

    def available_X(self) -> np.ndarray:
        """Encoded rows still available (a copy-on-slice view)."""
        return self._X[self._available]

    def is_available(self, index: int) -> bool:
        """Whether global row ``index`` is still in the pool."""
        return bool(self._available[index])

    def bitmap_index(self) -> "BitmapIndex | None":
        """The :class:`BitmapIndex` of :attr:`X`, built on first use and kept
        for the pool's lifetime; ``None`` when its bitsets would take more
        bytes than the matrix (continuous features)."""
        if not self._indexed:
            self._index = _bitmap_index(self._X)
            self._indexed = True
        return self._index

    # -- mutation ----------------------------------------------------------
    def take(self, indices: "Sequence[int] | np.ndarray") -> np.ndarray:
        """Remove ``indices`` from the pool and return their encoded rows.

        Raises if any index is out of range, duplicated, or already taken —
        a strategy that re-selects an evaluated configuration is a bug the
        paper's framing explicitly rules out (samples are removed from the
        pool at line 8 of Algorithm 1).
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise ValueError("take() expects a 1-D index sequence")
        if len(idx) == 0:
            return self._X[:0]
        if idx.min() < 0 or idx.max() >= self.n_total:
            raise IndexError(f"pool index out of range [0, {self.n_total})")
        ordered = np.sort(idx)  # not np.unique: see _levels
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate indices in a single take()")
        if not self._available[idx].all():
            taken = idx[~self._available[idx]]
            raise ValueError(f"indices already taken from pool: {taken.tolist()}")
        self._available[idx] = False
        return self._X[idx]

    def reset(self) -> None:
        """Make every row available again (used between repeated trials)."""
        self._available[:] = True

    def __len__(self) -> int:
        return self.n_available

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataPool({self.n_available}/{self.n_total} available)"
