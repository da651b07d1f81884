"""Packed-forest inference: all trees in one structure-of-arrays.

:class:`~repro.forest.forest.RandomForestRegressor` historically predicted
with a Python loop over trees — 30 traversals per call, each re-validating
the same query matrix.  :class:`PackedForest` concatenates every tree's
flat node arrays (feature/threshold/left/right/value/variance/count/
impurity) into one SoA with per-tree root offsets and child links rebased
to *global* node ids, then descends all ``n_rows × n_trees`` lanes together
in a single level-synchronous loop.  Routing decisions are the same
``X[row, feature] <= threshold`` comparisons the per-tree code makes, and
leaf payloads are the trees' own arrays concatenated, so every prediction
is bit-identical to the per-tree reference — the trace-equivalence suite
pins this.

The packed form is also the serialisation format (see
:mod:`repro.forest.serialize`): eight arrays plus the offsets vector
round-trip the whole ensemble, and :meth:`PackedForest.to_trees` slices
individual :class:`~repro.forest.tree.RegressionTree` objects back out.
"""

from __future__ import annotations

import numpy as np

from repro.forest import _cgrower
from repro.telemetry import counters, span

__all__ = ["PackedForest"]

_LEAF = -1

#: Node-array fields concatenated into the SoA, in serialisation order.
FIELDS = (
    "feature",
    "threshold",
    "left",
    "right",
    "value",
    "variance",
    "count",
    "impurity",
)


class PackedForest:
    """Concatenated node arrays of a fitted forest.

    Parameters are the already-concatenated arrays; ``offsets`` has
    ``n_trees + 1`` entries with ``offsets[t]`` the global id of tree
    ``t``'s root and ``offsets[-1]`` the total node count.  ``left``/
    ``right`` hold *global* child ids for internal nodes and ``-1`` for
    leaves.  Use :meth:`from_trees` to build one from fitted trees.
    """

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        variance: np.ndarray,
        count: np.ndarray,
        impurity: np.ndarray,
        offsets: np.ndarray,
        n_features: int,
    ) -> None:
        # Contiguity matters: the C traversal kernel reads raw pointers.
        self.feature = np.ascontiguousarray(feature, dtype=np.intp)
        self.threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self.left = np.ascontiguousarray(left, dtype=np.intp)
        self.right = np.ascontiguousarray(right, dtype=np.intp)
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.variance = np.ascontiguousarray(variance, dtype=np.float64)
        self.count = np.ascontiguousarray(count, dtype=np.intp)
        self.impurity = np.ascontiguousarray(impurity, dtype=np.float64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.intp)
        self.n_features = int(n_features)
        if self.offsets.ndim != 1 or len(self.offsets) < 2:
            raise ValueError("offsets must hold n_trees + 1 entries")
        if self.offsets[-1] != len(self.feature):
            raise ValueError(
                f"offsets end at {self.offsets[-1]} but there are "
                f"{len(self.feature)} nodes"
            )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_trees(cls, trees) -> "PackedForest":
        """Pack a non-empty sequence of fitted :class:`RegressionTree`."""
        if not trees:
            raise ValueError("cannot pack an empty forest")
        sizes = [len(t.feature_) for t in trees]
        offsets = np.zeros(len(trees) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        feature = np.concatenate([t.feature_ for t in trees])
        threshold = np.concatenate([t.threshold_ for t in trees])
        value = np.concatenate([t.value_ for t in trees])
        variance = np.concatenate([t.variance_ for t in trees])
        count = np.concatenate([t.count_ for t in trees])
        impurity = np.concatenate([t.impurity_ for t in trees])
        # Rebase child links to global node ids; leaves keep -1.
        left = np.concatenate(
            [np.where(t.left_ >= 0, t.left_ + off, _LEAF)
             for t, off in zip(trees, offsets[:-1])]
        )
        right = np.concatenate(
            [np.where(t.right_ >= 0, t.right_ + off, _LEAF)
             for t, off in zip(trees, offsets[:-1])]
        )
        return cls(
            feature, threshold, left, right, value, variance, count,
            impurity, offsets, trees[0].n_features_,
        )

    def to_trees(self):
        """Slice per-tree :class:`RegressionTree` objects back out.

        The returned trees carry the exact node arrays they were packed
        from (child links rebased back to local ids) and are ready for
        prediction; they hold no growth hyper-parameters.
        """
        from repro.forest.tree import RegressionTree

        trees = []
        for t in range(self.n_trees):
            a, b = int(self.offsets[t]), int(self.offsets[t + 1])
            tree = RegressionTree()
            tree.feature_ = self.feature[a:b].copy()
            tree.threshold_ = self.threshold[a:b].copy()
            tree.left_ = np.where(
                self.left[a:b] >= 0, self.left[a:b] - a, _LEAF
            ).astype(np.intp)
            tree.right_ = np.where(
                self.right[a:b] >= 0, self.right[a:b] - a, _LEAF
            ).astype(np.intp)
            tree.value_ = self.value[a:b].copy()
            tree.variance_ = self.variance[a:b].copy()
            tree.count_ = self.count[a:b].copy()
            tree.impurity_ = self.impurity[a:b].copy()
            tree.n_features_ = self.n_features
            tree._fitted = True
            trees.append(tree)
        return trees

    # -- introspection -----------------------------------------------------
    @property
    def n_trees(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def arrays(self) -> dict[str, np.ndarray]:
        """The SoA fields by name (serialisation helper)."""
        return {name: getattr(self, name) for name in FIELDS}

    # -- traversal ---------------------------------------------------------
    def _descend(self, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """Route every (tree, row) lane to its leaf; returns global leaf ids.

        ``X`` must already be validated/converted (the forest does this once
        per call — that is the point).  Lanes are tree-major: the result has
        shape ``(len(roots), len(X))``.  Routing is pure comparisons, so the
        C kernel (when available) and the numpy level-synchronous loop are
        bit-identical; the numpy loop compacts the lane set to the
        still-internal lanes each level, so its per-level cost shrinks with
        depth.
        """
        counters.inc("forest.trees_traversed", len(roots))
        with span("forest.traverse", trees=len(roots), rows=X.shape[0]):
            return self._descend_inner(X, roots)

    def _descend_inner(self, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
        kernel = _cgrower.load()
        if kernel is not None:
            T = len(roots)
            Xc = np.ascontiguousarray(X)
            roots_c = np.ascontiguousarray(roots, dtype=np.intp)
            out = np.empty((T, Xc.shape[0]), dtype=np.intp)
            kernel.traverse(
                self.feature.ctypes.data, self.threshold.ctypes.data,
                self.left.ctypes.data, self.right.ctypes.data,
                Xc.ctypes.data, Xc.shape[0], Xc.shape[1],
                roots_c.ctypes.data, T, out.ctypes.data,
            )
            return out
        n = X.shape[0]
        n_lanes = len(roots) * n
        out = np.empty(n_lanes, dtype=np.intp)
        lane = np.arange(n_lanes, dtype=np.intp)
        node = np.repeat(roots, n)
        col = np.tile(np.arange(n, dtype=np.intp), len(roots))
        feature = self.feature
        threshold = self.threshold
        left = self.left
        right = self.right
        while node.size:
            f = feature[node]
            at_leaf = f < 0
            if at_leaf.any():
                out[lane[at_leaf]] = node[at_leaf]
                keep = ~at_leaf
                node = node[keep]
                lane = lane[keep]
                col = col[keep]
                f = f[keep]
                if not node.size:
                    break
            go_left = X[col, f] <= threshold[node]
            node = np.where(go_left, left[node], right[node])
        return out.reshape(len(roots), n)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Global leaf id reached by each (tree, row) lane, ``(T, n)``."""
        return self._descend(X, self.offsets[:-1])

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree mean predictions, shape ``(n_trees, n_rows)``."""
        return self.value[self.apply(X)]

    def leaf_stats_all(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-tree leaf ``(mean, variance, count)``, each ``(T, n)``."""
        leaves = self.apply(X)
        return self.value[leaves], self.variance[leaves], self.count[leaves]

    def predict_trees(self, X: np.ndarray, tree_ids: np.ndarray) -> np.ndarray:
        """Mean predictions of a tree subset, ``(len(tree_ids), n_rows)``.

        Used by the pool-score cache to re-score only the trees a partial
        :meth:`~repro.forest.forest.RandomForestRegressor.update` refreshed.
        """
        tree_ids = np.asarray(tree_ids, dtype=np.intp)
        return self.value[self._descend(X, self.offsets[tree_ids])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedForest({self.n_trees} trees, {self.n_nodes} nodes)"
