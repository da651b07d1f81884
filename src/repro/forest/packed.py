"""Packed-forest inference: all trees in one structure-of-arrays.

:class:`~repro.forest.forest.RandomForestRegressor` historically predicted
with a Python loop over trees — 30 traversals per call, each re-validating
the same query matrix.  :class:`PackedForest` concatenates every tree's
flat node arrays (feature/threshold/left/right/value/variance/count/
impurity) into one SoA with per-tree root offsets and child links rebased
to *global* node ids, and routes all ``n_rows × n_trees`` lanes in one
call.  With the C kernel, each tree's rows go through a compact routing
table in blocks that step exactly the tree's height, and the kernel writes
leaf values (or leaf ids) straight into the output; without it, a numpy
level-synchronous loop descends all lanes together and gathers the leaf
values afterwards.  The rows of a :class:`~repro.space.DataPool` with a
bitmap index take a third route when the kernel is loaded: each tree
splits one bitset of the pool's rows per node, and only small nodes walk
their rows.  Routing decisions are the same
``X[row, feature] <= threshold`` comparisons the per-tree code makes, and
leaf payloads are the trees' own arrays concatenated, so every prediction
is bit-identical to the per-tree reference — the trace-equivalence suite
pins this.

The packed form is also the serialisation format (see
:meth:`~repro.forest.forest.RandomForestRegressor.serialize`): eight arrays
plus the offsets vector round-trip the whole ensemble, and
:meth:`PackedForest.to_trees` slices individual
:class:`~repro.forest.tree.RegressionTree` objects back out.
"""

from __future__ import annotations

import numpy as np

from repro.forest import _cgrower
from repro.telemetry import counters, span

__all__ = ["PackedForest"]

_LEAF = -1

#: One routing-table entry, laid out as ``route_t`` in ``_grower.c``:
#: threshold, feature, the children taken when ``x <= threshold`` fails
#: and holds (a leaf points to itself through both), and the node's height.
ROUTE = np.dtype(
    [("thr", np.float64), ("feat", np.int32), ("go", np.int32, 2),
     ("height", np.int32)],
    align=True,
)

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

    Construction rejects node arrays a traversal could not walk safely
    (:meth:`_check_structure`), so every packed forest, however it was
    built or loaded, has its children at larger ids inside their own tree.
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
        self._check_structure()
        #: The C kernel's routing table, built the first time it traverses.
        self._routes: np.ndarray | None = None

    def _check_structure(self) -> None:
        """Reject node arrays that would send a traversal out of bounds or
        round in circles.

        Every field holds one entry per node and every tree at least one
        node; features lie in ``[-1, n_features)``; a node is a leaf exactly
        when its feature and both children are ``-1``; and an internal
        node's children sit inside its own tree at larger ids than the
        node.  Every grower builds trees that way, and it rules out cycles.
        """
        n_nodes = self.n_nodes
        for name, arr in self.arrays().items():
            if arr.shape != (n_nodes,):
                raise ValueError(
                    f"packed_{name} has shape {arr.shape}, expected ({n_nodes},)"
                )
        sizes = np.diff(self.offsets)
        if self.offsets[0] != 0 or (sizes <= 0).any():
            raise ValueError("offsets must start at 0 and increase strictly")
        feature, left, right = self.feature, self.left, self.right
        if ((feature < -1) | (feature >= self.n_features)).any():
            raise ValueError(
                f"packed_feature holds ids outside [-1, {self.n_features})"
            )
        leaf = feature == -1
        if ((left == -1) != leaf).any() or ((right == -1) != leaf).any():
            raise ValueError(
                "a node must be a leaf exactly when its feature and both "
                "children are -1"
            )
        internal = np.flatnonzero(~leaf)
        tree_end = np.repeat(self.offsets[1:], sizes)[internal]
        for child in (left[internal], right[internal]):
            if ((child <= internal) | (child >= tree_end)).any():
                raise ValueError(
                    "an internal node has a child outside its tree or at a "
                    "smaller id than itself"
                )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_trees(cls, trees) -> "PackedForest":
        """Pack a non-empty sequence of fitted :class:`RegressionTree`."""
        if not trees:
            raise ValueError("cannot pack an empty forest")
        sizes = np.array([len(t.feature_) for t in trees], dtype=np.intp)
        offsets = np.zeros(len(trees) + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        arrays = {
            name: np.concatenate([getattr(t, name + "_") for t in trees])
            for name in FIELDS
        }
        # Rebase child links to global node ids; leaves keep -1.
        shift = np.repeat(offsets[:-1], sizes)
        for name in ("left", "right"):
            child = arrays[name]
            arrays[name] = np.where(child >= 0, child + shift, _LEAF)
        return cls(**arrays, offsets=offsets, n_features=trees[0].n_features_)

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
    def _descend(
        self,
        X: np.ndarray,
        tree_ids: "np.ndarray | None" = None,
        values: bool = False,
        pool=None,
    ) -> np.ndarray:
        """Route every (tree, row) lane to its leaf, shape ``(T, n_rows)``.

        ``tree_ids`` picks the trees (all of them when ``None``), in the
        given order, repeats allowed; ids outside ``[0, n_trees)`` raise
        :class:`IndexError`.  ``X`` must be a 2-D query with ``n_features``
        columns (converted to float64; anything else raises
        :class:`ValueError`), checked here once, before either kernel mode
        reads it.  ``pool``, when given, is the
        :class:`~repro.space.DataPool` whose matrix ``X`` is; with the
        kernel loaded, the pool's bitmap index routes its rows when it has
        one.  Returns the global leaf ids, or with ``values`` the leaves'
        mean predictions ``value[leaf]``.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"query must be 2-D with {self.n_features} columns, got "
                f"shape {X.shape}"
            )
        if pool is not None and X is not pool.X:
            raise ValueError("X must be the pool's own matrix")
        if tree_ids is None:
            tree_ids = np.arange(self.n_trees, dtype=np.intp)
        else:
            tree_ids = np.ascontiguousarray(tree_ids, dtype=np.intp)
            if tree_ids.ndim != 1:
                raise ValueError(f"tree ids must be 1-D, got shape {tree_ids.shape}")
            if tree_ids.size and (
                tree_ids.min() < 0 or tree_ids.max() >= self.n_trees
            ):
                raise IndexError(
                    f"tree ids must lie in [0, {self.n_trees}), got "
                    f"{tree_ids.min()}..{tree_ids.max()}"
                )
        counters.inc("forest.trees_traversed", len(tree_ids))
        with span("forest.traverse", trees=len(tree_ids), rows=X.shape[0]):
            kernel = _cgrower.load()
            if kernel is not None:
                index = None if pool is None else pool.bitmap_index()
                return self._traverse(kernel, X, tree_ids, values, index)
            leaves = self._descend_numpy(X, self.offsets[tree_ids])
            return self.value[leaves] if values else leaves

    def _traverse(
        self, kernel, X, tree_ids, values: bool, index=None
    ) -> np.ndarray:
        """The C kernel's traversal, through the cached routing table, and
        through ``index`` (the :class:`~repro.space.pool.BitmapIndex` of
        ``X``) when one is given."""
        if self._routes is None:
            routes = np.empty(self.n_nodes, dtype=ROUTE)
            if kernel.build_routes(
                self.feature.ctypes.data, self.threshold.ctypes.data,
                self.left.ctypes.data, self.right.ctypes.data,
                self.n_nodes, self.n_features, routes.ctypes.data,
            ) != 0:
                raise ValueError("node arrays cannot be routed")
            self._routes = routes
        Xc = np.ascontiguousarray(X)
        out = np.empty(
            (len(tree_ids), Xc.shape[0]),
            dtype=np.float64 if values else np.intp,
        )
        walk = (
            self._routes.ctypes.data, self.offsets.ctypes.data,
            tree_ids.ctypes.data, len(tree_ids), Xc.ctypes.data,
            Xc.shape[0], Xc.shape[1],
        )
        payload = self.value.ctypes.data if values else None
        if index is None:
            kernel.traverse(*walk, payload, out.ctypes.data)
        elif kernel.traverse_pool(
            *walk, index.levels.ctypes.data, index.starts.ctypes.data,
            index.bits.ctypes.data, payload, out.ctypes.data,
        ) != 0:
            raise MemoryError("pool traversal could not allocate its bitsets")
        return out

    def _descend_numpy(self, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """The level-synchronous numpy loop over all lanes from ``roots``.

        The lane set is compacted to the still-internal lanes each level,
        so the per-level cost shrinks with depth.
        """
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
        return self._descend(X)

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree mean predictions, shape ``(n_trees, n_rows)``."""
        return self._descend(X, values=True)

    def leaf_stats_all(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-tree leaf ``(mean, variance, count)``, each ``(T, n)``."""
        leaves = self.apply(X)
        return self.value[leaves], self.variance[leaves], self.count[leaves]

    def predict_trees(self, X: np.ndarray, tree_ids: np.ndarray) -> np.ndarray:
        """Mean predictions of a tree subset, ``(len(tree_ids), n_rows)``."""
        return self._descend(X, tree_ids, values=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedForest({self.n_trees} trees, {self.n_nodes} nodes)"
