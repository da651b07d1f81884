"""Array-backed CART regression tree: the reference grower.

Construction is iterative (explicit stack) to avoid recursion limits and to
keep node bookkeeping in flat arrays; prediction descends all query rows
through the tree simultaneously, one level per vectorised step.

Every tree grows one way: each split draws :func:`n_split_features` of
the ``d`` features, and a node splits until it is pure or holds one
sample.  Each node's split comes from a fresh ``(n, m)`` argsort of its
samples (:func:`~repro.forest.splitter.best_split`).  A forest grows its
trees on bootstrap samples with the C kernel when it is loaded, in one
call that presorts each sample once (:mod:`repro.forest.forest`); without
the kernel it fits one :class:`RegressionTree` per tree.  Both consume the
node RNG identically and produce bit-identical trees — the
trace-equivalence suite (``tests/test_trace_equivalence.py``) pins this.
"""

from __future__ import annotations

import numpy as np

from repro.forest.splitter import best_split

__all__ = ["RegressionTree", "n_split_features"]

_LEAF = -1


def n_split_features(n_features: int) -> int:
    """Features each split draws: a third of them, at least one —
    Breiman's regression default, and the setting Hutter et al. use for
    runtime prediction."""
    return max(1, n_features // 3)


def check_training_data(X, y) -> "tuple[np.ndarray, np.ndarray]":
    """``(X, y)`` as float64 arrays, or ``ValueError`` if a tree cannot be
    grown on them: ``X`` must be 2-D, ``y`` 1-D with one target per row,
    with at least one row, and every value finite."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("cannot fit a tree on zero samples")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ValueError("X and y must be finite")
    return X, y


class RegressionTree:
    """A single regression tree (MSE criterion).

    Each split searches :func:`n_split_features` features drawn from
    ``rng`` (all of them when there is only one), and a node is split
    until it is pure or holds a single sample.

    Parameters
    ----------
    rng:
        Generator used for per-node feature subsampling.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng if rng is not None else np.random.default_rng()
        self._fitted = False

    # -- fitting -------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Grow the tree on ``(X, y)``; returns ``self``."""
        X, y = check_training_data(X, y)
        n, d = X.shape
        nodes = self._grow_lists(X, y, n, d, n_split_features(d))
        self.n_features_ = d
        (
            self.feature_,
            self.threshold_,
            self.left_,
            self.right_,
            self.value_,
            self.variance_,
            self.count_,
            self.impurity_,
        ) = nodes
        self._fitted = True
        return self

    def _grow_lists(self, X, y, n, d, m) -> tuple:
        """Grow depth-first into growable node lists, one
        :func:`~repro.forest.splitter.best_split` per node."""
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        variance: list[float] = []
        count: list[int] = []
        impurity: list[float] = []

        def new_node() -> int:
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            value.append(0.0)
            variance.append(0.0)
            count.append(0)
            impurity.append(0.0)
            return len(feature) - 1

        root = new_node()
        stack: list[tuple[int, np.ndarray]] = [(root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            y_node = y[idx]
            # Mean/variance/SSE from one pass (Σy, Σy²): this is the hot
            # loop of forest construction, numpy reduction wrappers are
            # too heavy here.
            k = len(idx)
            s = float(y_node.sum())
            q = float(np.dot(y_node, y_node))
            mean = s / k
            value[node] = mean
            variance[node] = max(q / k - mean * mean, 0.0)
            count[node] = k
            impurity[node] = max(q - s * s / k, 0.0)

            if k < 2 or impurity[node] <= 1e-12:
                continue

            if m >= d:
                feats = np.arange(d)
            else:
                feats = self.rng.choice(d, size=m, replace=False)

            split = best_split(X[idx], y_node, feats)
            if split is None:
                continue
            feature[node] = split.feature
            threshold[node] = split.threshold
            li = new_node()
            ri = new_node()
            left[node] = li
            right[node] = ri
            stack.append((li, idx[split.left_mask]))
            stack.append((ri, idx[~split.left_mask]))

        return (
            np.asarray(feature, dtype=np.intp),
            np.asarray(threshold, dtype=np.float64),
            np.asarray(left, dtype=np.intp),
            np.asarray(right, dtype=np.intp),
            np.asarray(value, dtype=np.float64),
            np.asarray(variance, dtype=np.float64),
            np.asarray(count, dtype=np.intp),
            np.asarray(impurity, dtype=np.float64),
        )

    # -- inference ------------------------------------------------------------
    def _check_query(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("tree is not fitted; call fit() first")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"query has {X.shape[1]} features, tree was fit on {self.n_features_}"
            )
        return X

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by each query row."""
        X = self._check_query(X)
        node = np.zeros(len(X), dtype=np.intp)
        active = self.feature_[node] != _LEAF
        while active.any():
            act_nodes = node[active]
            go_left = (
                X[active, self.feature_[act_nodes]] <= self.threshold_[act_nodes]
            )
            nxt = np.where(go_left, self.left_[act_nodes], self.right_[act_nodes])
            node[active] = nxt
            active = self.feature_[node] != _LEAF
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean training target of the leaf each row falls into."""
        leaves = self.apply(X)
        return self.value_[leaves]

    def leaf_stats(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mean, variance, count) of the reached leaf for each row."""
        leaves = self.apply(X)
        return self.value_[leaves], self.variance_[leaves], self.count_[leaves]

    # -- introspection -----------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        self._require_fitted()
        return len(self.feature_)

    @property
    def n_leaves(self) -> int:
        self._require_fitted()
        return int((self.feature_ == _LEAF).sum())

    def depth(self) -> int:
        """Maximum root-to-leaf depth of the fitted tree."""
        self._require_fitted()
        depth = 0
        frontier = np.zeros(1, dtype=np.intp)  # start at the root
        while True:
            internal = frontier[self.feature_[frontier] != _LEAF]
            if internal.size == 0:
                return depth
            frontier = np.concatenate(
                [self.left_[internal], self.right_[internal]]
            )
            depth += 1

    def impurity_importances(self) -> np.ndarray:
        """Total SSE reduction credited to each feature (unnormalised)."""
        self._require_fitted()
        imp = np.zeros(self.n_features_, dtype=np.float64)
        internal = np.flatnonzero(self.feature_ != _LEAF)
        if internal.size:
            gain = self.impurity_[internal] - (
                self.impurity_[self.left_[internal]]
                + self.impurity_[self.right_[internal]]
            )
            np.add.at(imp, self.feature_[internal], np.maximum(gain, 0.0))
        return imp

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("tree is not fitted; call fit() first")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._fitted:
            return "RegressionTree(unfitted)"
        return f"RegressionTree({self.n_nodes} nodes, {self.n_leaves} leaves)"
