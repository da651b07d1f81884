"""Array-backed CART regression tree.

Construction is iterative (explicit stack) to avoid recursion limits and to
keep node bookkeeping in flat arrays; prediction descends all query rows
through the tree simultaneously, one level per vectorised step.

Growth comes in two trace-equivalent flavours selected by ``presort``:

* ``presort=True`` (default) sorts each feature of the training sample
  *once per tree* and maintains per-feature sorted index rows through
  stable partitioning at every split, so each node pays only a gather and
  a prefix-sum sweep.  With the C kernel (:mod:`repro.forest._cgrower`)
  the tree grows as a one-tree forest in one call, which sorts by a
  counting sort over dense ranks; otherwise a fused numpy loop grows it
  from one stable argsort per feature.  A forest grows all of its trees
  in one such call (:mod:`repro.forest.forest`).
* ``presort=False`` is the reference grower: a fresh ``(n, m)`` argsort per
  node (:func:`~repro.forest.splitter.best_split`).

All of them consume the node RNG identically and produce bit-identical
trees — the trace-equivalence suite (``tests/test_trace_equivalence.py``)
pins this.
"""

from __future__ import annotations

import numpy as np

from repro.forest import _cgrower
from repro.forest.packed import FIELDS
from repro.forest.splitter import best_split

__all__ = ["RegressionTree"]

_LEAF = -1


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

    Parameters
    ----------
    max_depth:
        Depth limit; ``None`` grows until purity / sample limits.
    min_samples_split:
        Smallest node that may be split further.
    min_samples_leaf:
        Smallest admissible child size.
    max_features:
        Features considered per split: ``None``/"all" (every feature),
        ``"sqrt"``, ``"third"`` (Breiman's regression default p/3), an int
        count, or a float fraction.
    rng:
        Generator used for per-node feature subsampling.
    presort:
        Use the presorted grower (one stable argsort per feature per tree,
        partitioned down the tree) instead of re-argsorting every node.
        Trace-equivalent; ``False`` keeps the reference path for tests and
        benchmarking.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = None,
        rng: np.random.Generator | None = None,
        presort: bool = True,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 (or None)")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng if rng is not None else np.random.default_rng()
        self.presort = presort
        self._fitted = False

    # -- configuration -----------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None or mf == "all":
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "third":
            return max(1, n_features // 3)
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"max_features fraction must be in (0, 1], got {mf}")
            return max(1, int(round(mf * n_features)))
        if isinstance(mf, int):
            if not 1 <= mf <= n_features:
                raise ValueError(
                    f"max_features={mf} out of range [1, {n_features}]"
                )
            return mf
        raise ValueError(f"unrecognised max_features: {mf!r}")

    # -- fitting -------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Grow the tree on ``(X, y)``; returns ``self``."""
        X, y = check_training_data(X, y)
        n, d = X.shape
        m = self._n_split_features(d)
        kernel = _cgrower.load() if self.presort else None
        if kernel is not None:
            nodes = self._grow_presorted_c(kernel, X, y, m)
        else:
            nodes = self._grow_lists(X, y, n, d, m)
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

    def _grow_presorted_c(self, kernel, X, y, m) -> tuple:
        """Presorted growth of the whole tree in one C kernel call.

        The kernel grows a one-tree forest without a bootstrap
        (:meth:`_cgrower.Kernel.grow_forest`); with a single tree at base
        id 0 the packed child links are the tree's own.
        """
        arrays, _ = kernel.grow_forest(
            X, y, 1, False, self.rng, m, self.min_samples_leaf,
            self.min_samples_split, self.max_depth,
        )
        return tuple(arrays[name] for name in FIELDS)

    def _grow_lists(self, X, y, n, d, m) -> tuple:
        """Grow with a Python-driven loop into growable node lists.

        Runs the presorted numpy grower, or the reference grower when
        ``presort=False``.
        """
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
        if self.presort:
            self._grow_presorted_numpy(
                X, y, n, d, m, feature, threshold, left, right,
                value, variance, count, impurity, new_node,
            )
        else:
            stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
            while stack:
                node, idx, depth = stack.pop()
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

                if (
                    k < self.min_samples_split
                    or (self.max_depth is not None and depth >= self.max_depth)
                    or impurity[node] <= 1e-12
                ):
                    continue

                if m >= d:
                    feats = np.arange(d)
                else:
                    feats = self.rng.choice(d, size=m, replace=False)

                split = best_split(X[idx], y_node, feats, self.min_samples_leaf)
                if split is None:
                    continue
                feature[node] = split.feature
                threshold[node] = split.threshold
                li = new_node()
                ri = new_node()
                left[node] = li
                right[node] = ri
                stack.append((li, idx[split.left_mask], depth + 1))
                stack.append((ri, idx[~split.left_mask], depth + 1))

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

    def _grow_presorted_numpy(
        self,
        X: np.ndarray,
        y: np.ndarray,
        n: int,
        d: int,
        m: int,
        feature: list,
        threshold: list,
        left: list,
        right: list,
        value: list,
        variance: list,
        count: list,
        impurity: list,
        new_node,
    ) -> None:
        """Fused pure-numpy presorted growth (fallback when C is unavailable).

        The split search of :func:`~repro.forest.splitter.best_split` is
        inlined and fused here because per-node Python/numpy call overhead
        — not arithmetic — dominates tree growth at the paper's sample
        sizes.  Every floating-point expression mirrors the reference
        operand-for-operand so results match bit-for-bit; the
        trace-equivalence suite pins this.

        Layout notes: sorted blocks are feature-major ``(m, k)`` (the
        reference uses ``(k, m)``); prefix sums run along the contiguous
        last axis and the argmin is taken over the transposed *view* so the
        scan order — and therefore tie-breaking — matches the reference's
        position-major flat argmin exactly.  ``order`` carries ``d + 1``
        rows: one per feature in ascending-value order plus a final row
        holding the node's sample indices in ascending order (what the
        reference maintains as ``idx``); one boolean take partitions all of
        them at once.
        """
        XT = np.ascontiguousarray(X.T)
        XTflat = XT.reshape(-1)
        # One stable argsort per feature for the whole sample; row f lists
        # all sample indices in ascending X[:, f] order (ties by index —
        # exactly what the reference's per-node stable argsorts yield,
        # since node index arrays stay ascending under partitioning).
        order0 = np.concatenate(
            [
                np.argsort(XT, axis=1, kind="stable"),
                np.arange(n, dtype=np.intp)[None, :],
            ]
        )
        in_left = np.zeros(n, dtype=bool)  # reusable partition scratch
        featbase = np.arange(d, dtype=np.intp) * n
        n_left_sizes = np.arange(n + 1, dtype=np.float64)
        feats_all = np.arange(d)
        rng_choice = self.rng.choice
        msl = self.min_samples_leaf
        mss = self.min_samples_split
        max_depth = self.max_depth
        dp1 = d + 1
        INF = np.inf

        stack: list[tuple[int, np.ndarray, int]] = [(0, order0, 0)]
        pop = stack.pop
        push = stack.append
        while stack:
            node, order, depth = pop()
            idx = order[d]
            y_node = y[idx]
            k = y_node.shape[0]
            s = float(y_node.sum())
            q = float(np.dot(y_node, y_node))
            mean = s / k
            value[node] = mean
            var = q / k - mean * mean
            variance[node] = var if var > 0.0 else 0.0
            count[node] = k
            imp = q - s * s / k
            if imp < 0.0:
                imp = 0.0
            impurity[node] = imp

            if (
                k < mss
                or (max_depth is not None and depth >= max_depth)
                or imp <= 1e-12
            ):
                continue

            feats = feats_all if m >= d else rng_choice(d, size=m, replace=False)

            lo = msl
            hi = k - msl
            if lo > hi:
                continue
            hi1 = hi + 1

            sub = order[feats]  # (m, k) sample indices, feature-major
            Ys = y[sub]
            Fs = XTflat[sub + featbase[feats][:, None]]
            csum = Ys.cumsum(axis=1)
            csq = (Ys * Ys).cumsum(axis=1)
            # Candidate split positions i in [lo, hi]; left stats use
            # column i-1 of the prefixes.  SSE per side from Σy, Σy²:
            # combined = (q_l - s_l²/n_l) + (q_r - s_r²/n_r).
            s_l = csum[:, lo - 1 : hi]
            q_l = csq[:, lo - 1 : hi]
            n_l = n_left_sizes[lo:hi1]
            a = s_l * s_l
            a /= n_l
            a = np.subtract(q_l, a, out=a)
            b = csum[:, -1:] - s_l
            b *= b
            b /= k - n_l
            c = csq[:, -1:] - q_l
            c -= b
            a += c  # combined SSE, (m, n_candidates)
            # Positions are valid only where the sorted value changes; an
            # all-invalid block leaves `best` at inf, handled below.
            valid = Fs[:, lo:hi1] != Fs[:, lo - 1 : hi]
            a[~valid] = INF
            flat = int(a.T.argmin())  # transposed view: reference scan order
            pos, col = divmod(flat, m)
            best = a[col, pos]
            if best == INF:
                continue
            ts = csum[col, -1]
            node_sse = float(csq[col, -1] - ts**2 / k)
            gain = node_sse - float(best)
            if gain <= 1e-12:
                continue

            i = lo + pos
            lo_val = Fs[col, i - 1]
            hi_val = Fs[col, i]
            thr = 0.5 * (lo_val + hi_val)
            # Guard against midpoints collapsing onto the upper value for
            # adjacent floats: the left side must satisfy
            # `value <= threshold < upper value`.
            if not (lo_val <= thr < hi_val):
                thr = lo_val
            thr = float(thr)
            f = int(feats[col])

            mask = XT[f, idx] <= thr
            n_l_count = int(mask.sum())
            # Mirrors best_split's degenerate-threshold guard.
            if n_l_count == 0 or n_l_count == k:
                continue
            feature[node] = f
            threshold[node] = thr
            # Stable partition of all d+1 index rows at once: each row
            # keeps exactly n_l_count left members, so the boolean take
            # reshapes back into (d+1, child_size) blocks.
            in_left[idx] = mask
            take = in_left[order]
            order_l = order[take].reshape(dp1, n_l_count)
            order_r = order[~take].reshape(dp1, k - n_l_count)
            in_left[idx] = False
            li = new_node()
            ri = new_node()
            left[node] = li
            right[node] = ri
            push((li, order_l, depth + 1))
            push((ri, order_r, depth + 1))

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
