"""Bagging random-forest regressor with predictive uncertainty.

Implements the surrogate of Section II-B: bootstrap-aggregated CART trees
with a random feature subspace per split, mean prediction, and an
uncertainty estimate used by every sampling strategy.  Also supports the
"update partially" variant mentioned in Fig. 1 / Algorithm 1: instead of
refitting all trees on the enlarged training set, refresh only a fraction.

With the C kernel loaded, a fit grows every tree in one call, bootstrap
draws included, straight into the packed node arrays
(:meth:`~repro.forest._cgrower.Kernel.grow_forest`), and ``trees_`` is a
read-only view sliced from them on first access; without it, a Python
loop fits one reference :class:`RegressionTree` per bootstrap sample and
the packed form is built from those on first use.
Both paths check the data and the tree hyper-parameters before changing
any state or drawing from the generator, consume the generator
identically and give the same node arrays.

Inference goes through :class:`~repro.forest.packed.PackedForest`: the
query matrix is validated once at the forest level and all trees are
traversed in one call (the historical per-tree Python loop re-validated
the same matrix once per tree) — by the C kernel's blocked routing-table
traversal when it is loaded, by a numpy level-synchronous loop otherwise.
For pool scoring the forest takes the :class:`~repro.space.DataPool`
itself, routes its rows through the pool's bitmap index when the kernel
is loaded and the pool has one, and keeps a per-tree prediction cache
keyed by tree *generation* (:meth:`predict_with_uncertainty_pool`), so a
partial ``update()`` only re-scores the refreshed trees.  The
``across_trees`` mean and std come from the kernel's reduction, which
reads the cached matrix through the requested rows without copying them;
the numpy fallback copies and reduces.  All paths are bit-identical to the
per-tree reference — ``tests/test_trace_equivalence.py`` pins this.

The forest is itself a :class:`~repro.surrogate.Surrogate` (kind
``"forest"``).  Its :meth:`serialize` payload (format 2) is the packed form,
so a loaded forest predicts without rebuilding anything.
"""

from __future__ import annotations

import numpy as np

from repro.forest import _cgrower
from repro.forest.packed import FIELDS, PackedForest
from repro.forest.tree import RegressionTree, check_training_data
from repro.forest.uncertainty import across_tree_std, total_variance_std
from repro.rng import as_generator
from repro.surrogate.base import Surrogate
from repro.telemetry import counters, span

__all__ = ["RandomForestRegressor"]

#: The only payload version :meth:`RandomForestRegressor.deserialize` reads.
_FORMAT_VERSION = 2


def _across_trees(
    P: np.ndarray, rows: "np.ndarray | None", std: bool
) -> "tuple[np.ndarray, np.ndarray | None]":
    """Mean and (if ``std``) across-tree std of ``P[:, rows]``, per column.

    ``rows=None`` takes every column.  The C kernel reduces a C-ordered
    float64 ``P`` in place, reading it through ``rows``; the numpy path
    reduces a copy.
    """
    kernel = _cgrower.load()
    if (kernel is not None and P.flags.c_contiguous and P.dtype == np.float64
            and (rows is None or rows.ndim == 1)):
        return kernel.tree_mean_std(P, rows, std)
    if rows is not None:
        # Fancy column-indexing yields an F-contiguous result, and axis-0
        # reductions associate differently over a contiguous reduction
        # axis (pairwise vs strided-sequential).  Force the C layout the
        # uncached per_tree_predictions path produces so results stay
        # bit-identical.
        P = np.ascontiguousarray(P[:, rows])
    return P.mean(axis=0), (across_tree_std(P) if std else None)


class RandomForestRegressor(Surrogate):
    """Random forest for regression with per-prediction uncertainty.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Passed through to each :class:`RegressionTree`.  ``max_features``
        defaults to ``"third"`` — Breiman's recommendation for regression and
        the setting used by Hutter et al. for runtime prediction.
    bootstrap:
        Draw a bootstrap resample per tree (bagging).  Disabling it removes
        the first of the forest's two randomness sources.
    uncertainty:
        ``"across_trees"`` (the paper's estimator: std of per-tree means) or
        ``"total_variance"`` (adds within-leaf variance).
    seed:
        Anything :func:`repro.rng.as_generator` accepts.
    """

    kind = "forest"
    #: Each row's traversal and across-tree reduction read only that row;
    #: both reductions keep tree order from two columns up.
    row_wise = True

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | float | str | None" = "third",
        bootstrap: bool = True,
        uncertainty: str = "across_trees",
        seed=None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if uncertainty not in ("across_trees", "total_variance"):
            raise ValueError(f"unknown uncertainty estimator: {uncertainty!r}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.uncertainty = uncertainty
        self.rng = as_generator(seed)
        #: Feature count of the training data; ``None`` until fitted.
        self.n_features_: int | None = None
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        # The fitted ensemble: the packed form, per-tree objects, or both.
        # The kernel grows the packed form and the reference grower the trees;
        # each side is derived from the other on first use.
        self._packed: PackedForest | None = None
        self._trees: list[RegressionTree] | None = None
        # Monotone per-tree generation stamps: bumped on every (re)fit of a
        # tree, compared by the pool-score cache to find stale entries.
        self._generation = 0
        self._tree_gens = np.zeros(n_estimators, dtype=np.int64)
        self._pool_cache: dict | None = None

    # -- fitting -----------------------------------------------------------
    def _new_tree(self) -> RegressionTree:
        return RegressionTree(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=self.rng,
        )

    def _fit_one_tree(self, X: np.ndarray, y: np.ndarray) -> RegressionTree:
        tree = self._new_tree()
        if self.bootstrap:
            idx = self.rng.integers(0, len(X), size=len(X))
            tree.fit(X[idx], y[idx])
        else:
            tree.fit(X, y)
        return tree

    def _grow(
        self, X: np.ndarray, y: np.ndarray, n_trees: int, m: int
    ) -> "PackedForest | list[RegressionTree]":
        """Grow ``n_trees`` trees on validated data, drawing from ``rng``.

        The C kernel grows them all in one call and returns the packed
        form; without it, a Python loop fits one :class:`RegressionTree` at
        a time.  Both consume the generator identically and give the same
        node arrays.
        """
        kernel = _cgrower.load()
        if kernel is None:
            return [self._fit_one_tree(X, y) for _ in range(n_trees)]
        arrays, offsets = kernel.grow_forest(
            X, y, n_trees, self.bootstrap, self.rng, m,
            self.min_samples_leaf, self.min_samples_split, self.max_depth,
        )
        return PackedForest(**arrays, offsets=offsets, n_features=X.shape[1])

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit all trees from scratch on ``(X, y)``.

        The data and the tree hyper-parameters are checked before anything
        changes: a rejected fit leaves the forest, its training data and
        its generator as they were.
        """
        X, y = check_training_data(X, y)
        m = self._new_tree()._n_split_features(X.shape[1])
        with span("forest.fit", trees=self.n_estimators, n_train=len(y)):
            grown = self._grow(X, y, self.n_estimators, m)
        counters.inc("forest.trees_fit", self.n_estimators)
        self._X, self._y = X.copy(), y.copy()
        self.n_features_ = X.shape[1]
        if isinstance(grown, PackedForest):
            self._packed, self._trees = grown, None
        else:
            self._packed, self._trees = None, grown
        self._generation += 1
        self._tree_gens[:] = self._generation
        return self

    def update(
        self, X_new: np.ndarray, y_new: np.ndarray, refresh_fraction: float = 1.0
    ) -> "RandomForestRegressor":
        """Append samples and refresh a fraction of the trees.

        ``refresh_fraction=1.0`` is equivalent to a full refit on the enlarged
        training set (the paper's default of constructing the forest "from
        scratch"); smaller fractions implement the "update it partially"
        variant: a random subset of trees is refit on the new training set,
        the others keep their (stale) structure.  At least one tree is always
        refreshed so new data is never silently dropped.  As with
        :meth:`fit`, a rejected update changes nothing.
        """
        if self._X is None or self._y is None:
            return self.fit(X_new, y_new)
        if not 0.0 < refresh_fraction <= 1.0:
            raise ValueError(f"refresh_fraction must be in (0, 1], got {refresh_fraction}")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=np.float64))
        y_new = np.atleast_1d(np.asarray(y_new, dtype=np.float64))
        if len(X_new) != len(y_new):
            raise ValueError(f"X_new has {len(X_new)} rows but y_new has {len(y_new)}")
        X, y = check_training_data(
            np.vstack([self._X, X_new]), np.concatenate([self._y, y_new])
        )
        m = self._new_tree()._n_split_features(X.shape[1])
        n_refresh = max(1, int(round(refresh_fraction * self.n_estimators)))
        which = self.rng.choice(self.n_estimators, size=n_refresh, replace=False)
        with span("forest.update", refreshed=n_refresh, n_train=len(y)):
            grown = self._grow(X, y, n_refresh, m)
            if isinstance(grown, PackedForest):
                grown = grown.to_trees()
            trees = list(self.trees_)
            for t, tree in zip(which, grown):
                trees[t] = tree
        counters.inc("forest.trees_fit", n_refresh)
        self._X, self._y = X, y
        self._packed, self._trees = None, trees
        self._generation += 1
        self._tree_gens[which] = self._generation
        return self

    # -- inference ------------------------------------------------------------
    @property
    def trees_(self) -> list[RegressionTree]:
        """The fitted trees (empty before the first fit), read-only.

        Sliced out of the packed form on first access after a kernel fit
        or a load; those trees carry node arrays only.
        """
        if self._trees is None:
            if self._packed is None:
                return []
            self._trees = self._packed.to_trees()
        return self._trees

    def _require_fitted(self) -> None:
        if self.n_features_ is None:
            raise RuntimeError("forest is not fitted; call fit() first")

    def _check_query(self, X: np.ndarray) -> np.ndarray:
        """Validate/convert a query matrix once for the whole ensemble."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"query has {X.shape[1]} features, forest was fit on "
                f"{self.n_features_}"
            )
        return X

    def packed(self) -> PackedForest:
        """The ensemble's packed SoA form, rebuilt lazily after (re)fits."""
        self._require_fitted()
        if self._packed is None:
            self._packed = PackedForest.from_trees(self._trees)
        return self._packed

    def per_tree_predictions(self, X: np.ndarray) -> np.ndarray:
        """Stacked per-tree mean predictions, shape ``(n_trees, n_samples)``."""
        return self.packed().predict_all(self._check_query(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Forest prediction: mean over trees."""
        return _across_trees(self.per_tree_predictions(X), None, std=False)[0]

    def predict_with_uncertainty(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(mu, sigma)`` — prediction mean and uncertainty.

        This is the (μ, σ) pair every sampling strategy of the paper scores.
        """
        X = self._check_query(X)
        if self.uncertainty == "across_trees":
            return _across_trees(self.packed().predict_all(X), None, std=True)
        M, V, _ = self.packed().leaf_stats_all(X)
        return M.mean(axis=0), total_variance_std(M, V)

    # -- pool scoring --------------------------------------------------------
    def _score_pool(
        self, pool, tree_ids: "np.ndarray | None", need_v: bool
    ) -> "tuple[np.ndarray, np.ndarray | None]":
        """Per-tree values of every pool row for ``tree_ids`` (all trees
        when ``None``), and their leaf variances when ``need_v``."""
        packed = self.packed()
        X = self._check_query(pool.X)
        if need_v:
            leaves = packed._descend(X, tree_ids, pool=pool)
            return packed.value[leaves], packed.variance[leaves]
        return packed._descend(X, tree_ids, values=True, pool=pool), None

    def _pool_cache_for(self, pool) -> dict:
        """The per-tree pool-statistics cache, refreshed for ``pool``.

        The cache holds per-tree predictions ``P`` (and leaf variances
        ``V`` when the ``total_variance`` estimator needs them) for *every*
        row of ``pool.X``, stamped with each tree's generation.  A partial
        ``update()`` bumps only the refreshed trees' stamps, so the next
        call re-scores just those trees; rows removed from the pool are
        simply never requested again, so no eager invalidation is needed.
        The cache is keyed by the identity of ``pool``, whose matrix is a
        private, immutable copy that lives as long as the pool (see
        :class:`repro.space.DataPool`).
        """
        need_v = self.uncertainty == "total_variance"
        cache = self._pool_cache
        if cache is None or cache["pool"] is not pool or (
            need_v and cache["V"] is None
        ):
            counters.inc("forest.pool_cache.misses")
            with span("forest.pool_score", trees=self.n_estimators, full=1):
                P, V = self._score_pool(pool, None, need_v)
            cache = self._pool_cache = {
                "pool": pool,
                "P": P,
                "V": V,
                "gens": self._tree_gens.copy(),
            }
        else:
            counters.inc("forest.pool_cache.hits")
            stale = np.flatnonzero(cache["gens"] != self._tree_gens)
            if stale.size:
                counters.inc("forest.pool_cache.stale_trees", int(stale.size))
                with span("forest.pool_score", trees=int(stale.size), full=0):
                    P, V = self._score_pool(pool, stale, need_v)
                cache["P"][stale] = P
                if need_v:
                    cache["V"][stale] = V
                cache["gens"] = self._tree_gens.copy()
        return cache

    def predict_pool(self, pool, rows: np.ndarray) -> np.ndarray:
        """``predict(pool.X[rows])`` through the pool-score cache."""
        self._require_fitted()
        rows = np.asarray(rows, dtype=np.intp)
        P = self._pool_cache_for(pool)["P"]
        return _across_trees(P, rows, std=False)[0]

    def predict_with_uncertainty_pool(
        self, pool, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``predict_with_uncertainty(pool.X[rows])`` through the cache.

        ``pool`` is the :class:`~repro.space.DataPool` and ``rows`` its
        global row indices.  Bit-identical to the uncached call: the
        cached per-tree values come from the same comparisons, whether the
        rows are walked or split through the pool's bitmap index, and the
        mean/std reductions act per column, so slicing rows does not
        change any result.
        """
        self._require_fitted()
        rows = np.asarray(rows, dtype=np.intp)
        cache = self._pool_cache_for(pool)
        if self.uncertainty == "across_trees":
            return _across_trees(cache["P"], rows, std=True)
        # Copied to C order for the same reason as in _across_trees.
        P = np.ascontiguousarray(cache["P"][:, rows])
        V = np.ascontiguousarray(cache["V"][:, rows])
        return P.mean(axis=0), total_variance_std(P, V)

    def feature_importances(self) -> np.ndarray:
        """Normalised mean impurity importance across trees."""
        self._require_fitted()
        imp = np.mean([t.impurity_importances() for t in self.trees_], axis=0)
        total = imp.sum()
        return imp / total if total > 0 else imp

    @property
    def n_training_samples(self) -> int:
        return 0 if self._y is None else len(self._y)

    @property
    def training_targets(self) -> np.ndarray:
        """Labels the forest was fit on (used by incumbent-based strategies)."""
        self._require_fitted()
        if self._y is None:
            raise RuntimeError("this forest holds no training data (loaded from disk?)")
        return self._y

    # -- persistence -------------------------------------------------------
    def serialize(self) -> dict[str, np.ndarray]:
        """The format-2 payload: the packed node arrays and offsets."""
        if self.n_features_ is None:
            raise ValueError("cannot save an unfitted forest")
        packed = self.packed()
        payload: dict[str, np.ndarray] = {
            "format_version": np.asarray(_FORMAT_VERSION),
            "n_features": np.asarray(packed.n_features),
            "uncertainty": np.asarray(self.uncertainty),
            "offsets": packed.offsets,
        }
        for name, arr in packed.arrays().items():
            payload[f"packed_{name}"] = arr
        return payload

    @classmethod
    def deserialize(cls, payload: dict[str, np.ndarray]) -> "RandomForestRegressor":
        """Rebuild a forest from a format-2 payload; ``ValueError`` for any
        other version or for node arrays :class:`PackedForest` refuses."""
        version = int(payload["format_version"])
        uncertainty = str(payload["uncertainty"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported forest format version {version} "
                f"(this build reads only version {_FORMAT_VERSION})"
            )
        packed = PackedForest(
            *(np.asarray(payload[f"packed_{name}"]) for name in FIELDS),
            offsets=np.asarray(payload["offsets"]),
            n_features=int(payload["n_features"]),
        )
        model = cls(n_estimators=packed.n_trees, uncertainty=uncertainty)
        model._packed = packed
        model.n_features_ = packed.n_features
        return model

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unfitted" if self.n_features_ is None else f"{self.n_estimators} trees"
        return f"RandomForestRegressor({state}, n={self.n_training_samples})"
