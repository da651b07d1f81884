"""Bagging random-forest regressor with predictive uncertainty.

Implements the surrogate of Section II-B: bootstrap-aggregated CART trees
with a random feature subspace per split, mean prediction, and an
uncertainty estimate used by every sampling strategy.  Also supports the
"update partially" variant mentioned in Fig. 1 / Algorithm 1: instead of
refitting all trees on the enlarged training set, refresh only a fraction.

Inference goes through :class:`~repro.forest.packed.PackedForest`: the
query matrix is validated once at the forest level and all trees are
traversed in one call (the historical per-tree Python loop re-validated
the same matrix once per tree) — by the C kernel's blocked routing-table
traversal when it is loaded, by a numpy level-synchronous loop otherwise.
For pool scoring the forest additionally keeps a per-tree prediction cache
keyed by tree *generation* (:meth:`predict_with_uncertainty_pool`), so a
partial ``update()`` only re-scores the refreshed trees.  The
``across_trees`` mean and std come from the kernel's reduction, which
reads the cached matrix through the requested rows without copying them;
the numpy fallback copies and reduces.  All paths are bit-identical to the
per-tree reference — ``tests/test_trace_equivalence.py`` pins this.
"""

from __future__ import annotations

import numpy as np

from repro.forest import _cgrower
from repro.forest.packed import PackedForest
from repro.forest.tree import RegressionTree
from repro.forest.uncertainty import across_tree_std, total_variance_std
from repro.rng import as_generator
from repro.telemetry import counters, span

__all__ = ["RandomForestRegressor"]


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


class RandomForestRegressor:
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
    presort:
        Passed to each tree: grow with the presorted splitter (default) or
        the per-node argsort reference path (trace-equivalent, slower).
    """

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
        presort: bool = True,
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
        self.presort = presort
        self.rng = as_generator(seed)
        self.trees_: list[RegressionTree] = []
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._packed: PackedForest | None = None
        # Monotone per-tree generation stamps: bumped on every (re)fit of a
        # tree, compared by the pool-score cache to find stale entries.
        self._generation = 0
        self._tree_gens = np.zeros(n_estimators, dtype=np.int64)
        self._pool_cache: dict | None = None

    # -- fitting -----------------------------------------------------------
    def _fit_one_tree(self, X: np.ndarray, y: np.ndarray) -> RegressionTree:
        tree = RegressionTree(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            rng=self.rng,
            presort=self.presort,
        )
        if self.bootstrap:
            idx = self.rng.integers(0, len(X), size=len(X))
            tree.fit(X[idx], y[idx])
        else:
            tree.fit(X, y)
        return tree

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit all trees from scratch on ``(X, y)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        self._X, self._y = X.copy(), y.copy()
        with span("forest.fit", trees=self.n_estimators, n_train=len(y)):
            self.trees_ = [
                self._fit_one_tree(X, y) for _ in range(self.n_estimators)
            ]
        counters.inc("forest.trees_fit", self.n_estimators)
        self._packed = None
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
        refreshed so new data is never silently dropped.
        """
        if self._X is None or self._y is None:
            return self.fit(X_new, y_new)
        if not 0.0 < refresh_fraction <= 1.0:
            raise ValueError(f"refresh_fraction must be in (0, 1], got {refresh_fraction}")
        X_new = np.atleast_2d(np.asarray(X_new, dtype=np.float64))
        y_new = np.atleast_1d(np.asarray(y_new, dtype=np.float64))
        if len(X_new) != len(y_new):
            raise ValueError(f"X_new has {len(X_new)} rows but y_new has {len(y_new)}")
        self._X = np.vstack([self._X, X_new])
        self._y = np.concatenate([self._y, y_new])
        n_refresh = max(1, int(round(refresh_fraction * self.n_estimators)))
        which = self.rng.choice(self.n_estimators, size=n_refresh, replace=False)
        with span("forest.update", refreshed=n_refresh, n_train=len(self._y)):
            for t in which:
                self.trees_[t] = self._fit_one_tree(self._X, self._y)
        counters.inc("forest.trees_fit", n_refresh)
        self._packed = None
        self._generation += 1
        self._tree_gens[which] = self._generation
        return self

    # -- inference ------------------------------------------------------------
    def _require_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("forest is not fitted; call fit() first")

    def _check_query(self, X: np.ndarray) -> np.ndarray:
        """Validate/convert a query matrix once for the whole ensemble."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n_features = self.trees_[0].n_features_
        if X.shape[1] != n_features:
            raise ValueError(
                f"query has {X.shape[1]} features, forest was fit on {n_features}"
            )
        return X

    def packed(self) -> PackedForest:
        """The ensemble's packed SoA form, rebuilt lazily after (re)fits."""
        self._require_fitted()
        if self._packed is None:
            self._packed = PackedForest.from_trees(self.trees_)
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
    def _pool_cache_for(self, pool_X: np.ndarray) -> dict:
        """The per-tree pool-statistics cache, refreshed for ``pool_X``.

        The cache holds per-tree predictions ``P`` (and leaf variances
        ``V`` when the ``total_variance`` estimator needs them) for *every*
        row of ``pool_X``, stamped with each tree's generation.  A partial
        ``update()`` bumps only the refreshed trees' stamps, so the next
        call re-scores just those trees; rows removed from the pool are
        simply never requested again, so no eager invalidation is needed.
        The cache is keyed by the identity of ``pool_X`` (the pool matrix
        is immutable and lives for the whole run — see
        :class:`repro.space.DataPool`).
        """
        need_v = self.uncertainty == "total_variance"
        cache = self._pool_cache
        if cache is None or cache["ref"] is not pool_X or (
            need_v and cache["V"] is None
        ):
            counters.inc("forest.pool_cache.misses")
            with span("forest.pool_score", trees=self.n_estimators, full=1):
                Xv = self._check_query(pool_X)
                packed = self.packed()
                if need_v:
                    P, V, _ = packed.leaf_stats_all(Xv)
                else:
                    P = packed.predict_all(Xv)
                    V = None
            cache = self._pool_cache = {
                "ref": pool_X,
                "Xv": Xv,
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
                    packed = self.packed()
                    if need_v:
                        leaves = packed._descend(cache["Xv"], stale)
                        cache["P"][stale] = packed.value[leaves]
                        cache["V"][stale] = packed.variance[leaves]
                    else:
                        cache["P"][stale] = packed.predict_trees(
                            cache["Xv"], stale
                        )
                cache["gens"] = self._tree_gens.copy()
        return cache

    def predict_pool(self, pool_X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``predict(pool_X[rows])`` through the pool-score cache."""
        self._require_fitted()
        rows = np.asarray(rows, dtype=np.intp)
        P = self._pool_cache_for(pool_X)["P"]
        return _across_trees(P, rows, std=False)[0]

    def predict_with_uncertainty_pool(
        self, pool_X: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``predict_with_uncertainty(pool_X[rows])`` through the cache.

        Bit-identical to the uncached call: the cached per-tree values are
        produced by the same packed traversal, and the mean/std reductions
        act per column, so slicing rows does not change any result.
        """
        self._require_fitted()
        rows = np.asarray(rows, dtype=np.intp)
        cache = self._pool_cache_for(pool_X)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{len(self.trees_)} trees" if self.trees_ else "unfitted"
        return f"RandomForestRegressor({state}, n={self.n_training_samples})"
