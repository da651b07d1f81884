"""Unit tests for the packed-forest SoA and the v2 serialisation format."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.forest._cgrower as _cgrower
from repro.envelope import EnvelopeError
from repro.forest import PackedForest, RandomForestRegressor
from repro.forest.packed import FIELDS
from repro.space import DataPool
from repro.surrogate import load_surrogate, save_surrogate

_TREE_FIELDS = (
    "feature_",
    "threshold_",
    "left_",
    "right_",
    "value_",
    "variance_",
    "count_",
    "impurity_",
)


def _fitted_forest(rng, n=120, d=5, n_estimators=6, **kw):
    X = rng.normal(size=(n, d))
    y = np.abs(rng.normal(size=n)) + 0.1
    return RandomForestRegressor(n_estimators=n_estimators, seed=rng, **kw).fit(X, y), X


def _one_tree(feature, threshold, left, right, n_features=1):
    """A single-tree PackedForest from hand-written node arrays; each
    node's value is its id, so predictions name the leaf reached."""
    n = len(feature)
    return PackedForest(
        np.asarray(feature), np.asarray(threshold, dtype=np.float64),
        np.asarray(left), np.asarray(right), np.arange(n, dtype=np.float64),
        np.zeros(n), np.ones(n, dtype=np.intp), np.zeros(n),
        offsets=np.array([0, n]), n_features=n_features,
    )


class TestPacking:
    def test_from_trees_to_trees_round_trip(self, rng):
        model, _ = _fitted_forest(rng)
        packed = PackedForest.from_trees(model.trees_)
        assert packed.n_trees == len(model.trees_)
        assert packed.n_nodes == sum(len(t.feature_) for t in model.trees_)
        back = packed.to_trees()
        for orig, restored in zip(model.trees_, back):
            for field in _TREE_FIELDS:
                a, b = getattr(orig, field), getattr(restored, field)
                assert a.dtype == b.dtype
                assert (a == b).all(), field
            assert restored.n_features_ == orig.n_features_

    def test_child_links_are_rebased_to_global_ids(self, rng):
        model, _ = _fitted_forest(rng)
        packed = PackedForest.from_trees(model.trees_)
        internal = packed.feature >= 0
        # Every internal node's children land inside the same tree's slice.
        tree_of = np.searchsorted(packed.offsets, np.arange(packed.n_nodes), "right") - 1
        for child in (packed.left[internal], packed.right[internal]):
            assert (child >= 0).all()
            assert (tree_of[child] == tree_of[np.flatnonzero(internal)]).all()
        # Leaves carry no children.
        assert (packed.left[~internal] == -1).all()
        assert (packed.right[~internal] == -1).all()

    def test_from_trees_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            PackedForest.from_trees([])

    def test_offsets_validation(self, rng):
        model, _ = _fitted_forest(rng, n_estimators=2)
        packed = PackedForest.from_trees(model.trees_)
        arrays = packed.arrays()
        with pytest.raises(ValueError, match="offsets"):
            PackedForest(*arrays.values(), offsets=np.array([0]), n_features=5)
        bad = packed.offsets.copy()
        bad[-1] += 3
        with pytest.raises(ValueError, match="nodes"):
            PackedForest(*arrays.values(), offsets=bad, n_features=5)

    @pytest.mark.parametrize("target", ["self", "parent", "other-tree"])
    def test_direct_construction_checks_child_order(self, rng, target):
        model, _ = _fitted_forest(rng, n_estimators=2)
        packed = PackedForest.from_trees(model.trees_)
        arrays = {k: v.copy() for k, v in packed.arrays().items()}
        offsets = packed.offsets
        node = int(np.flatnonzero(arrays["feature"] >= 0)[1])
        arrays["left"][node] = {
            "self": node, "parent": 0, "other-tree": int(offsets[-1]) - 1,
        }[target]
        with pytest.raises(ValueError, match="child"):
            PackedForest(*arrays.values(), offsets=offsets, n_features=5)

    def test_route_builder_rejects_child_order(self):
        """The C table builder checks the order it relies on by itself."""
        kernel = _cgrower.load()
        if kernel is None:
            pytest.skip("C kernel unavailable in this environment")
        from repro.forest.packed import ROUTE

        feature = np.array([0, -1, -1], dtype=np.intp)
        threshold = np.zeros(3)
        table = np.empty(3, dtype=ROUTE)
        for left, right in (([2, -1, -1], [0, -1, -1]), ([1, -1, -1], [3, -1, -1])):
            left = np.array(left, dtype=np.intp)
            right = np.array(right, dtype=np.intp)
            assert kernel.build_routes(
                feature.ctypes.data, threshold.ctypes.data, left.ctypes.data,
                right.ctypes.data, 3, 1, table.ctypes.data,
            ) == -1
        left = np.array([1, -1, -1], dtype=np.intp)
        right = np.array([2, -1, -1], dtype=np.intp)
        assert kernel.build_routes(
            feature.ctypes.data, threshold.ctypes.data, left.ctypes.data,
            right.ctypes.data, 3, 1, table.ctypes.data,
        ) == 0
        assert table["height"].tolist() == [1, 0, 0]
        assert table["go"].tolist() == [[2, 1], [1, 1], [2, 2]]


class TestTraversal:
    def test_predict_all_matches_per_tree_loop(self, rng, kernel_mode):
        model, X = _fitted_forest(rng)
        Q = np.ascontiguousarray(X[:40])
        packed = PackedForest.from_trees(model.trees_)
        expected = np.stack([t.predict(Q) for t in model.trees_])
        assert (packed.predict_all(Q) == expected).all()

    def test_apply_matches_per_tree_apply(self, rng, kernel_mode):
        model, X = _fitted_forest(rng)
        Q = np.ascontiguousarray(X[:40])
        packed = PackedForest.from_trees(model.trees_)
        leaves = packed.apply(Q)
        for t, tree in enumerate(model.trees_):
            assert (leaves[t] - int(packed.offsets[t]) == tree.apply(Q)).all()

    def test_leaf_stats_all_matches_per_tree(self, rng, kernel_mode):
        model, X = _fitted_forest(rng)
        Q = np.ascontiguousarray(X[:40])
        packed = PackedForest.from_trees(model.trees_)
        M, V, C = packed.leaf_stats_all(Q)
        for t, tree in enumerate(model.trees_):
            m, v, c = tree.leaf_stats(Q)
            assert (M[t] == m).all() and (V[t] == v).all() and (C[t] == c).all()

    def test_predict_trees_subset(self, rng, kernel_mode):
        model, X = _fitted_forest(rng, n_estimators=8)
        Q = np.ascontiguousarray(X[:25])
        packed = PackedForest.from_trees(model.trees_)
        ids = np.array([6, 0, 3])
        sub = packed.predict_trees(Q, ids)
        assert sub.shape == (3, 25)
        full = packed.predict_all(Q)
        assert (sub == full[ids]).all()


class TestTraversalEdgeCases:
    """Block boundaries, degenerate shapes and non-finite queries route
    exactly as the per-tree reference and the numpy loop do."""

    @pytest.mark.parametrize("n_rows", [0, 1, 15, 16, 17, 33])
    def test_row_counts_around_the_block_size(self, rng, kernel_mode, n_rows):
        model, _ = _fitted_forest(rng, n_estimators=7)
        Q = rng.normal(size=(n_rows, 5))
        packed = PackedForest.from_trees(model.trees_)
        leaves = packed.apply(Q)
        assert leaves.shape == (7, n_rows) and leaves.dtype == np.intp
        assert (leaves == packed._descend_numpy(Q, packed.offsets[:-1])).all()
        for t, tree in enumerate(model.trees_):
            assert (leaves[t] - int(packed.offsets[t]) == tree.apply(Q)).all()
        expected = np.stack([t.predict(Q) for t in model.trees_])
        assert packed.predict_all(Q).tobytes() == expected.tobytes()

    def test_single_leaf_trees(self, rng, kernel_mode):
        from repro.forest import RegressionTree

        X = rng.normal(size=(40, 3))
        stump = RegressionTree().fit(X[:1], np.array([2.5]))
        grown = RegressionTree(rng=rng).fit(X, np.abs(X[:, 0]) + 0.1)
        assert stump.n_nodes == 1
        packed = PackedForest.from_trees([stump, grown, stump])
        Q = rng.normal(size=(35, 3))
        leaves = packed.apply(Q)
        assert (leaves[0] == 0).all()
        assert (leaves[2] == packed.offsets[2]).all()
        assert (leaves[1] - packed.offsets[1] == grown.apply(Q)).all()
        P = packed.predict_all(Q)
        assert (P[0] == 2.5).all() and (P[2] == 2.5).all()
        assert (P[1] == grown.predict(Q)).all()

    @staticmethod
    def _chain(depth):
        """Internal node 2k tests x <= k, sends that to leaf 2k+1 and the
        rest on to 2k+2; the last node, 2*depth, is a leaf."""
        n = 2 * depth + 1
        feature = np.full(n, -1)
        threshold = np.zeros(n)
        left = np.full(n, -1)
        right = np.full(n, -1)
        for k in range(depth):
            feature[2 * k] = 0
            threshold[2 * k] = k
            left[2 * k], right[2 * k] = 2 * k + 1, 2 * k + 2
        return _one_tree(feature, threshold, left, right)

    def test_unbalanced_chain(self, kernel_mode):
        depth = 45
        packed = self._chain(depth)
        x = np.array([-1.0, 0.0, 0.5, 17.5, 44.0, 44.5, 100.0, np.nan,
                      np.inf, -np.inf] + list(np.linspace(-2, 50, 40)))
        Q = x[:, None]
        expected = np.array([
            2 * int(np.ceil(max(v, 0))) + 1 if v <= depth - 1 else 2 * depth
            for v in x
        ])
        assert (packed.apply(Q)[0] == expected).all()
        assert (packed.predict_all(Q)[0] == expected).all()
        (tree,) = packed.to_trees()
        assert (tree.apply(Q) == expected).all()

    def test_non_finite_queries_route_like_less_equal(self, rng, kernel_mode):
        model, X = _fitted_forest(rng, n_estimators=8)
        Q = np.array(X[:40])
        special = [np.nan, np.inf, -np.inf]
        Q.flat[rng.choice(Q.size, size=60, replace=False)] = np.resize(special, 60)
        packed = PackedForest.from_trees(model.trees_)
        leaves = packed.apply(Q)
        assert (leaves == packed._descend_numpy(Q, packed.offsets[:-1])).all()
        for t, tree in enumerate(model.trees_):
            assert (leaves[t] - int(packed.offsets[t]) == tree.apply(Q)).all()
        # A NaN or +inf feature fails every `x <= threshold` test.
        stump = _one_tree([0, -1, -1], [0.0, 0, 0], [1, -1, -1], [2, -1, -1])
        got = stump.apply(np.array([[np.nan], [np.inf], [-np.inf], [0.0]]))
        assert got[0].tolist() == [2, 2, 1, 1]

    def test_predict_trees_repeated_and_unsorted_ids(self, rng, kernel_mode):
        model, X = _fitted_forest(rng, n_estimators=6)
        Q = X[:21]
        packed = PackedForest.from_trees(model.trees_)
        ids = [4, 1, 4, 0, 5, 0, 2]
        full = packed.predict_all(Q)
        assert (packed.predict_trees(Q, ids) == full[ids]).all()
        assert packed.predict_trees(Q, []).shape == (0, 21)

    def test_shared_children_chain_is_linear(self, kernel_mode):
        """left == right == i + 1 passes the structure check and has 2**50
        root-to-leaf paths; routing must still take 50 steps."""
        n = 50
        ids = np.arange(1, n + 1)
        packed = _one_tree(
            np.r_[np.zeros(n, dtype=int), -1], np.zeros(n + 1),
            np.r_[ids, -1], np.r_[ids, -1],
        )
        Q = np.array([[-1.0], [0.0], [1.0], [np.nan]])
        t0 = time.perf_counter()
        leaves = packed.apply(Q)
        assert time.perf_counter() - t0 < 1.0
        assert (leaves == n).all()


class TestUncheckedInput:
    """Bad queries and tree ids raise the same error in both kernel modes
    before anything reads them (5 trees, 6 features)."""

    @pytest.fixture
    def forest(self, rng):
        model, X = _fitted_forest(rng, d=6, n_estimators=5)
        return PackedForest.from_trees(model.trees_), X[:20]

    def test_tree_id_past_the_end(self, forest, kernel_mode):
        packed, X = forest
        with pytest.raises(IndexError):
            packed.predict_trees(X, [packed.n_trees])

    def test_negative_tree_id(self, forest, kernel_mode):
        packed, X = forest
        with pytest.raises(IndexError):
            packed.predict_trees(X, [-1])
        with pytest.raises(IndexError):
            packed.predict_trees(X[:0], [0, -1])

    def test_too_few_columns(self, forest, kernel_mode):
        packed, X = forest
        for method in (packed.apply, packed.predict_all, packed.leaf_stats_all):
            with pytest.raises(ValueError, match="6 columns"):
                method(X[:, :2])
        with pytest.raises(ValueError, match="6 columns"):
            packed.predict_trees(X[:, :2], [0])

    def test_one_dimensional_query(self, forest, kernel_mode):
        packed, X = forest
        with pytest.raises(ValueError, match="2-D"):
            packed.apply(X[0])

    def test_integer_query_is_converted(self, forest, kernel_mode):
        packed, X = forest
        Xi = (X * 3).astype(np.int64)
        expected = packed.predict_all(Xi.astype(np.float64))
        assert (packed.predict_all(Xi) == expected).all()
        assert (packed.predict_trees(Xi, [3, 1]) == expected[[3, 1]]).all()
        Xf = np.asfortranarray(X)
        assert (packed.apply(Xf) == packed.apply(X)).all()


class TestPoolRows:
    """Pool scoring follows numpy's indexing contract for ``rows``."""

    @pytest.fixture
    def scored(self, rng):
        model, _ = _fitted_forest(rng, n_estimators=9)
        pool = rng.normal(size=(60, 5))
        P = np.stack([t.predict(pool) for t in model.trees_])
        return model, pool, P

    @staticmethod
    def _reference(P, rows):
        C = np.ascontiguousarray(P[:, rows])
        return C.mean(axis=0), C.std(axis=0)

    @pytest.mark.parametrize(
        "rows", [[-1, -60, 5, -7], [], [13], [-2], list(range(60))[::-1]],
        ids=["negative", "empty", "one", "one-negative", "all-reversed"],
    )
    def test_rows_behave_as_numpy_indexing(self, scored, kernel_mode, rows):
        model, pool, P = scored
        rows = np.asarray(rows, dtype=np.intp)
        mu_ref, sd_ref = self._reference(P, rows)
        mu, sd = model.predict_with_uncertainty_pool(DataPool(pool), rows)
        assert mu.tobytes() == mu_ref.tobytes() and sd.tobytes() == sd_ref.tobytes()
        assert model.predict_pool(DataPool(pool), rows).tobytes() == mu_ref.tobytes()
        mu_q, sd_q = model.predict_with_uncertainty(pool[rows])
        assert mu.tobytes() == mu_q.tobytes() and sd.tobytes() == sd_q.tobytes()

    @pytest.mark.parametrize("bad", [60, -61, 10**9])
    def test_out_of_range_rows_raise(self, scored, kernel_mode, bad):
        model, pool, _ = scored
        rows = np.array([0, bad, 3])
        with pytest.raises(IndexError):
            model.predict_with_uncertainty_pool(DataPool(pool), rows)
        with pytest.raises(IndexError):
            model.predict_pool(DataPool(pool), rows)


def _discrete_pool(r, n, d, max_levels=31, specials=False):
    """An ``(n, d)`` pool whose features take 2..max_levels values each;
    with ``specials``, levels include -0.0, 0.0 and +-inf, and some rows
    hold NaN in one feature or in all of them."""
    cols = []
    for _ in range(d):
        grid = np.arange(-60, 60) * 0.75
        lv = r.choice(grid, size=int(r.integers(2, max_levels + 1)), replace=False)
        if specials:
            lv[: min(4, len(lv))] = [-0.0, 0.0, np.inf, -np.inf][: min(4, len(lv))]
        cols.append(r.choice(lv, size=n))
    X = np.stack(cols, axis=1)
    if specials and n > 2:
        X[r.random(n) < 0.05, int(r.integers(d))] = np.nan
        X[int(r.integers(n))] = np.nan
    return X


def _training_rows(r, pool_X, n):
    """Training rows drawn from the pool's finite levels, feature by feature."""
    cols = []
    for col in pool_X.T:
        finite = col[np.isfinite(col)]
        cols.append(r.choice(finite if len(finite) else np.zeros(1), size=n))
    return np.stack(cols, axis=1)


class TestPoolBitmapRouting:
    """Pool scoring through the pool's bitmap index is bit-identical to
    scoring the same rows as a plain query, in both kernel modes."""

    @pytest.fixture
    def bitmap_calls(self, kernel_mode, monkeypatch):
        """Counts the kernel calls that route through a bitmap index and
        returns ``expect(n)``: whether there were ``n`` of them with the
        kernel, none in the numpy fallback."""
        calls = []
        if kernel_mode == "c-kernel":
            kernel = _cgrower.load()
            traverse_pool = kernel.traverse_pool

            def counted(*args):
                calls.append(args)
                return traverse_pool(*args)

            monkeypatch.setattr(kernel, "traverse_pool", counted)
            return lambda n: len(calls) == n
        return lambda n: calls == []

    @staticmethod
    def _assert_scores_match(model, pool, rows):
        mu, sd = model.predict_with_uncertainty_pool(pool, rows)
        mu_q, sd_q = model.predict_with_uncertainty(pool.X[rows])
        assert mu.tobytes() == mu_q.tobytes() and sd.tobytes() == sd_q.tobytes()
        mu_p = model.predict_pool(pool, rows)
        assert mu_p.tobytes() == model.predict(pool.X[rows]).tobytes()

    @staticmethod
    def _assert_leaves_match(packed, pool, tree_ids):
        leaves = packed._descend(pool.X, tree_ids, pool=pool)
        roots = packed.offsets[np.asarray(tree_ids, dtype=np.intp)]
        assert (leaves == packed._descend_numpy(pool.X, roots)).all()
        values = packed._descend(pool.X, tree_ids, values=True, pool=pool)
        assert values.tobytes() == packed.value[leaves].tobytes()

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 400, 7000])
    @pytest.mark.parametrize("uncertainty", ["across_trees", "total_variance"])
    def test_row_counts(self, bitmap_calls, n_rows, uncertainty):
        r = np.random.default_rng(n_rows)
        for trial in range(3 if n_rows < 7000 else 1):
            d = int(r.integers(1, 39))
            pool = DataPool(_discrete_pool(r, n_rows, d, specials=trial > 0))
            assert pool.bitmap_index() is not None
            n_train = int(r.integers(2, 80))
            X = _training_rows(r, pool.X, n_train)
            y = np.abs(r.normal(size=n_train)) + 0.1
            model = RandomForestRegressor(
                n_estimators=int(r.integers(1, 31)), seed=trial,
                uncertainty=uncertainty,
            ).fit(X, y)
            rows = np.sort(r.permutation(n_rows)[: max(1, n_rows // 2)])
            self._assert_scores_match(model, pool, rows)
            self._assert_scores_match(model, pool, np.arange(n_rows))
        assert bitmap_calls(3 if n_rows < 7000 else 1)

    def test_features_and_levels(self, bitmap_calls):
        r = np.random.default_rng(38)
        for d, max_levels in ((1, 2), (1, 31), (5, 3), (17, 31), (38, 2), (38, 31)):
            pool = DataPool(_discrete_pool(r, 900, d, max_levels, specials=True))
            X = _training_rows(r, pool.X, 120)
            y = np.exp(r.normal(size=120))
            model = RandomForestRegressor(n_estimators=12, seed=d).fit(X, y)
            self._assert_scores_match(model, pool, np.arange(900))
            self._assert_leaves_match(model.packed(), pool, np.arange(12))
        assert bitmap_calls(6 * 3)

    def test_partial_update_rescoring(self, bitmap_calls):
        r = np.random.default_rng(5)
        for uncertainty in ("across_trees", "total_variance"):
            pool = DataPool(_discrete_pool(r, 2000, 7, specials=True))
            X = _training_rows(r, pool.X, 40)
            model = RandomForestRegressor(
                n_estimators=10, seed=3, uncertainty=uncertainty
            ).fit(X, np.abs(r.normal(size=40)) + 0.1)
            rows = np.arange(2000)
            for step in range(4):
                self._assert_scores_match(model, pool, rows)
                rows = rows[r.random(len(rows)) < 0.8]
                Xn = _training_rows(r, pool.X, 3)
                model.update(Xn, np.abs(r.normal(size=3)) + 0.1, refresh_fraction=0.3)
        # One cold scoring per estimator, then three stale re-scorings each.
        assert bitmap_calls(2 * 4)

    def test_leaf_ids_with_repeated_tree_ids(self, bitmap_calls):
        r = np.random.default_rng(9)
        pool = DataPool(_discrete_pool(r, 3000, 6, specials=True))
        X = _training_rows(r, pool.X, 200)
        model = RandomForestRegressor(n_estimators=6, seed=1).fit(
            X, np.exp(r.normal(size=200))
        )
        packed = model.packed()
        for ids in ([3, 3, 0, 5, 3], [1], [], list(range(6)) * 2):
            self._assert_leaves_match(packed, pool, ids)
        assert bitmap_calls(4 * 2)

    def test_loaded_forest_with_non_finite_thresholds(self, bitmap_calls):
        """Thresholds at NaN, +-inf, +-0.0 and exactly on a pool level."""
        r = np.random.default_rng(11)
        pool = DataPool(_discrete_pool(r, 1500, 5, specials=True))
        X = _training_rows(r, pool.X, 150)
        fitted = RandomForestRegressor(n_estimators=9, seed=2).fit(
            X, np.exp(r.normal(size=150))
        )
        payload = dict(fitted.serialize())
        feature = payload["packed_feature"]
        threshold = payload["packed_threshold"].copy()
        for node in np.flatnonzero(feature >= 0):
            if r.random() < 0.5:
                col = pool.X[:, feature[node]]
                threshold[node] = r.choice(
                    [np.nan, np.inf, -np.inf, 0.0, -0.0, r.choice(col)]
                )
        payload["packed_threshold"] = threshold
        model = RandomForestRegressor.deserialize(payload)
        self._assert_scores_match(model, pool, np.arange(1500))
        self._assert_leaves_match(model.packed(), pool, np.arange(9))
        assert bitmap_calls(3)

    def test_nodes_on_both_sides_of_the_walk_switch(self, bitmap_calls):
        """128 rows make two words, so nodes of up to 8 rows walk.  The
        root (128 rows) and its left child (9) split bitsets; the latter's
        left child (8) walks on through two more splits."""
        n = 128
        X = np.zeros((n, 2))
        X[8, 0] = 1.0
        X[9:, 0] = 2.0
        X[:, 1] = np.arange(n) % 4
        pool = DataPool(X)
        assert pool.bitmap_index() is not None
        #        0: x0 <= 1.5
        #     1: x0 <= 0.5      2: leaf (119 rows)
        #  3: x1 <= 1.5   4: leaf (1 row)
        # 5: x1 <= 0.5  6: leaf
        # 7: leaf  8: leaf
        packed = PackedForest(
            np.array([0, 0, -1, 1, -1, 1, -1, -1, -1]),
            np.array([1.5, 0.5, 0, 1.5, 0, 0.5, 0, 0, 0]),
            np.array([1, 3, -1, 5, -1, 7, -1, -1, -1]),
            np.array([2, 4, -1, 6, -1, 8, -1, -1, -1]),
            np.arange(9, dtype=np.float64), np.zeros(9),
            np.ones(9, dtype=np.intp), np.zeros(9),
            offsets=np.array([0, 9]), n_features=2,
        )
        leaves = packed._descend(pool.X, pool=pool)[0]
        expected = np.full(n, 2)
        expected[8] = 4
        expected[:8] = np.where(X[:8, 1] <= 1.5, np.where(X[:8, 1] <= 0.5, 7, 8), 6)
        assert leaves.tolist() == expected.tolist()
        self._assert_leaves_match(packed, pool, [0, 0])
        assert bitmap_calls(3)

    def test_continuous_pool_gets_no_index(self, bitmap_calls):
        r = np.random.default_rng(2)
        pool = DataPool(r.normal(size=(3000, 4)))
        assert pool.bitmap_index() is None
        model = RandomForestRegressor(n_estimators=7, seed=0).fit(
            pool.X[:100], np.abs(r.normal(size=100)) + 0.1
        )
        self._assert_scores_match(model, pool, np.arange(0, 3000, 3))
        assert bitmap_calls(0)

    def test_query_must_be_the_pools_matrix(self, kernel_mode):
        r = np.random.default_rng(4)
        pool = DataPool(_discrete_pool(r, 100, 3))
        model = RandomForestRegressor(n_estimators=3, seed=0).fit(
            pool.X[:30], np.abs(r.normal(size=30)) + 0.1
        )
        with pytest.raises(ValueError, match="pool's own matrix"):
            model.packed()._descend(pool.X.copy(), pool=pool)


class TestSerializeV2:
    def test_round_trip_predictions_identical(self, rng, tmp_path):
        model, X = _fitted_forest(rng, uncertainty="total_variance")
        path = tmp_path / "forest.npz"
        save_surrogate(model, str(path))
        loaded = load_surrogate(str(path))
        assert loaded.uncertainty == "total_variance"
        assert (loaded.predict(X) == model.predict(X)).all()
        mu_a, sd_a = model.predict_with_uncertainty(X)
        mu_b, sd_b = loaded.predict_with_uncertainty(X)
        assert (mu_a == mu_b).all() and (sd_a == sd_b).all()
        assert (
            loaded.per_tree_predictions(X) == model.per_tree_predictions(X)
        ).all()

    def test_saved_file_is_packed_format(self, rng, tmp_path):
        model, _ = _fitted_forest(rng)
        path = tmp_path / "forest.npz"
        save_surrogate(model, str(path))
        with np.load(path) as data:
            assert int(data["format_version"]) == 2
            for name in FIELDS:
                assert f"packed_{name}" in data
            assert len(data["offsets"]) == len(model.trees_) + 1

    def test_unfitted_forest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_surrogate(RandomForestRegressor(), str(tmp_path / "x.npz"))

    def test_unknown_version_rejected(self, rng, tmp_path):
        model, _ = _fitted_forest(rng, n_estimators=2)
        path = tmp_path / "forest.npz"
        save_surrogate(model, str(path))
        with np.load(path) as data:
            payload = dict(data)
        for version in (1, 99):
            payload["format_version"] = np.asarray(version)
            np.savez_compressed(path, **payload)
            with pytest.raises(EnvelopeError, match=f"version {version}"):
                load_surrogate(str(path))
