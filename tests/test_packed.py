"""Unit tests for the packed-forest SoA and the v2 serialisation format."""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.forest._cgrower as _cgrower
from repro.envelope import EnvelopeError
from repro.forest import PackedForest, RandomForestRegressor, load_forest, save_forest
from repro.forest.packed import FIELDS

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
        mu, sd = model.predict_with_uncertainty_pool(pool, rows)
        assert mu.tobytes() == mu_ref.tobytes() and sd.tobytes() == sd_ref.tobytes()
        assert model.predict_pool(pool, rows).tobytes() == mu_ref.tobytes()
        mu_q, sd_q = model.predict_with_uncertainty(pool[rows])
        assert mu.tobytes() == mu_q.tobytes() and sd.tobytes() == sd_q.tobytes()

    @pytest.mark.parametrize("bad", [60, -61, 10**9])
    def test_out_of_range_rows_raise(self, scored, kernel_mode, bad):
        model, pool, _ = scored
        rows = np.array([0, bad, 3])
        with pytest.raises(IndexError):
            model.predict_with_uncertainty_pool(pool, rows)
        with pytest.raises(IndexError):
            model.predict_pool(pool, rows)


class TestSerializeV2:
    def test_round_trip_predictions_identical(self, rng, tmp_path):
        model, X = _fitted_forest(rng, uncertainty="total_variance")
        path = tmp_path / "forest.npz"
        save_forest(model, str(path))
        loaded = load_forest(str(path))
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
        save_forest(model, str(path))
        with np.load(path) as data:
            assert int(data["format_version"]) == 2
            for name in FIELDS:
                assert f"packed_{name}" in data
            assert len(data["offsets"]) == len(model.trees_) + 1

    def test_unfitted_forest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_forest(RandomForestRegressor(), str(tmp_path / "x.npz"))

    def test_unknown_version_rejected(self, rng, tmp_path):
        model, _ = _fitted_forest(rng, n_estimators=2)
        path = tmp_path / "forest.npz"
        save_forest(model, str(path))
        with np.load(path) as data:
            payload = dict(data)
        for version in (1, 99):
            payload["format_version"] = np.asarray(version)
            np.savez_compressed(path, **payload)
            with pytest.raises(EnvelopeError, match=f"version {version}"):
                load_forest(str(path))
