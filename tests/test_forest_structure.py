"""Structural invariants of fitted trees and forests."""

import numpy as np
import pytest

from repro.forest import RandomForestRegressor, RegressionTree


class TestTreeStructure:
    def test_node_count_consistency(self, rng):
        X = rng.random((80, 3))
        tree = RegressionTree(rng=rng).fit(X, rng.normal(size=80))
        # Binary tree: internal = leaves - 1.
        internal = tree.n_nodes - tree.n_leaves
        assert internal == tree.n_leaves - 1

    def test_depth_at_least_log_leaves(self, rng):
        X = rng.random((100, 3))
        tree = RegressionTree(rng=rng).fit(X, rng.normal(size=100))
        assert tree.depth() >= np.ceil(np.log2(tree.n_leaves))

    def test_children_partition_counts(self, rng):
        X = rng.random((120, 2))
        tree = RegressionTree(rng=rng).fit(X, rng.normal(size=120))
        internal = np.flatnonzero(tree.feature_ != -1)
        for i in internal:
            assert (
                tree.count_[tree.left_[i]] + tree.count_[tree.right_[i]]
                == tree.count_[i]
            )

    def test_leaf_values_are_leaf_means(self, rng):
        X = rng.random((60, 2))
        y = rng.normal(size=60)
        tree = RegressionTree(rng=rng).fit(X, y)
        leaves = tree.apply(X)
        for leaf in np.unique(leaves):
            members = y[leaves == leaf]
            assert tree.value_[leaf] == pytest.approx(members.mean())

    def test_repeated_predict_is_stable(self, rng):
        X = rng.random((50, 2))
        tree = RegressionTree(rng=rng).fit(X, rng.normal(size=50))
        q = rng.random((30, 2))
        assert np.array_equal(tree.predict(q), tree.predict(q))


class TestForestStructure:
    def test_trees_differ_under_bootstrap(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=5, seed=0).fit(X, y)
        structures = {t.n_nodes for t in rf.trees_}
        # Bootstrap + subspace randomness: trees are almost surely distinct.
        preds = [t.predict(X[:20]) for t in rf.trees_]
        distinct = any(
            not np.array_equal(preds[0], p) for p in preds[1:]
        ) or len(structures) > 1
        assert distinct

    def test_more_trees_reduce_prediction_variance(self, regression_data):
        """Across refits with different seeds, a bigger ensemble's mean
        prediction wobbles less — the basic bagging variance effect."""
        X, y = regression_data
        q = X[:1]

        def spread(n_estimators):
            preds = [
                RandomForestRegressor(n_estimators=n_estimators, seed=s)
                .fit(X, y)
                .predict(q)[0]
                for s in range(8)
            ]
            return np.std(preds)

        assert spread(25) < spread(2)
