"""Tests for the regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import RegressionTree


class TestFitValidation:
    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            RegressionTree().fit(np.zeros(5), np.zeros(5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            RegressionTree().fit(np.zeros((5, 2)), np.zeros(4))

    def test_targets_must_be_1d(self):
        # The C grower reads y as one double per row.
        with pytest.raises(ValueError, match="1-D"):
            RegressionTree().fit(np.zeros((5, 2)), np.zeros((5, 0)))

    def test_zero_samples(self):
        with pytest.raises(ValueError, match="zero samples"):
            RegressionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_non_finite_rejected(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="finite"):
            RegressionTree().fit(X, np.array([1.0, np.nan, 2.0]))

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            RegressionTree(min_samples_split=1)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RegressionTree().predict(np.zeros((1, 2)))


class TestFitting:
    def test_interpolates_training_data_when_unconstrained(self, rng):
        X = rng.random((60, 3))
        y = rng.normal(size=60)
        tree = RegressionTree(rng=rng).fit(X, y)
        # With distinct rows and min_samples_leaf=1 each point gets its leaf.
        assert np.allclose(tree.predict(X), y, atol=1e-10)

    def test_constant_target_single_leaf(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        tree = RegressionTree().fit(X, np.full(20, 7.0))
        assert tree.n_nodes == 1
        assert tree.predict(X).tolist() == [7.0] * 20

    def test_max_depth_limits_depth(self, rng):
        X = rng.random((200, 3))
        y = rng.normal(size=200)
        tree = RegressionTree(max_depth=3, rng=rng).fit(X, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf_respected(self, rng):
        X = rng.random((100, 2))
        y = rng.normal(size=100)
        tree = RegressionTree(min_samples_leaf=10, rng=rng).fit(X, y)
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 10

    def test_predictions_within_target_range(self, rng):
        X = rng.random((80, 4))
        y = rng.normal(size=80)
        tree = RegressionTree(rng=rng).fit(X, y)
        pred = tree.predict(rng.random((500, 4)))
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_step_function_learned_exactly(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.6).astype(float) * 3.0
        tree = RegressionTree().fit(X, y)
        assert tree.predict(np.array([[0.1], [0.9]])).tolist() == [0.0, 3.0]


class TestInference:
    def test_apply_returns_leaves(self, rng):
        X = rng.random((50, 2))
        tree = RegressionTree(rng=rng).fit(X, rng.normal(size=50))
        leaves = tree.apply(X)
        assert (tree.feature_[leaves] == -1).all()

    def test_wrong_feature_count_rejected(self, rng):
        tree = RegressionTree(rng=rng).fit(rng.random((10, 3)), rng.normal(size=10))
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((2, 4)))

    def test_leaf_stats_consistent_with_predict(self, rng):
        X = rng.random((60, 2))
        y = rng.normal(size=60)
        tree = RegressionTree(min_samples_leaf=5, rng=rng).fit(X, y)
        mean, var, count = tree.leaf_stats(X)
        assert np.allclose(mean, tree.predict(X))
        assert (var >= 0).all()
        assert (count >= 5).all()

    def test_single_row_query(self, rng):
        tree = RegressionTree(rng=rng).fit(rng.random((20, 2)), rng.normal(size=20))
        assert tree.predict(np.zeros(2)).shape == (1,)


class TestMaxFeatures:
    @pytest.mark.parametrize(
        "mf,expected",
        [(None, 9), ("all", 9), ("sqrt", 3), ("third", 3), (5, 5), (0.5, 4)],
    )
    def test_n_split_features(self, mf, expected):
        assert RegressionTree(max_features=mf)._n_split_features(9) == expected

    def test_invalid_settings(self):
        tree = RegressionTree(max_features=0)
        with pytest.raises(ValueError):
            tree._n_split_features(5)
        with pytest.raises(ValueError):
            RegressionTree(max_features=1.5)._n_split_features(5)
        with pytest.raises(ValueError):
            RegressionTree(max_features="nope")._n_split_features(5)

    def test_third_floors_at_one(self):
        assert RegressionTree(max_features="third")._n_split_features(2) == 1


class TestImportances:
    def test_informative_feature_dominates(self, rng):
        X = rng.random((200, 3))
        y = 10.0 * X[:, 1] + rng.normal(0, 0.01, 200)
        tree = RegressionTree(rng=rng).fit(X, y)
        imp = tree.impurity_importances()
        assert imp.argmax() == 1

    def test_importances_nonnegative(self, rng):
        X = rng.random((100, 4))
        tree = RegressionTree(rng=rng).fit(X, rng.normal(size=100))
        assert (tree.impurity_importances() >= 0).all()


@given(seed=st.integers(0, 5000), leaf=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_property_leaf_counts_partition_training_set(seed, leaf):
    """Every training sample lands in exactly one leaf; counts sum to n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 80))
    X = rng.random((n, 3))
    y = rng.normal(size=n)
    tree = RegressionTree(min_samples_leaf=leaf, rng=rng).fit(X, y)
    leaves = tree.apply(X)
    _, counts = np.unique(leaves, return_counts=True)
    assert counts.sum() == n
    assert counts.min() >= 1
