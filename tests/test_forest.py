"""Tests for the random-forest regressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import RandomForestRegressor


class TestValidation:
    def test_bad_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_bad_uncertainty(self):
        with pytest.raises(ValueError, match="uncertainty"):
            RandomForestRegressor(uncertainty="magic")

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            RandomForestRegressor().fit(np.zeros((4, 2)), np.zeros(3))

    def test_1d_X_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            RandomForestRegressor().fit(np.zeros(4), np.zeros(4))


def _with_bad_value(X, y, where, value):
    X, y = X.copy(), y.copy()
    if where == "X":
        X[7, 1] = value
    else:
        y[7] = value
    return X, y


class TestRejectedInputChangesNothing:
    """fit() and update() check their data and the tree hyper-parameters
    before touching the forest's state or drawing from its generator."""

    @staticmethod
    def _snapshot(rf, Q):
        return (
            rf.training_targets.copy(),
            rf.predict_with_uncertainty(Q),
            rf.rng.bit_generator.state,
            rf.n_training_samples,
        )

    @staticmethod
    def _assert_unchanged(rf, Q, before):
        targets, (mu, sd), state, n = before
        assert rf.training_targets.tobytes() == targets.tobytes()
        mu_now, sd_now = rf.predict_with_uncertainty(Q)
        assert mu_now.tobytes() == mu.tobytes() and sd_now.tobytes() == sd.tobytes()
        assert rf.rng.bit_generator.state == state
        assert rf.n_training_samples == n

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejected_fit(self, kernel_mode, regression_data, where, value):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=6, seed=3).fit(X[:40], y[:40])
        before = self._snapshot(rf, X[250:])
        Xb, yb = _with_bad_value(X[40:80], y[40:80] * 100.0, where, value)
        with pytest.raises(ValueError, match="finite"):
            rf.fit(Xb, yb)
        self._assert_unchanged(rf, X[250:], before)

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejected_update(self, kernel_mode, regression_data, where, value):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=6, seed=3).fit(X[:40], y[:40])
        before = self._snapshot(rf, X[250:])
        Xb, yb = _with_bad_value(X[40:50], y[40:50], where, value)
        with pytest.raises(ValueError, match="finite"):
            rf.update(Xb, yb, refresh_fraction=0.5)
        self._assert_unchanged(rf, X[250:], before)

    def test_rejected_hyper_parameters(self, kernel_mode, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=6, max_features=4, seed=3)
        rf.fit(X[:40], y[:40])
        before = self._snapshot(rf, X[250:])
        with pytest.raises(ValueError, match="max_features=4 out of range"):
            rf.fit(X[40:80, :3], y[40:80])
        rf.min_samples_leaf = 0
        with pytest.raises(ValueError, match="min_samples_leaf"):
            rf.update(X[40:50], y[40:50])
        self._assert_unchanged(rf, X[250:], before)

    @pytest.mark.parametrize("seed", range(50))
    def test_non_finite_data_rejected_whatever_the_bootstrap(
        self, kernel_mode, regression_data, seed
    ):
        """The check reads the whole training set, not the rows one
        tree's bootstrap happened to draw."""
        X, y = regression_data
        Xb, yb = _with_bad_value(X[:12], y[:12], "X", np.nan)
        with pytest.raises(ValueError, match="finite"):
            RandomForestRegressor(n_estimators=1, seed=seed).fit(Xb, yb)


class TestFitPredict:
    def test_learns_signal(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=20, seed=0).fit(X[:250], y[:250])
        pred = rf.predict(X[250:])
        err = np.sqrt(np.mean((pred - y[250:]) ** 2))
        assert err < 0.5 * y.std()

    def test_reproducible_with_seed(self, regression_data):
        X, y = regression_data
        p1 = RandomForestRegressor(n_estimators=10, seed=7).fit(X, y).predict(X[:20])
        p2 = RandomForestRegressor(n_estimators=10, seed=7).fit(X, y).predict(X[:20])
        assert np.array_equal(p1, p2)

    def test_per_tree_predictions_shape(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=12, seed=0).fit(X, y)
        P = rf.per_tree_predictions(X[:30])
        assert P.shape == (12, 30)

    def test_mean_of_trees_is_prediction(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=9, seed=1).fit(X, y)
        P = rf.per_tree_predictions(X[:15])
        assert np.allclose(rf.predict(X[:15]), P.mean(axis=0))

    def test_predictions_within_target_range(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=10, seed=2).fit(X, y)
        pred = rf.predict(np.random.default_rng(0).random((200, X.shape[1])))
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12

    def test_no_bootstrap_no_subspace_interpolates(self, rng):
        X = rng.random((50, 3))
        y = rng.normal(size=50)
        rf = RandomForestRegressor(
            n_estimators=5, bootstrap=False, max_features=None, seed=0
        ).fit(X, y)
        assert np.allclose(rf.predict(X), y, atol=1e-10)

    def test_n_training_samples(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=3, seed=0)
        assert rf.n_training_samples == 0
        rf.fit(X, y)
        assert rf.n_training_samples == len(y)


class TestUncertainty:
    def test_sigma_nonnegative(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=15, seed=3).fit(X, y)
        _, sigma = rf.predict_with_uncertainty(X[:50])
        assert (sigma >= 0).all()

    def test_mu_matches_predict(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=15, seed=3).fit(X, y)
        mu, _ = rf.predict_with_uncertainty(X[:50])
        assert np.allclose(mu, rf.predict(X[:50]))

    def test_total_variance_at_least_across_trees(self, regression_data):
        """Law of total variance adds the within-leaf term, so σ_total ≥ σ_trees."""
        X, y = regression_data
        rf_a = RandomForestRegressor(
            n_estimators=15, seed=5, uncertainty="across_trees"
        ).fit(X, y)
        rf_t = RandomForestRegressor(
            n_estimators=15, seed=5, uncertainty="total_variance"
        ).fit(X, y)
        _, s_a = rf_a.predict_with_uncertainty(X[:40])
        _, s_t = rf_t.predict_with_uncertainty(X[:40])
        assert (s_t >= s_a - 1e-9).all()

    def test_uncertainty_shrinks_with_data_density(self, rng):
        """Regions saturated with training data get lower σ than empty ones."""
        X_dense = rng.random((300, 2)) * 0.4  # cluster in [0, 0.4]^2
        y = X_dense.sum(axis=1) + rng.normal(0, 0.01, 300)
        rf = RandomForestRegressor(n_estimators=25, seed=0).fit(X_dense, y)
        _, s_in = rf.predict_with_uncertainty(rng.random((100, 2)) * 0.4)
        _, s_out = rf.predict_with_uncertainty(0.8 + rng.random((100, 2)) * 0.2)
        assert s_in.mean() < s_out.mean()


class TestPartialUpdate:
    def test_update_unfitted_acts_as_fit(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=5, seed=0)
        rf.update(X, y)
        assert rf.n_training_samples == len(y)

    def test_update_appends_data(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=5, seed=0).fit(X[:100], y[:100])
        rf.update(X[100:150], y[100:150], refresh_fraction=0.5)
        assert rf.n_training_samples == 150

    def test_update_refreshes_at_least_one_tree(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=10, seed=0).fit(X[:50], y[:50])
        before = [t for t in rf.trees_]
        rf.update(X[50:60], y[50:60], refresh_fraction=0.01)
        changed = sum(a is not b for a, b in zip(before, rf.trees_))
        assert changed >= 1

    def test_full_refresh_replaces_all_trees(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=6, seed=0).fit(X[:50], y[:50])
        before = list(rf.trees_)
        rf.update(X[50:60], y[50:60], refresh_fraction=1.0)
        assert all(a is not b for a, b in zip(before, rf.trees_))

    def test_bad_refresh_fraction(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=3, seed=0).fit(X[:20], y[:20])
        with pytest.raises(ValueError, match="refresh_fraction"):
            rf.update(X[20:25], y[20:25], refresh_fraction=0.0)

    def test_update_shape_mismatch(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=3, seed=0).fit(X[:20], y[:20])
        with pytest.raises(ValueError, match="rows"):
            rf.update(X[20:25], y[20:22])


class TestFeatureImportances:
    def test_normalised(self, regression_data):
        X, y = regression_data
        rf = RandomForestRegressor(n_estimators=10, seed=1).fit(X, y)
        imp = rf.feature_importances()
        assert imp.sum() == pytest.approx(1.0)
        assert (imp >= 0).all()

    def test_identifies_strong_feature(self, rng):
        X = rng.random((300, 4))
        y = 8.0 * X[:, 2] + rng.normal(0, 0.05, 300)
        rf = RandomForestRegressor(n_estimators=10, seed=1).fit(X, y)
        assert rf.feature_importances().argmax() == 2


@given(seed=st.integers(0, 2000), n_trees=st.integers(1, 12))
@settings(max_examples=15, deadline=None)
def test_property_sigma_zero_when_trees_agree(seed, n_trees):
    """If all trees are identical (no randomness), across-tree σ is 0."""
    rng = np.random.default_rng(seed)
    X = rng.random((30, 2))
    y = rng.normal(size=30)
    rf = RandomForestRegressor(
        n_estimators=n_trees, bootstrap=False, max_features=None, seed=0
    ).fit(X, y)
    _, sigma = rf.predict_with_uncertainty(rng.random((20, 2)))
    assert np.allclose(sigma, 0.0, atol=1e-12)
