"""Tests for the PWU ablation variants."""

import numpy as np
import pytest

from repro.forest import RandomForestRegressor
from repro.sampling import get_strategy
from repro.sampling.variants import (
    CoefficientOfVariationSampling,
    RankWeightedUncertaintySampling,
)
from repro.space import DataPool


@pytest.fixture
def fitted(rng):
    X = rng.random((120, 3))
    y = 1.0 + X[:, 0] + 0.2 * np.sin(7 * X[:, 1])
    pool = DataPool(X)
    model = RandomForestRegressor(n_estimators=12, seed=0).fit(X[:50], y[:50])
    return pool, model


class TestCV:
    def test_matches_pwu_alpha_zero(self, fitted, rng):
        pool_a, model = fitted
        pool_b = DataPool(pool_a.X.copy())
        a = CoefficientOfVariationSampling().select(model, pool_a, 5, rng)
        b = get_strategy("pwu", alpha=0.0).select(model, pool_b, 5, rng)
        assert set(a.tolist()) == set(b.tolist())

    def test_registry_constructible(self):
        assert get_strategy("cv").name == "cv"


class TestRankWeighted:
    def test_gamma_zero_is_maxu(self, fitted, rng):
        pool_a, model = fitted
        pool_b = DataPool(pool_a.X.copy())
        a = RankWeightedUncertaintySampling(gamma=0.0).select(model, pool_a, 5, rng)
        b = get_strategy("maxu").select(model, pool_b, 5, rng)
        assert set(a.tolist()) == set(b.tolist())

    def test_large_gamma_prefers_fast_predictions(self, fitted, rng):
        pool, model = fitted
        picked = RankWeightedUncertaintySampling(gamma=50.0).select(
            model, pool, 3, rng
        )
        mu = model.predict(pool.X)
        # With an extreme focus exponent, selections sit in the fast head.
        assert (mu[picked] <= np.percentile(mu, 30)).all()

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            RankWeightedUncertaintySampling(gamma=-1.0)

    def test_registry_constructible(self):
        assert get_strategy("pwu-rank").name == "pwu-rank"

    def test_selection_contract(self, fitted, rng):
        pool, model = fitted
        picked = RankWeightedUncertaintySampling().select(model, pool, 6, rng)
        assert len(np.unique(picked)) == 6
        assert all(pool.is_available(i) for i in picked)


class TestCostAwarePWU:
    def test_registry_constructible(self):
        assert get_strategy("pwu-cost").name == "pwu-cost"

    def test_prefers_cheaper_of_equal_pwu_score(self, rng):
        """Two configs with identical Equation 1 scores: the cheaper one
        (smaller μ) must be selected under the cost-aware score."""
        from repro.sampling.variants import CostAwarePWUSampling

        class StubModel:
            def predict_with_uncertainty(self, X):
                mu = np.asarray(X)[:, 0]
                sigma = mu ** (1.0 - 0.05)  # PWU score σ/μ^(1-α) == 1 for all
                return mu, sigma

        pool = DataPool(np.array([[0.5, 0.0], [4.0, 0.0]]))
        strat = CostAwarePWUSampling(alpha=0.05)
        assert strat.select(StubModel(), pool, 1, rng).tolist() == [0]

    def test_alpha_validated(self):
        from repro.sampling.variants import CostAwarePWUSampling

        with pytest.raises(ValueError):
            CostAwarePWUSampling(alpha=2.0)


class TestRunnerIntegration:
    def test_strategy_instance_accepted(self, tiny_scale):
        from repro.experiments.runner import strategy_trace

        trace = strategy_trace(
            "mvt",
            RankWeightedUncertaintySampling(gamma=3.0),
            tiny_scale,
            seed=0,
            label="rank3",
        )
        assert trace.strategy == "rank3"
        assert trace.n_train[-1] == tiny_scale.n_max

    def test_config_overrides_applied(self, tiny_scale):
        from repro.experiments.runner import strategy_trace

        trace = strategy_trace(
            "mvt",
            "pwu",
            tiny_scale,
            seed=0,
            config_overrides={"n_batch": 4},
        )
        # Batch of 4 from n_init=8 to n_max=20 → 3 batches → fewer records.
        assert trace.n_train[-1] == tiny_scale.n_max
