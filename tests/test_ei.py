"""Tests for the Expected Improvement acquisition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import RandomForestRegressor
from repro.sampling import get_strategy
from repro.sampling.ei import ExpectedImprovementSampling, expected_improvement
from repro.space import DataPool


class TestClosedForm:
    def test_no_improvement_no_sigma_is_zero(self):
        ei = expected_improvement(np.array([2.0]), np.array([0.0]), incumbent=1.0)
        assert ei[0] == 0.0

    def test_sure_improvement_no_sigma_is_gap(self):
        ei = expected_improvement(np.array([0.5]), np.array([0.0]), incumbent=1.0)
        assert ei[0] == pytest.approx(0.5)

    def test_symmetric_known_value(self):
        # mu = incumbent: EI = sigma * phi(0) = sigma / sqrt(2 pi)
        ei = expected_improvement(np.array([1.0]), np.array([2.0]), incumbent=1.0)
        assert ei[0] == pytest.approx(2.0 / np.sqrt(2 * np.pi))

    def test_monotone_in_sigma(self):
        mu = np.full(5, 2.0)
        sig = np.linspace(0.1, 2.0, 5)
        ei = expected_improvement(mu, sig, incumbent=1.5)
        assert (np.diff(ei) > 0).all()

    def test_monotone_in_mu(self):
        mu = np.linspace(0.5, 3.0, 6)
        sig = np.full(6, 0.5)
        ei = expected_improvement(mu, sig, incumbent=1.0)
        assert (np.diff(ei) < 0).all()

    def test_validation(self):
        with pytest.raises(ValueError, match="shapes"):
            expected_improvement(np.ones(2), np.ones(3), 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            expected_improvement(np.ones(1), -np.ones(1), 1.0)


class TestStrategy:
    def test_selects_high_ei(self, rng):
        X = rng.random((150, 3))
        y = 1.0 + X[:, 0]
        pool = DataPool(X)
        model = RandomForestRegressor(n_estimators=10, seed=0).fit(X[:60], y[:60])
        strat = ExpectedImprovementSampling()
        picked = strat.select(model, pool, 5, rng)
        mu, sigma = model.predict_with_uncertainty(pool.X)
        ei = expected_improvement(mu, sigma, float(y[:60].min()))
        assert np.allclose(np.sort(ei[picked])[::-1], np.sort(ei)[::-1][:5])

    def test_registry(self):
        assert get_strategy("ei").name == "ei"

    def test_runs_in_algorithm_1(self, tiny_scale):
        from repro.experiments.runner import strategy_trace

        trace = strategy_trace("mvt", "ei", tiny_scale, seed=0)
        assert trace.n_train[-1] == tiny_scale.n_max


@given(
    incumbent=st.floats(-5.0, 5.0),
    seed=st.integers(0, 500),
)
@settings(max_examples=40, deadline=None)
def test_property_ei_nonnegative_and_bounded(incumbent, seed):
    """0 ≤ EI ≤ improvement-gap + σ (a crude but universal bound)."""
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=30)
    sigma = rng.uniform(0, 2, 30)
    ei = expected_improvement(mu, sigma, incumbent)
    assert (ei >= 0).all()
    assert (ei <= np.maximum(incumbent - mu, 0) + sigma).all()
