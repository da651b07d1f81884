"""Tests for the six sampling strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import RandomForestRegressor
from repro.sampling import (
    STRATEGY_NAMES,
    BestPerfSampling,
    BiasedRandomSampling,
    MaxUncertaintySampling,
    PBUSampling,
    PWUSampling,
    UniformRandomSampling,
    get_strategy,
)
from repro.sampling.base import top_k_by_score
from repro.space import DataPool


@pytest.fixture
def fitted(rng):
    """A pool plus a forest fitted on part of it."""
    X = rng.random((200, 4))
    y = 2.0 + X[:, 0] + 0.5 * np.sin(6 * X[:, 1]) + rng.normal(0, 0.05, 200)
    pool = DataPool(X)
    model = RandomForestRegressor(n_estimators=15, seed=0).fit(X[:80], y[:80])
    return pool, model


class TestTopK:
    def test_selects_highest(self):
        idx = np.array([10, 20, 30, 40])
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert top_k_by_score(idx, scores, 2).tolist() == [20, 40]

    def test_deterministic_tiebreak_by_index(self):
        idx = np.array([5, 3, 9])
        scores = np.array([1.0, 1.0, 1.0])
        assert top_k_by_score(idx, scores, 2).tolist() == [5, 3]

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            top_k_by_score(np.array([1]), np.array([np.inf]), 1)

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError):
            top_k_by_score(np.array([1]), np.array([0.5]), 2)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestCommonContract:
    def test_returns_requested_distinct_available(self, name, fitted, rng):
        pool, model = fitted
        strat = get_strategy(name)
        picked = strat.select(model, pool, 7, rng)
        assert len(picked) == 7
        assert len(np.unique(picked)) == 7
        assert all(pool.is_available(i) for i in picked)

    def test_rejects_zero_batch(self, name, fitted, rng):
        pool, model = fitted
        with pytest.raises(ValueError):
            get_strategy(name).select(model, pool, 0, rng)

    def test_rejects_overdraw(self, name, fitted, rng):
        pool, model = fitted
        pool.take(pool.available_indices()[:-2])
        with pytest.raises(ValueError, match="remain"):
            get_strategy(name).select(model, pool, 3, rng)

    def test_never_returns_taken_index(self, name, fitted, rng):
        pool, model = fitted
        taken = pool.available_indices()[:150]
        pool.take(taken)
        picked = get_strategy(name).select(model, pool, 5, rng)
        assert set(picked.tolist()).isdisjoint(set(taken.tolist()))


class TestUniformRandom:
    def test_is_model_free(self):
        assert not UniformRandomSampling().requires_model

    def test_works_without_model(self, fitted, rng):
        pool, _ = fitted
        picked = UniformRandomSampling().select(None, pool, 4, rng)
        assert len(picked) == 4

    def test_distribution_is_uniformish(self, fitted):
        pool, _ = fitted
        counts = np.zeros(pool.n_total)
        for s in range(300):
            picked = UniformRandomSampling().select(
                None, pool, 5, np.random.default_rng(s)
            )
            counts[picked] += 1
        # Every index picked at least once over 1500 draws from 200 slots.
        assert (counts > 0).mean() > 0.95


class TestBestPerf:
    def test_picks_smallest_predicted_time(self, fitted, rng):
        pool, model = fitted
        picked = BestPerfSampling().select(model, pool, 5, rng)
        mu = model.predict(pool.X)
        best5 = np.sort(mu)[:5]
        assert np.allclose(np.sort(mu[picked]), best5)


class TestMaxU:
    def test_picks_largest_sigma(self, fitted, rng):
        pool, model = fitted
        picked = MaxUncertaintySampling().select(model, pool, 5, rng)
        _, sigma = model.predict_with_uncertainty(pool.X)
        assert np.allclose(np.sort(sigma[picked])[::-1], np.sort(sigma)[::-1][:5])


class TestBRS:
    def test_selection_within_top_fraction(self, fitted, rng):
        pool, model = fitted
        strat = BiasedRandomSampling(top_fraction=0.10)
        picked = strat.select(model, pool, 5, rng)
        mu = model.predict(pool.X)
        cutoff = np.sort(mu)[int(np.ceil(0.10 * pool.n_available)) - 1]
        assert (mu[picked] <= cutoff + 1e-12).all()

    def test_random_within_candidates(self, fitted):
        pool, model = fitted
        strat = BiasedRandomSampling(top_fraction=0.5)
        a = strat.select(model, pool, 5, np.random.default_rng(1))
        b = strat.select(model, pool, 5, np.random.default_rng(2))
        assert not np.array_equal(np.sort(a), np.sort(b))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            BiasedRandomSampling(top_fraction=0.0)
        with pytest.raises(ValueError):
            BiasedRandomSampling(top_fraction=1.5)


class TestPBUS:
    def test_performance_filter_before_uncertainty(self, fitted, rng):
        """Selected samples must come from the predicted-fast candidates."""
        pool, model = fitted
        strat = PBUSampling(candidate_fraction=0.10)
        picked = strat.select(model, pool, 5, rng)
        mu, _ = model.predict_with_uncertainty(pool.X)
        n_cand = int(np.ceil(0.10 * pool.n_available))
        cutoff = np.sort(mu)[n_cand - 1]
        assert (mu[picked] <= cutoff + 1e-12).all()

    def test_max_sigma_among_candidates(self, fitted, rng):
        pool, model = fitted
        strat = PBUSampling(candidate_fraction=0.25)
        picked = strat.select(model, pool, 3, rng)
        mu, sigma = model.predict_with_uncertainty(pool.X)
        n_cand = int(np.ceil(0.25 * pool.n_available))
        candidates = np.argsort(mu, kind="stable")[:n_cand]
        expected = candidates[np.argsort(-sigma[candidates], kind="stable")[:3]]
        assert set(picked.tolist()) == set(
            pool.available_indices()[expected].tolist()
        )

    def test_candidate_set_grows_to_batch(self, fitted, rng):
        pool, model = fitted
        strat = PBUSampling(candidate_fraction=0.001)  # fewer than the batch
        picked = strat.select(model, pool, 10, rng)
        assert len(picked) == 10

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            PBUSampling(candidate_fraction=-0.1)


class TestRegistry:
    def test_all_names_constructible(self):
        for name in STRATEGY_NAMES:
            assert get_strategy(name).name == name

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_strategy("thompson")

    def test_pwu_alpha_propagates(self):
        assert get_strategy("pwu", alpha=0.01).alpha == 0.01


@given(seed=st.integers(0, 999), batch=st.integers(1, 10))
@settings(max_examples=20, deadline=None)
def test_property_strategies_partition_cleanly(seed, batch):
    """Repeated selection without replacement eventually drains the pool."""
    rng = np.random.default_rng(seed)
    X = rng.random((40, 3))
    y = X[:, 0] + 1.0
    pool = DataPool(X)
    model = RandomForestRegressor(n_estimators=5, seed=0).fit(X[:15], y[:15])
    strat = PWUSampling(alpha=0.05)
    seen: set[int] = set()
    while pool.n_available >= batch:
        picked = strat.select(model, pool, batch, rng)
        pool.take(picked)
        assert seen.isdisjoint(picked.tolist())
        seen.update(picked.tolist())
    assert len(seen) == 40 - pool.n_available
