"""Tests for the explicit cold-start path (transfer seeding hook)."""

import numpy as np
import pytest

from repro.active import ActiveLearner, LearnerConfig
from repro.sampling import get_strategy
from repro.space import DataPool


def _problem(rng, n_pool=120, n_test=110):
    X = rng.random((n_pool + n_test, 3))
    truth = lambda A: 1.0 + np.atleast_2d(A)[:, 0]  # noqa: E731
    return (
        DataPool(X[:n_pool]),
        X[n_pool:],
        truth(X[n_pool:]),
        lambda A: truth(A),
    )


class TestExplicitColdStart:
    def test_cold_start_indices_used_verbatim(self, rng):
        pool, X_test, y_test, oracle = _problem(rng)
        seeds = np.array([3, 17, 42, 99, 5])
        learner = ActiveLearner(
            pool=pool,
            evaluate=oracle,
            X_test=X_test,
            y_test=y_test,
            strategy=get_strategy("random"),
            config=LearnerConfig(n_init=5, n_max=10, eval_every=5, alphas=(0.1,)),
            seed=rng,
            cold_start_indices=seeds,
        )
        history = learner.run()
        assert tuple(history.records[0].selected) == tuple(int(i) for i in seeds)

    def test_wrong_length_rejected(self, rng):
        pool, X_test, y_test, oracle = _problem(rng)
        learner = ActiveLearner(
            pool=pool,
            evaluate=oracle,
            X_test=X_test,
            y_test=y_test,
            strategy=get_strategy("random"),
            config=LearnerConfig(n_init=5, n_max=10, alphas=(0.1,)),
            seed=rng,
            cold_start_indices=np.array([1, 2]),
        )
        with pytest.raises(ValueError, match="n_init"):
            learner.run()

    def test_seeded_points_removed_from_pool(self, rng):
        pool, X_test, y_test, oracle = _problem(rng)
        seeds = np.arange(5)
        learner = ActiveLearner(
            pool=pool,
            evaluate=oracle,
            X_test=X_test,
            y_test=y_test,
            strategy=get_strategy("random"),
            config=LearnerConfig(n_init=5, n_max=12, eval_every=3, alphas=(0.1,)),
            seed=rng,
            cold_start_indices=seeds,
        )
        history = learner.run()
        all_picked = history.all_selected(include_cold_start=True)
        assert len(all_picked) == len(set(all_picked)) == 12
        assert set(range(5)) <= set(all_picked)
