"""Tests for Algorithm 1 (ActiveLearner) and its history."""

import numpy as np
import pytest

from repro.active import ActiveLearner, IterationRecord, LearnerConfig, LearningHistory
from repro.forest import RandomForestRegressor
from repro.sampling import get_strategy
from repro.space import DataPool


def _make_problem(rng, n_pool=150, n_test=120):
    X = rng.random((n_pool + n_test, 4))
    truth = lambda A: 0.5 + A[:, 0] + 0.3 * np.sin(8 * A[:, 1])  # noqa: E731
    pool = DataPool(X[:n_pool])
    X_test = X[n_pool:]
    y_test = truth(X_test)
    oracle = lambda A: truth(np.atleast_2d(A)) * np.exp(  # noqa: E731
        rng.normal(0, 0.01, len(np.atleast_2d(A)))
    )
    return pool, X_test, y_test, oracle


def _learner(rng, strategy="pwu", **cfg_overrides):
    pool, X_test, y_test, oracle = _make_problem(rng)
    cfg = dict(n_init=8, n_batch=1, n_max=20, eval_every=4, n_estimators=8)
    cfg.update(cfg_overrides)
    return ActiveLearner(
        pool=pool,
        evaluate=oracle,
        X_test=X_test,
        y_test=y_test,
        strategy=get_strategy(strategy),
        config=LearnerConfig(**cfg),
        seed=rng,
    )


class TestLearnerConfig:
    def test_defaults_match_paper(self):
        cfg = LearnerConfig()
        assert cfg.n_init == 10
        assert cfg.n_batch == 1
        assert cfg.n_max == 500
        assert cfg.alphas == (0.01, 0.05, 0.10)

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_init": 0},
            {"n_batch": 0},
            {"n_max": 5, "n_init": 10},
            {"eval_every": 0},
            {"retrain": "magic"},
            {"alphas": ()},
            {"alphas": (0.0,)},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            LearnerConfig(**kw)


class TestRun:
    def test_reaches_n_max(self, rng):
        learner = _learner(rng)
        history = learner.run()
        assert history.records[-1].n_train == 20
        assert len(learner.y_train) == 20

    def test_cold_start_recorded_first(self, rng):
        history = _learner(rng).run()
        assert history.records[0].n_train == 8
        assert len(history.records[0].selected) == 8

    def test_n_train_strictly_increases(self, rng):
        history = _learner(rng).run()
        n = history.n_train
        assert (np.diff(n) > 0).all()

    def test_cc_matches_sum_of_labels(self, rng):
        learner = _learner(rng)
        history = learner.run()
        assert history.cumulative_cost[-1] == pytest.approx(learner.y_train.sum())

    def test_all_alphas_recorded(self, rng):
        history = _learner(rng).run()
        assert history.alpha_keys() == ("0.01", "0.05", "0.1")

    def test_no_config_evaluated_twice(self, rng):
        learner = _learner(rng)
        history = learner.run()
        picked = history.all_selected(include_cold_start=True)
        assert len(picked) == len(set(picked)) == 20

    def test_eval_every_thins_records(self, rng):
        h1 = _learner(rng, eval_every=1).run()
        rng2 = np.random.default_rng(0)
        h4 = _learner(rng2, eval_every=4).run()
        assert len(h1) > len(h4)
        # Final state is always recorded regardless of the schedule.
        assert h4.records[-1].n_train == 20

    def test_selection_statistics_cover_all_iterations(self, rng):
        history = _learner(rng).run()
        mu, sigma = history.selection_statistics()
        assert len(mu) == len(sigma) == 12  # 20 - 8 cold start
        assert (sigma >= 0).all()

    def test_deterministic_given_seed(self):
        h1 = _learner(np.random.default_rng(5)).run()
        h2 = _learner(np.random.default_rng(5)).run()
        assert np.array_equal(h1.cumulative_cost, h2.cumulative_cost)
        assert h1.rmse_series("0.05").tolist() == h2.rmse_series("0.05").tolist()

    def test_model_free_strategy_gets_no_model(self, rng):
        # UniformRandomSampling must run even when passed model=None.
        learner = _learner(rng, strategy="random")
        history = learner.run()
        assert history.records[-1].n_train == 20

    def test_partial_retrain_mode(self, rng):
        learner = _learner(rng, retrain="partial", refresh_fraction=0.5)
        history = learner.run()
        assert history.records[-1].n_train == 20

    def test_learning_reduces_error(self):
        """More labels should, on a smooth target, not hugely worsen RMSE."""
        rng = np.random.default_rng(42)
        learner = _learner(rng, n_max=60, eval_every=60)
        history = learner.run()
        first = history.rmse_series("0.1")[0]
        last = history.rmse_series("0.1")[-1]
        assert last < first * 1.5


class TestValidation:
    def test_n_max_exceeds_pool(self, rng):
        pool, X_test, y_test, oracle = _make_problem(rng, n_pool=15)
        with pytest.raises(ValueError, match="exceeds pool"):
            ActiveLearner(
                pool=pool,
                evaluate=oracle,
                X_test=X_test,
                y_test=y_test,
                strategy=get_strategy("random"),
                config=LearnerConfig(n_init=5, n_max=20),
            )

    def test_test_set_too_small_for_alpha(self, rng):
        pool, X_test, y_test, oracle = _make_problem(rng, n_test=120)
        with pytest.raises(ValueError, match="too small"):
            ActiveLearner(
                pool=pool,
                evaluate=oracle,
                X_test=X_test[:50],
                y_test=y_test[:50],
                strategy=get_strategy("random"),
                config=LearnerConfig(n_init=5, n_max=20, alphas=(0.01,)),
            )

    def test_mismatched_test_set(self, rng):
        pool, X_test, y_test, oracle = _make_problem(rng)
        with pytest.raises(ValueError, match="disagree"):
            ActiveLearner(
                pool=pool,
                evaluate=oracle,
                X_test=X_test,
                y_test=y_test[:-1],
                strategy=get_strategy("random"),
            )

    def test_bad_oracle_shape_caught(self, rng):
        pool, X_test, y_test, _ = _make_problem(rng)
        learner = ActiveLearner(
            pool=pool,
            evaluate=lambda X: np.ones(3),  # wrong length on batches of 1
            X_test=X_test,
            y_test=y_test,
            strategy=get_strategy("random"),
            config=LearnerConfig(n_init=3, n_max=5, alphas=(0.1,)),
            seed=rng,
        )
        with pytest.raises(RuntimeError, match="labels"):
            learner.run()


class TestHistoryContainer:
    def test_append_enforces_monotonic_n_train(self):
        h = LearningHistory()
        h.append(IterationRecord(5, 1.0, {"0.05": 0.5}))
        with pytest.raises(ValueError, match="strictly increase"):
            h.append(IterationRecord(5, 2.0, {"0.05": 0.4}))

    def test_append_enforces_monotonic_cost(self):
        h = LearningHistory()
        h.append(IterationRecord(5, 2.0, {"0.05": 0.5}))
        with pytest.raises(ValueError, match="cannot decrease"):
            h.append(IterationRecord(6, 1.0, {"0.05": 0.4}))

    def test_unknown_alpha_key(self):
        h = LearningHistory()
        h.append(IterationRecord(5, 1.0, {"0.05": 0.5}))
        with pytest.raises(KeyError, match="recorded"):
            h.rmse_series("0.42")

    def test_to_dict_roundtrips_arrays(self):
        h = LearningHistory()
        h.append(IterationRecord(5, 1.0, {"0.05": 0.5}))
        h.append(IterationRecord(6, 2.0, {"0.05": 0.4}))
        d = h.to_dict()
        assert d["n_train"] == [5, 6]
        assert d["rmse"]["0.05"] == [0.5, 0.4]

    def test_empty_history(self):
        h = LearningHistory()
        assert len(h) == 0
        assert h.alpha_keys() == ()
