"""The incremental suggest/observe entry points of ActiveLearner.

The contract under test: driving a learner externally through
``suggest()``/``observe()`` is *bit-identical* to letting ``run()`` drive
it (same histories, same forests), ``suggest()`` is idempotent until the
matching ``observe()``, and the error paths reject out-of-order or
malformed feedback loudly.
"""

import numpy as np
import pytest

from repro.active import ActiveLearner, LearnerConfig
from repro.sampling import get_strategy
from repro.space import DataPool


def _problem(seed, n_pool=150, n_test=120):
    rng = np.random.default_rng(seed)
    X = rng.random((n_pool + n_test, 4))
    truth = lambda A: 0.5 + A[:, 0] + 0.3 * np.sin(8 * A[:, 1])  # noqa: E731
    return DataPool(X[:n_pool]), X[n_pool:], truth(X[n_pool:]), truth


def _learner(strategy="pwu", seed=7, oracle_seed=123, **cfg_overrides):
    pool, X_test, y_test, truth = _problem(seed)
    oracle_rng = np.random.default_rng(oracle_seed)
    oracle = lambda A: truth(np.atleast_2d(A)) * np.exp(  # noqa: E731
        oracle_rng.normal(0, 0.01, len(np.atleast_2d(A)))
    )
    cfg = dict(n_init=8, n_batch=1, n_max=20, eval_every=4, n_estimators=8)
    cfg.update(cfg_overrides)
    return ActiveLearner(
        pool=pool,
        evaluate=oracle,
        X_test=X_test,
        y_test=y_test,
        strategy=get_strategy(strategy),
        config=LearnerConfig(**cfg),
        seed=np.random.default_rng(seed),
    )


def _drive_incrementally(learner):
    """Reimplement run() externally via the incremental API."""
    while not learner.done:
        learner.suggest()
        _, Xb = learner.pending
        y = learner.evaluate(Xb)
        learner.observe(y)
    return learner.history


class TestEquivalenceWithRun:
    @pytest.mark.parametrize("strategy", ["random", "pwu", "pbus", "maxu"])
    def test_histories_bit_identical(self, strategy):
        a = _learner(strategy)
        b = _learner(strategy)
        ha = a.run()
        hb = _drive_incrementally(b)
        assert len(ha.records) == len(hb.records)
        for ra, rb in zip(ha.records, hb.records):
            assert ra == rb

    def test_models_bit_identical(self):
        a, b = _learner(), _learner()
        a.run()
        _drive_incrementally(b)
        np.testing.assert_array_equal(
            a.model.predict(a.X_test), b.model.predict(b.X_test)
        )

    def test_batched_suggestions_match_batched_run(self):
        a = _learner(n_batch=3)
        b = _learner(n_batch=3)
        a.run()
        _drive_incrementally(b)
        assert a.history.records[-1] == b.history.records[-1]


class TestIncrementalProtocol:
    def test_suggest_is_idempotent(self):
        learner = _learner()
        first = learner.suggest()
        again = learner.suggest()
        np.testing.assert_array_equal(first, again)
        # Idempotent re-suggest consumed no randomness: observing and
        # continuing still matches a straight run.
        _, Xb = learner.pending
        learner.observe(learner.evaluate(Xb))
        ref = _learner()
        ref_first = ref.suggest()
        np.testing.assert_array_equal(first, ref_first)

    def test_cold_start_size_then_batches(self):
        learner = _learner(n_init=8, n_batch=2)
        cold = learner.suggest()
        assert len(cold) == 8
        _, Xb = learner.pending
        learner.observe(learner.evaluate(Xb))
        step = learner.suggest()
        assert len(step) == 2

    def test_suggest_n_overrides_and_clamps(self):
        learner = _learner(n_init=8, n_max=12)
        learner.suggest()
        _, Xb = learner.pending
        learner.observe(learner.evaluate(Xb))
        batch = learner.suggest(3)
        assert len(batch) == 3
        _, Xb = learner.pending
        learner.observe(learner.evaluate(Xb))
        # 11 labeled, budget 12: even a large n clamps to the remainder.
        batch = learner.suggest(50)
        assert len(batch) == 1

    def test_pending_exposes_indices_and_rows(self):
        learner = _learner()
        idx = learner.suggest()
        indices, X = learner.pending
        np.testing.assert_array_equal(indices, idx)
        assert X.shape == (len(idx), learner.pool.X.shape[1])

    def test_observe_with_matching_indices_ok(self):
        learner = _learner()
        idx = learner.suggest()
        _, Xb = learner.pending
        learner.observe(learner.evaluate(Xb), indices=idx)
        assert learner.n_labeled == len(idx)

    def test_done_and_n_labeled_track_progress(self):
        learner = _learner(n_init=8, n_max=10)
        assert not learner.done and learner.n_labeled == 0
        _drive_incrementally(learner)
        assert learner.done and learner.n_labeled == 10


class TestIncrementalErrors:
    def test_observe_without_suggest(self):
        learner = _learner()
        with pytest.raises(RuntimeError, match="without a pending suggest"):
            learner.observe(np.zeros(1))

    def test_suggest_after_budget_exhausted(self):
        learner = _learner(n_init=8, n_max=10)
        _drive_incrementally(learner)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            learner.suggest()

    def test_wrong_label_count_rejected(self):
        learner = _learner()
        learner.suggest()
        with pytest.raises(RuntimeError, match="labels for"):
            learner.observe(np.zeros(3))

    def test_mismatched_indices_rejected(self):
        learner = _learner()
        idx = learner.suggest()
        _, Xb = learner.pending
        wrong = np.asarray(idx) + 1
        with pytest.raises(ValueError, match="do not match"):
            learner.observe(learner.evaluate(Xb), indices=wrong)
        # The pending batch survives a rejected observe.
        assert learner.pending is not None

    def test_bad_n_rejected(self):
        learner = _learner()
        learner.suggest()
        _, Xb = learner.pending
        learner.observe(learner.evaluate(Xb))
        with pytest.raises(ValueError, match="n >= 1"):
            learner.suggest(0)
