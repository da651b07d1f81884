"""Trace-equivalence: the fast surrogate path is bit-identical to the reference.

The C kernel's forest grower, the packed-forest traversal, the pool-score
cache, and the learner's selection-stat reuse are all pure optimisations:
they must produce the *same bits* as the pre-optimisation reference —
same splits, same RNG consumption, same predictions, same selected pool
indices over a full ``ActiveLearner.run``.  These tests pin that, for both
the C kernel and the pure-numpy fallback; without the kernel the forest
grows reference trees itself, so the growth tests need the kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.active.learner as learner_mod
import repro.forest
import repro.forest._cgrower as _cgrower
from repro.active import ActiveLearner, LearnerConfig
from repro.forest import RandomForestRegressor
from repro.forest.uncertainty import across_tree_std, total_variance_std
from repro.metrics import top_alpha_rmse
from repro.sampling import get_strategy
from repro.space import DataPool
from tests.conftest import without_kernel

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


class _ReferenceForest(RandomForestRegressor):
    """The pre-optimisation surrogate: per-node argsort growth, per-tree
    Python prediction loops, no pool-score cache."""

    # pool_mu_sigma/pool_mu treat None as "no pool-aware scorer".
    predict_with_uncertainty_pool = None
    predict_pool = None

    def _grow(self, *args):
        with without_kernel():
            return super()._grow(*args)

    def per_tree_predictions(self, X: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return np.stack([t.predict(X) for t in self.trees_], axis=0)

    def predict_with_uncertainty(self, X: np.ndarray):
        self._require_fitted()
        if self.uncertainty == "across_trees":
            P = self.per_tree_predictions(X)
            return P.mean(axis=0), across_tree_std(P)
        means, variances = [], []
        for t in self.trees_:
            m, v, _ = t.leaf_stats(X)
            means.append(m)
            variances.append(v)
        M = np.stack(means, axis=0)
        V = np.stack(variances, axis=0)
        return M.mean(axis=0), total_variance_std(M, V)


def _random_problem(seed, n=180, d=7):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, d)) * (10.0 ** r.integers(-2, 3))
    X[:, 0] = np.round(X[:, 0], 1)  # ties
    if d > 2:
        X[:, 1] = 1.25  # constant feature
    y = np.abs(r.normal(size=n)) * (10.0 ** r.integers(-2, 3)) + 1e-3
    return X, y


def _assert_same_packed(a, b, context) -> None:
    assert a.offsets.tobytes() == b.offsets.tobytes(), context
    for name, arr in a.arrays().items():
        other = getattr(b, name)
        assert arr.dtype == other.dtype, (name, context)
        assert arr.tobytes() == other.tobytes(), (name, context)


def _assert_same_growth(X, y, seed, n_estimators=3):
    """The forest's grower matches the reference grower on the same seed:
    all node arrays, bit for bit, and the RNG state afterwards."""
    ref = _ReferenceForest(n_estimators=n_estimators, seed=seed + 99).fit(X, y)
    fast = RandomForestRegressor(n_estimators=n_estimators, seed=seed + 99)
    _assert_same_packed(ref.packed(), fast.fit(X, y).packed(), seed)
    # Identical RNG consumption, not just identical output.
    assert ref.rng.bit_generator.state == fast.rng.bit_generator.state


_SIZES = (1, 2, 3, 5, 10, 37, 60, 150)


def _random_forest_case(r):
    """Training data and forest settings for one whole-forest identity
    case: sample sizes from a single row up, 1 to 11 features mixing
    continuous, tied, constant, few-level and signed-zero columns, and 1
    to 6 trees."""
    n = int(r.choice(_SIZES))
    d = int(r.integers(1, 12))
    X = r.normal(size=(n, d)) * 10.0 ** int(r.integers(-3, 4))
    for f in range(d):
        kind = int(r.integers(5))
        if kind == 1:
            X[:, f] = np.round(X[:, f], 1)
        elif kind == 2:
            X[:, f] = 1.25
        elif kind == 3:
            X[:, f] = r.integers(0, 3, size=n)
        elif kind == 4:
            X[:, f] = r.choice([-0.0, 0.0, 1.0], size=n)
    y = r.normal(size=n) * 10.0 ** int(r.integers(-2, 3))
    if r.random() < 0.2:
        y = np.round(y)
    params = dict(
        n_estimators=int(r.integers(1, 7)), seed=int(r.integers(2**31))
    )
    return X, y, params


#: Shapes at the grower's edges: tiny samples with a single feature.
_EDGE_CASES = {"n1-d1": (1, 1), "n2-d1": (2, 1), "n3-d1": (3, 1)}


#: The growth tests compare the kernel with the reference grower, so they
#: run in ``c-kernel`` mode only (and skip without the kernel).
_KERNEL_ONLY = pytest.mark.parametrize("kernel_mode", ["c-kernel"], indirect=True)


class TestTreeGrowth:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [2, 7, 11], ids=lambda d: f"d{d}")
    @_KERNEL_ONLY
    def test_presorted_growth_bit_identical(self, kernel_mode, seed, d):
        X, y = _random_problem(seed, d=d)
        _assert_same_growth(X, y, seed)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(_EDGE_CASES))
    @_KERNEL_ONLY
    def test_edge_case_growth_bit_identical(self, kernel_mode, case, seed):
        n, d = _EDGE_CASES[case]
        X, y = _random_problem(seed, n=n, d=d)
        _assert_same_growth(X, y, seed)

    def test_probe_mismatch_falls_back_to_numpy(self, monkeypatch):
        """A kernel whose reproduction of numpy disagrees is never used."""
        if _cgrower.load() is None:
            pytest.skip("C kernel unavailable in this environment")
        monkeypatch.setattr(
            _cgrower.Kernel, "sumsq", lambda self, a: float(np.dot(a, a)) + 1.0
        )
        monkeypatch.setattr(_cgrower, "_lib", None)
        monkeypatch.setattr(_cgrower, "_attempted", False)
        assert _cgrower.load() is None
        X, y = _random_problem(4)
        _assert_same_growth(X, y, 4)

    def test_bootstrap_probe_mismatch_falls_back_to_numpy(self, monkeypatch):
        """A kernel whose bootstrap draw is off by one is never used, and a
        forest fit then matches the reference."""
        if _cgrower.load() is None:
            pytest.skip("C kernel unavailable in this environment")
        draw = _cgrower.Kernel.bootstrap

        def off_by_one(self, rng, n):
            idx = draw(self, rng, n)
            idx[-1] = (idx[-1] + 1) % n
            return idx

        monkeypatch.setattr(_cgrower.Kernel, "bootstrap", off_by_one)
        monkeypatch.setattr(_cgrower, "_lib", None)
        monkeypatch.setattr(_cgrower, "_attempted", False)
        assert _cgrower.load() is None
        X, y = _random_problem(12)
        ref = _ReferenceForest(n_estimators=5, seed=8).fit(X, y)
        fast = RandomForestRegressor(n_estimators=5, seed=8).fit(X, y)
        assert ref.rng.bit_generator.state == fast.rng.bit_generator.state
        _assert_same_packed(ref.packed(), fast.packed(), None)

    def test_reduction_probe_mismatch_falls_back_to_numpy(self, monkeypatch):
        """A kernel whose across-tree reduction disagrees with numpy's mean
        or std, by one ulp in one column, is never used for anything."""
        if _cgrower.load() is None:
            pytest.skip("C kernel unavailable in this environment")
        reduce = _cgrower.Kernel.tree_mean_std

        def off_by_one_ulp(self, P, cols=None, std=True):
            mean, sd = reduce(self, P, cols, std)
            if sd is not None and sd.size:
                sd = sd.copy()
                sd[-1] = np.nextafter(sd[-1], np.inf)
            return mean, sd

        monkeypatch.setattr(_cgrower.Kernel, "tree_mean_std", off_by_one_ulp)
        monkeypatch.setattr(_cgrower, "_lib", None)
        monkeypatch.setattr(_cgrower, "_attempted", False)
        assert _cgrower.load() is None
        X, y = _random_problem(9)
        pool = _random_problem(10, n=300)[0]
        rows = np.random.default_rng(1).choice(300, size=250, replace=False)
        ref = _ReferenceForest(n_estimators=8, seed=5).fit(X, y)
        fast = RandomForestRegressor(n_estimators=8, seed=5).fit(X, y)
        mu_r, sd_r = ref.predict_with_uncertainty(pool[rows])
        mu_f, sd_f = fast.predict_with_uncertainty_pool(DataPool(pool), rows)
        assert mu_r.tobytes() == mu_f.tobytes() and sd_r.tobytes() == sd_f.tobytes()
        assert fast.predict_pool(DataPool(pool), rows).tobytes() == mu_r.tobytes()

    def test_whole_forest_growth_bit_identical(self):
        """The one-call C forest grower against the reference grower over
        520 random forests: packed node arrays, offsets and generator state
        after fit() and again after a partial update()."""
        if _cgrower.load() is None:
            pytest.skip("C kernel unavailable in this environment")
        r = np.random.default_rng(2024)
        for _ in range(520):
            X, y, params = _random_forest_case(r)
            k = int(r.integers(1, 4))
            Xn, yn = X[:k] + 0.5, y[:k] * 1.5
            fraction = float(r.uniform(0.05, 1.0))
            with without_kernel():
                ref = RandomForestRegressor(**params).fit(X, y)
                ref_packed = ref.packed()
                ref_state = ref.rng.bit_generator.state
                ref.update(Xn, yn, refresh_fraction=fraction)
                ref_updated = ref.packed()
            fast = RandomForestRegressor(**params).fit(X, y)
            _assert_same_packed(ref_packed, fast.packed(), params)
            assert ref_packed.n_features == fast.n_features_
            assert ref_state == fast.rng.bit_generator.state
            fast.update(Xn, yn, refresh_fraction=fraction)
            _assert_same_packed(ref_updated, fast.packed(), params)
            assert ref.rng.bit_generator.state == fast.rng.bit_generator.state

    @_KERNEL_ONLY
    def test_forest_growth_consumes_rng_identically(self, kernel_mode):
        X, y = _random_problem(3)
        ref = _ReferenceForest(n_estimators=7, seed=11).fit(X, y)
        fast = RandomForestRegressor(n_estimators=7, seed=11).fit(X, y)
        assert ref.rng.bit_generator.state == fast.rng.bit_generator.state
        for tr, tf in zip(ref.trees_, fast.trees_):
            for field in _TREE_FIELDS:
                assert (getattr(tr, field) == getattr(tf, field)).all()


class TestForestInference:
    @pytest.mark.parametrize("uncertainty", ["across_trees", "total_variance"])
    def test_predict_paths_bit_identical(self, kernel_mode, uncertainty):
        X, y = _random_problem(5)
        Q = _random_problem(6)[0]
        ref = _ReferenceForest(n_estimators=9, seed=2, uncertainty=uncertainty).fit(X, y)
        fast = RandomForestRegressor(n_estimators=9, seed=2, uncertainty=uncertainty).fit(X, y)
        assert (ref.per_tree_predictions(Q) == fast.per_tree_predictions(Q)).all()
        assert (ref.predict(Q) == fast.predict(Q)).all()
        mu_r, sd_r = ref.predict_with_uncertainty(Q)
        mu_f, sd_f = fast.predict_with_uncertainty(Q)
        assert (mu_r == mu_f).all() and (sd_r == sd_f).all()
        # Packed apply routes to the same leaves as the per-tree apply.
        packed = fast.packed()
        leaves = packed.apply(np.atleast_2d(np.asarray(Q, dtype=np.float64)))
        for t, tree in enumerate(fast.trees_):
            local = leaves[t] - int(packed.offsets[t])
            assert (local == tree.apply(Q)).all()

    @pytest.mark.parametrize("uncertainty", ["across_trees", "total_variance"])
    def test_pool_cache_bit_identical_through_partial_updates(
        self, kernel_mode, uncertainty
    ):
        X, y = _random_problem(7)
        pool = _random_problem(8, n=400)[0]
        data_pool = DataPool(pool)
        r = np.random.default_rng(0)
        fast = RandomForestRegressor(n_estimators=8, seed=4, uncertainty=uncertainty).fit(X, y)
        rows = np.sort(r.choice(400, size=350, replace=False))
        for step in range(4):
            mu_c, sd_c = fast.predict_with_uncertainty_pool(data_pool, rows)
            mu_p, sd_p = fast.predict_with_uncertainty(pool[rows])
            assert (mu_c == mu_p).all() and (sd_c == sd_p).all()
            assert (fast.predict_pool(data_pool, rows) == fast.predict(pool[rows])).all()
            # Shrink the row set (pool.take semantics) and partially refresh.
            rows = rows[:: 2] if step == 1 else rows[: len(rows) - 5]
            Xn, yn = _random_problem(20 + step, n=3)
            fast.update(Xn, yn, refresh_fraction=0.25)


def _run_learner(seed, strategy_name, forest_cls, disable_stat_reuse,
                 monkeypatch_ctx, tied_labels=False, **cfg_overrides):
    r = np.random.default_rng(seed)
    n_pool, n_test = 140, 110
    Xall = r.random((n_pool + n_test, 5))
    truth = lambda A: 0.6 + A[:, 0] + 0.25 * np.sin(7 * A[:, 1])  # noqa: E731
    pool = DataPool(Xall[:n_pool])
    X_test, y_test = Xall[n_pool:], truth(Xall[n_pool:])
    if tied_labels:
        # ~15 distinct labels over 110 rows: ties straddle every cut-off.
        y_test = np.round(y_test, 1)
    oracle_rng = np.random.default_rng(seed + 1)
    oracle = lambda A: truth(np.atleast_2d(A)) * np.exp(  # noqa: E731
        oracle_rng.normal(0, 0.01, len(np.atleast_2d(A)))
    )
    cfg = dict(n_init=8, n_batch=1, n_max=18, eval_every=3, n_estimators=6)
    cfg.update(cfg_overrides)
    # The learner builds its forest through the surrogate registry, whose
    # forest factory looks the class up in repro.forest at call time: the
    # one seam to swap the reference implementation in.
    monkeypatch_ctx.setattr(repro.forest, "RandomForestRegressor", forest_cls)
    if disable_stat_reuse:
        monkeypatch_ctx.setattr(
            learner_mod, "consume_selection_stats", lambda *a: None
        )
    learner = ActiveLearner(
        pool=pool,
        evaluate=oracle,
        X_test=X_test,
        y_test=y_test,
        strategy=get_strategy(strategy_name),
        config=LearnerConfig(**cfg),
        seed=seed + 2,
    )
    history = learner.run()
    if forest_cls is not RandomForestRegressor:
        # A seam that stopped working would compare the fast path with itself.
        assert type(learner.model) is forest_cls
    return history


class TestFullRunEquivalence:
    @pytest.mark.parametrize(
        "strategy_name", ["pwu", "maxu", "pbus", "bestperf", "brs", "ei"]
    )
    def test_history_bit_identical(self, kernel_mode, strategy_name, monkeypatch):
        with monkeypatch.context() as m:
            ref = _run_learner(31, strategy_name, _ReferenceForest, True, m)
        with monkeypatch.context() as m:
            fast = _run_learner(31, strategy_name, RandomForestRegressor, False, m)
        assert len(ref.records) == len(fast.records)
        for a, b in zip(ref.records, fast.records):
            assert a.selected == b.selected
            assert a.selected_mu == b.selected_mu
            assert a.selected_sigma == b.selected_sigma
            assert a.rmse == b.rmse
            assert a.n_train == b.n_train
            assert a.cumulative_cost == b.cumulative_cost

    def test_history_bit_identical_partial_retrain(self, kernel_mode, monkeypatch):
        cfg = dict(retrain="partial", refresh_fraction=0.34)
        with monkeypatch.context() as m:
            ref = _run_learner(55, "pwu", _ReferenceForest, True, m, **cfg)
        with monkeypatch.context() as m:
            fast = _run_learner(55, "pwu", RandomForestRegressor, False, m, **cfg)
        for a, b in zip(ref.records, fast.records):
            assert a.selected == b.selected
            assert a.selected_mu == b.selected_mu
            assert a.selected_sigma == b.selected_sigma
            assert a.rmse == b.rmse


def _literal_eq2(self) -> dict:
    """The historical full-set scoring: predict every test row, then
    Equation 2 literally, once per α."""
    pred = self.model.predict(self.X_test)
    return {f"{a:g}": top_alpha_rmse(self.y_test, pred, a) for a in self.config.alphas}


#: (alphas, tied test labels).  n_test is 110, so alpha 0.01 alone keeps
#: one row, below the learner's 2-row floor.
_EQ2_CASES = pytest.mark.parametrize(
    "alphas, tied",
    [((0.01, 0.05, 0.10), False), ((0.01,), False), ((0.01, 0.05, 0.10), True)],
    ids=["paper-alphas", "one-row-alpha", "tied-labels"],
)


class TestEq2Scoring:
    """The learner predicts only the top rows of the test ranking; every
    recorded RMSE must equal the literal Equation 2 over the full set."""

    @_EQ2_CASES
    def test_forest_rmse_bit_identical_to_literal_eq2(
        self, kernel_mode, alphas, tied, monkeypatch
    ):
        self._assert_literal("forest", alphas, tied, monkeypatch)

    @pytest.mark.parametrize("surrogate", ["gp", "stack"])
    @_EQ2_CASES
    def test_full_set_rmse_bit_identical_to_literal_eq2(
        self, surrogate, alphas, tied, monkeypatch
    ):
        self._assert_literal(surrogate, alphas, tied, monkeypatch)

    @staticmethod
    def _assert_literal(surrogate, alphas, tied, monkeypatch):
        # 30 trees: below 8 a one-column pairwise sum is a plain loop, and
        # a single-row query would round like a larger one.
        cfg = dict(surrogate=surrogate, alphas=alphas, n_estimators=30)
        with monkeypatch.context() as m:
            m.setattr(learner_mod.ActiveLearner, "_test_rmse", _literal_eq2)
            ref = _run_learner(41, "pwu", RandomForestRegressor, False, m,
                               tied_labels=tied, **cfg)
        with monkeypatch.context() as m:
            fast = _run_learner(41, "pwu", RandomForestRegressor, False, m,
                                tied_labels=tied, **cfg)
        assert len(ref.records) == len(fast.records) > 1
        for a, b in zip(ref.records, fast.records):
            assert list(a.rmse) == list(b.rmse)
            assert [v.hex() for v in a.rmse.values()] == [
                v.hex() for v in b.rmse.values()
            ]


def _histories_equal(a, b) -> bool:
    if len(a.records) != len(b.records):
        return False
    return all(
        x.selected == y.selected
        and x.selected_mu == y.selected_mu
        and x.selected_sigma == y.selected_sigma
        and x.rmse == y.rmse
        and x.n_train == y.n_train
        and x.cumulative_cost == y.cumulative_cost
        for x, y in zip(a.records, b.records)
    )


class TestTelemetryEquivalence:
    """Telemetry spans/counters never perturb results: tracing on and off
    produce bit-identical histories (spans touch no RNG and no control
    flow), at every retrain mode and through the engine at any job count."""

    @pytest.mark.parametrize("strategy_name", ["pwu", "pbus", "random"])
    def test_traced_run_bit_identical(self, kernel_mode, strategy_name, monkeypatch):
        from repro import telemetry

        with monkeypatch.context() as m:
            off = _run_learner(77, strategy_name, RandomForestRegressor, False, m)
        with telemetry.tracing(True):
            with monkeypatch.context() as m:
                on = _run_learner(77, strategy_name, RandomForestRegressor, False, m)
        assert len(telemetry.drain_events()) > 0
        assert _histories_equal(off, on)

    def test_traced_partial_retrain_bit_identical(self, kernel_mode, monkeypatch):
        from repro import telemetry

        cfg = dict(retrain="partial", refresh_fraction=0.34)
        with monkeypatch.context() as m:
            off = _run_learner(56, "pwu", RandomForestRegressor, False, m, **cfg)
        with telemetry.tracing(True):
            with monkeypatch.context() as m:
                on = _run_learner(56, "pwu", RandomForestRegressor, False, m, **cfg)
        telemetry.drain_events()
        assert _histories_equal(off, on)

    def test_traced_engine_run_bit_identical(self, kernel_mode, tiny_scale):
        from repro import telemetry
        from repro.engine.context import EngineConfig
        from repro.experiments.runner import strategy_trace

        quiet = EngineConfig(jobs=1, progress=False)
        off = strategy_trace("mvt", "pwu", tiny_scale, seed=9, engine=quiet)
        with telemetry.tracing(True):
            on = strategy_trace("mvt", "pwu", tiny_scale, seed=9, engine=quiet)
        telemetry.drain_events()
        assert np.array_equal(off.n_train, on.n_train)
        assert np.array_equal(off.cc_mean, on.cc_mean)
        for key in off.rmse_mean:
            assert np.array_equal(off.rmse_mean[key], on.rmse_mean[key])
