"""Tests for the Gaussian-process surrogate."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import EngineConfig, use_engine
from repro.engine.jobs import EngineJobError
from repro.envelope import EnvelopeError
from repro.experiments.config import SCALES
from repro.experiments.runner import strategy_trace
from repro.gp import GaussianProcessRegressor
from repro.gp.kernels import squared_distances
from repro.surrogate import load_surrogate, register_surrogate, surrogate_bytes
from repro.surrogate import registry as registry_mod


class _PlainGP(GaussianProcessRegressor):
    """The GP on raw targets, which Section II-B's argument is about."""

    @staticmethod
    def _to_latent(y):
        return y

    @staticmethod
    def _from_latent(mu, sd):
        return mu, sd


@pytest.fixture
def plain_gp_name():
    """``_PlainGP`` registered under a test-only surrogate name."""
    name = "_plain_gp"
    register_surrogate(name, lambda config, rng: _PlainGP(seed=rng))
    try:
        yield name
    finally:
        del registry_mod._REGISTRY[name]


@pytest.fixture
def fitted_gp(rng):
    X = rng.random((30, 2))
    return GaussianProcessRegressor(seed=0).fit(X, np.exp(np.sin(3 * X[:, 0])))


class TestKernels:
    def test_squared_distances_exact(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        B = np.array([[0.0, 1.0]])
        d = squared_distances(A, B)
        assert d.tolist() == [[1.0], [1.0]]

    def test_self_distances_zero_diagonal(self, rng):
        A = rng.random((20, 3))
        d = squared_distances(A, A)
        assert np.allclose(np.diag(d), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distances(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_rbf_at_zero_distance_is_signal_variance(self, fitted_gp):
        K = fitted_gp._rbf(np.zeros((1, 1)))
        assert K[0, 0] == pytest.approx(fitted_gp.signal_variance_)

    def test_rbf_decays_with_distance(self, fitted_gp):
        K = fitted_gp._rbf(np.array([0.0, 1.0, 4.0]))
        assert K[0] > K[1] > K[2]

    def test_rbf_validation(self, fitted_gp):
        """A saved kernel hyper-parameter that is not positive is refused
        at load."""
        with np.load(io.BytesIO(surrogate_bytes(fitted_gp))) as data:
            payload = {k: data[k] for k in data.files}
        for key, value in [("lengthscale", 0.0), ("signal_variance", -1.0),
                           ("noise_variance", 0.0)]:
            buf = io.BytesIO()
            np.savez(buf, **dict(payload, **{key: np.asarray(value)}))
            with pytest.raises(EnvelopeError, match="not positive"):
                load_surrogate(io.BytesIO(buf.getvalue()))


class TestGPRegression:
    def test_interpolates_clean_data(self, rng):
        X = np.linspace(0, 1, 25).reshape(-1, 1)
        y = np.exp(np.sin(4 * X[:, 0]))
        gp = GaussianProcessRegressor(seed=0).fit(X, y)
        pred = gp.predict(X)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.05

    def test_extrapolation_reverts_to_mean_with_high_sigma(self, rng):
        X = rng.random((40, 1)) * 0.3
        y = 2.0 + X[:, 0]
        gp = GaussianProcessRegressor(seed=0).fit(X, y)
        _, sigma_in = gp.predict_with_uncertainty(np.array([[0.15]]))
        _, sigma_out = gp.predict_with_uncertainty(np.array([[5.0]]))
        assert sigma_out[0] > sigma_in[0]

    def test_sigma_nonnegative(self, regression_data):
        X, y = regression_data
        gp = GaussianProcessRegressor(seed=0).fit(X[:80], np.exp(y[:80]))
        _, sigma = gp.predict_with_uncertainty(X[80:150])
        assert (sigma >= 0).all()

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GaussianProcessRegressor().predict(np.zeros((1, 2)))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two"):
            GaussianProcessRegressor().fit(np.zeros((1, 2)), np.zeros(1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            GaussianProcessRegressor().fit(np.zeros((3, 2)), np.zeros(2))

    def test_noisy_data_does_not_crash_and_smooths(self, rng):
        X = np.linspace(0, 1, 60).reshape(-1, 1)
        y = np.exp(np.sin(3 * X[:, 0]) + rng.normal(0, 0.3, 60))
        gp = GaussianProcessRegressor(seed=0).fit(X, y)
        assert gp.noise_variance_ > 1e-4  # it noticed the noise
        pred = gp.predict(X)
        clean = np.exp(np.sin(3 * X[:, 0]))
        assert np.sqrt(np.mean((pred - clean) ** 2)) < 0.3

    def test_constant_target_handled(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        gp = GaussianProcessRegressor(seed=0).fit(X, np.full(10, 5.0))
        mu, _ = gp.predict_with_uncertainty(X)
        assert np.allclose(mu, 5.0, atol=1e-6)

    def test_log_marginal_likelihood_finite(self, fitted_gp):
        """The fit's objective is finite at the hyper-parameters it kept."""
        gp = fitted_gp
        theta = np.log([gp.lengthscale_, np.sqrt(gp.signal_variance_),
                        np.sqrt(gp.noise_variance_)])
        t = (np.log(gp.training_targets) - gp._y_mean) / gp._y_scale
        nll, grad = gp._neg_log_marginal(theta, squared_distances(gp._Z, gp._Z), t)
        assert np.isfinite(nll) and nll < 1e25
        assert np.isfinite(grad).all()

    def test_restart_validation(self):
        """The restart count, the optimiser switch and the target transform
        are fixed: passing any of them is a TypeError."""
        for knob in ({"n_restarts": 1}, {"optimize_hypers": False},
                     {"log_targets": True}):
            with pytest.raises(TypeError):
                GaussianProcessRegressor(**knob)


class TestLogTargets:
    def test_predictions_strictly_positive(self, rng):
        """The reason the GP models log y: heavy-tailed positive targets
        whose raw-target posterior dips negative."""
        X = rng.random((80, 3))
        y = np.exp(rng.normal(0.0, 1.5, 80)) * 0.1  # heavy right tail
        gp = GaussianProcessRegressor(seed=0).fit(X, y)
        mu, sigma = gp.predict_with_uncertainty(rng.random((200, 3)))
        assert (mu > 0).all()
        assert (sigma >= 0).all()

    def test_recovers_log_linear_signal(self, rng):
        X = np.linspace(0, 1, 60).reshape(-1, 1)
        y = np.exp(2.0 * X[:, 0])
        gp = GaussianProcessRegressor(seed=0).fit(X, y)
        pred = gp.predict(X)
        assert np.allclose(pred, y, rtol=0.2)

    def test_rejects_nonpositive_targets(self, rng):
        X = rng.random((10, 2))
        with pytest.raises(ValueError, match="positive"):
            GaussianProcessRegressor().fit(X, np.zeros(10))

    def test_pwu_runs_on_gp_surrogate_end_to_end(self, tiny_scale):
        trace = strategy_trace(
            "hypre", "pwu", tiny_scale, seed=1,
            config_overrides={"surrogate": "gp"},
        )
        assert trace.n_train[-1] == tiny_scale.n_max
        assert np.isfinite(trace.rmse_mean["0.05"]).all()

    def test_plain_gp_breaks_equation_1_on_hypre(self, plain_gp_name):
        """EXPERIMENTS.md's Section II-B finding: on hypre a GP on raw
        times predicts a non-positive time, which PWU (Equation 1) refuses;
        the log-target GP runs the same trials to the end."""
        engine = EngineConfig(jobs=1, progress=False, max_retries=0)
        with use_engine(engine):
            with pytest.raises(EngineJobError, match="must be positive"):
                strategy_trace("hypre", "pwu", SCALES["smoke"], seed=0,
                               config_overrides={"surrogate": plain_gp_name})
            trace = strategy_trace("hypre", "pwu", SCALES["smoke"], seed=0,
                                   config_overrides={"surrogate": "gp"})
        assert np.isfinite(trace.rmse_mean["0.05"]).all()


class TestLearnerIntegration:
    def test_gp_drives_algorithm_1(self, tiny_scale):
        trace = strategy_trace(
            "mvt",
            "pwu",
            tiny_scale,
            seed=0,
            config_overrides={"surrogate": "gp"},
        )
        assert trace.n_train[-1] == tiny_scale.n_max
        assert np.isfinite(trace.rmse_mean["0.05"]).all()

    def test_gp_partial_retrain_rejected(self):
        from repro.active import LearnerConfig

        with pytest.raises(ValueError, match="scratch"):
            LearnerConfig(surrogate="gp", retrain="partial")

    def test_unknown_surrogate_rejected(self):
        from repro.active import LearnerConfig

        with pytest.raises(ValueError, match="surrogate"):
            LearnerConfig(surrogate="svm")


@given(seed=st.integers(0, 500), n=st.integers(5, 30))
@settings(max_examples=10, deadline=None)
def test_property_posterior_mean_bounded_by_data_scale(seed, n):
    """Posterior means stay within a few target standard deviations."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    z = rng.normal(size=n)
    gp = GaussianProcessRegressor(seed=0).fit(X, np.exp(z))
    mu = gp.predict(rng.random((20, 2)))
    span = max(z.std(), 1e-6)
    assert np.all(np.abs(np.log(mu) - z.mean()) < 6.0 * span + 1.0)
