"""Gaussian-process regression with marginal-likelihood hyper-fitting.

Standard exact GP: RBF kernel plus Gaussian observation noise, inputs
z-scored per column and targets standardised internally.  Hyper-parameters
``(log ℓ, log σ_f, log σ_n)`` maximise the log marginal likelihood via
L-BFGS-B with analytic gradients, optionally from several restarts.

The class is a :class:`~repro.surrogate.Surrogate` (``kind`` ``"gp"``),
like :class:`repro.forest.RandomForestRegressor`, so either model can
drive Algorithm 1 and be saved with :func:`repro.surrogate.save_surrogate`.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, optimize

from repro.gp.kernels import squared_distances
from repro.rng import as_generator
from repro.surrogate.base import Surrogate

__all__ = ["GaussianProcessRegressor"]

_JITTER = 1e-10


class GaussianProcessRegressor(Surrogate):
    """Exact GP regression (RBF + Gaussian noise).

    Parameters
    ----------
    n_restarts:
        Hyper-parameter optimisation restarts (first start is a fixed
        heuristic; the rest are random perturbations).
    optimize_hypers:
        Disable to keep the heuristic initial hyper-parameters — used in
        the active-learning loop's early iterations where n is tiny.
    log_targets:
        Model ``log y`` instead of ``y``.  Execution times are positive
        and heavy-tailed; a plain GP's posterior mean can go negative on
        them (the failure mode Section II-B alludes to).  With
        ``log_targets`` the posterior is log-normal and predictions are
        positive by construction (delta-method back-transform).
    seed:
        Stream for restart perturbations.
    """

    kind = "gp"
    # Not row-wise: the mean's ``Ks @ alpha`` goes through BLAS dgemv,
    # whose rounding of one row can depend on how many rows the query has.

    #: Scalar state mirrored to/from the payload (name → attribute).
    _SCALARS = (
        ("y_mean", "_y_mean"),
        ("y_scale", "_y_scale"),
        ("lengthscale", "lengthscale_"),
        ("signal_variance", "signal_variance_"),
        ("noise_variance", "noise_variance_"),
    )
    _ARRAYS = (
        ("x_mean", "_x_mean"),
        ("x_scale", "_x_scale"),
        ("Z", "_Z"),
        ("alpha", "_alpha"),
        ("L", "_L"),
        ("y", "_y"),
    )

    def __init__(
        self,
        n_restarts: int = 2,
        optimize_hypers: bool = True,
        log_targets: bool = False,
        seed=None,
    ) -> None:
        if n_restarts < 0:
            raise ValueError("n_restarts must be >= 0")
        self.n_restarts = n_restarts
        self.optimize_hypers = optimize_hypers
        self.log_targets = log_targets
        self.rng = as_generator(seed)
        self._fitted = False

    # -- internals ---------------------------------------------------------
    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._x_mean) / self._x_scale

    @staticmethod
    def _neg_log_marginal(
        theta: np.ndarray, sq: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient in θ=log(ℓ,σf,σn)."""
        log_ell, log_sf, log_sn = theta
        ell2 = np.exp(2.0 * log_ell)
        sf2 = np.exp(2.0 * log_sf)
        sn2 = np.exp(2.0 * log_sn)
        n = len(y)
        E = np.exp(-0.5 * sq / ell2)
        K = sf2 * E + (sn2 + _JITTER) * np.eye(n)
        try:
            L = linalg.cholesky(K, lower=True)
        except linalg.LinAlgError:
            return 1e25, np.zeros(3)
        alpha = linalg.cho_solve((L, True), y)
        nll = (
            0.5 * float(y @ alpha)
            + float(np.log(np.diag(L)).sum())
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        # Gradient: dnll/dθ_i = -0.5 tr((αα^T - K^{-1}) dK/dθ_i)
        Kinv = linalg.cho_solve((L, True), np.eye(n))
        W = np.outer(alpha, alpha) - Kinv
        dK_dlogell = sf2 * E * (sq / ell2)  # dK/dlogℓ
        dK_dlogsf = 2.0 * sf2 * E
        dK_dlogsn = 2.0 * sn2 * np.eye(n)
        grad = -0.5 * np.array(
            [
                float((W * dK_dlogell).sum()),
                float((W * dK_dlogsf).sum()),
                float((W * dK_dlogsn).sum()),
            ]
        )
        return nll, grad

    # -- fitting --------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        """Fit hyper-parameters and precompute the predictive solve."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) < 2:
            raise ValueError("GP needs at least two training samples")

        self._x_mean = X.mean(axis=0)
        self._x_scale = np.where(X.std(axis=0) > 1e-12, X.std(axis=0), 1.0)
        Z = self._standardize(X)
        y_work = y
        if self.log_targets:
            if np.any(y <= 0):
                raise ValueError("log_targets requires strictly positive targets")
            y_work = np.log(y)
        self._y_mean = float(y_work.mean())
        self._y_scale = float(y_work.std()) if y_work.std() > 1e-12 else 1.0
        t = (y_work - self._y_mean) / self._y_scale

        sq = squared_distances(Z, Z)
        # Heuristic start: ℓ = median pairwise distance, σf = 1, σn = 0.1.
        med = np.sqrt(np.median(sq[sq > 0])) if (sq > 0).any() else 1.0
        theta0 = np.log(np.array([max(med, 1e-3), 1.0, 0.1]))

        best_theta, best_nll = theta0, self._neg_log_marginal(theta0, sq, t)[0]
        if self.optimize_hypers:
            starts = [theta0] + [
                theta0 + self.rng.normal(0.0, 0.7, size=3)
                for _ in range(self.n_restarts)
            ]
            bounds = [(-5.0, 6.0), (-4.0, 4.0), (-7.0, 2.0)]
            for start in starts:
                res = optimize.minimize(
                    self._neg_log_marginal,
                    start,
                    args=(sq, t),
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 60},
                )
                if np.isfinite(res.fun) and res.fun < best_nll:
                    best_nll, best_theta = float(res.fun), res.x

        log_ell, log_sf, log_sn = best_theta
        self.lengthscale_ = float(np.exp(log_ell))
        self.signal_variance_ = float(np.exp(2.0 * log_sf))
        self.noise_variance_ = float(np.exp(2.0 * log_sn))

        n = len(t)
        K = self.signal_variance_ * np.exp(
            -0.5 * sq / self.lengthscale_**2
        ) + (self.noise_variance_ + _JITTER) * np.eye(n)
        self._L = linalg.cholesky(K, lower=True)
        self._alpha = linalg.cho_solve((self._L, True), t)
        self._Z = Z
        self._y = y.copy()
        self._fitted = True
        return self

    @property
    def training_targets(self) -> np.ndarray:
        """Labels the GP was fit on (used by incumbent-based strategies)."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        return self._y

    # -- inference ---------------------------------------------------------------
    def _cross_cov(self, Xq: np.ndarray) -> np.ndarray:
        sq = squared_distances(self._standardize(Xq), self._Z)
        return self.signal_variance_ * np.exp(-0.5 * sq / self.lengthscale_**2)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Posterior mean, in the original target units."""
        mu, _ = self.predict_with_uncertainty(X)
        return mu

    def predict_with_uncertainty(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std (original units), like the forest's API."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Ks = self._cross_cov(X)
        mu = Ks @ self._alpha
        V = linalg.solve_triangular(self._L, Ks.T, lower=True)
        var = self.signal_variance_ - np.sum(V * V, axis=0)
        var = np.maximum(var, 0.0)
        mu_y = mu * self._y_scale + self._y_mean
        sd_y = np.sqrt(var) * self._y_scale
        if self.log_targets:
            # Delta-method back-transform of the log-normal posterior.
            mean = np.exp(mu_y + 0.5 * sd_y**2)
            std = mean * np.sqrt(np.maximum(np.expm1(sd_y**2), 0.0))
            return mean, std
        return mu_y, sd_y

    def log_marginal_likelihood(self) -> float:
        """Fitted model evidence (standardised-target units)."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        n = len(self._alpha)
        t = self._L @ (self._L.T @ self._alpha)  # reconstruct standardized y
        return -(
            0.5 * float(t @ self._alpha)
            + float(np.log(np.diag(self._L)).sum())
            + 0.5 * n * np.log(2.0 * np.pi)
        )

    # -- persistence -------------------------------------------------------
    def serialize(self) -> dict[str, np.ndarray]:
        """The fitted state: standardisation, hyper-parameters and solve."""
        if not self._fitted:
            raise ValueError("cannot serialize an unfitted GP surrogate")
        payload = {"log_targets": np.asarray(self.log_targets)}
        for key, attr in self._SCALARS + self._ARRAYS:
            payload[key] = np.asarray(getattr(self, attr))
        return payload

    @classmethod
    def deserialize(
        cls, payload: dict[str, np.ndarray]
    ) -> "GaussianProcessRegressor":
        """Rebuild a fitted GP that predicts but does not re-optimise."""
        gp = cls(
            n_restarts=0,
            optimize_hypers=False,
            log_targets=bool(payload["log_targets"]),
        )
        for key, attr in cls._SCALARS:
            setattr(gp, attr, float(payload[key]))
        for key, attr in cls._ARRAYS:
            setattr(gp, attr, np.asarray(payload[key], dtype=np.float64))
        gp._fitted = True
        return gp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._fitted:
            return "GaussianProcessRegressor(unfitted)"
        return (
            f"GaussianProcessRegressor(l={self.lengthscale_:.3g}, "
            f"sf2={self.signal_variance_:.3g}, sn2={self.noise_variance_:.3g})"
        )
