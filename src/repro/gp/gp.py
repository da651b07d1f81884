"""Gaussian-process regression on log execution time.

Standard exact GP: RBF kernel plus Gaussian observation noise, inputs
z-scored per column, and targets modelled as ``log y``, standardised
internally.  Hyper-parameters ``(log ℓ, log σ_f, log σ_n)`` maximise the
log marginal likelihood via L-BFGS-B with analytic gradients, from a
heuristic start and one random perturbation of it.

The class is a :class:`~repro.surrogate.Surrogate` (``kind`` ``"gp"``),
like :class:`repro.forest.RandomForestRegressor`, so either model can
drive Algorithm 1 and be saved with :func:`repro.surrogate.save_surrogate`.

scipy is imported by the three methods that call it, so importing the
package, or loading a GP envelope, loads no scipy; a process pays for it
at its first GP fit or prediction.
"""

from __future__ import annotations

import numpy as np

from repro.gp.kernels import squared_distances
from repro.rng import as_generator
from repro.surrogate.base import Surrogate

__all__ = ["GaussianProcessRegressor"]

_JITTER = 1e-10

#: Tolerance of the load check on ``L`` and ``alpha``, relative to the kernel
#: matrix: far above a solve's rounding, far below a change to a stored value.
_SOLVE_RTOL = 1e-8


class GaussianProcessRegressor(Surrogate):
    """Exact GP regression (RBF + Gaussian noise) on ``log y``.

    One configuration: :meth:`fit` maximises the marginal likelihood from a
    heuristic start and one restart perturbed from ``seed``'s stream.
    Execution times are positive and heavy-tailed, and a GP on raw times
    has a posterior mean that goes negative on them (the failure mode
    Section II-B alludes to).  On ``log y`` the posterior is log-normal and
    predictions are positive (delta-method back-transform), so :meth:`fit`
    refuses ``y <= 0``.
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

    def __init__(self, seed=None) -> None:
        self.rng = as_generator(seed)
        self._fitted = False

    # -- target transform --------------------------------------------------
    @staticmethod
    def _to_latent(y: np.ndarray) -> np.ndarray:
        """Training labels → the targets the GP models, ``log y``."""
        if np.any(y <= 0):
            raise ValueError("the GP models log y and needs strictly positive targets")
        return np.log(y)

    @staticmethod
    def _from_latent(mu: np.ndarray, sd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, std) of ``log y`` → of ``y``, by the delta method."""
        mean = np.exp(mu + 0.5 * sd**2)
        std = mean * np.sqrt(np.maximum(np.expm1(sd**2), 0.0))
        return mean, std

    # -- internals ---------------------------------------------------------
    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._x_mean) / self._x_scale

    def _rbf(self, sq: np.ndarray) -> np.ndarray:
        return self.signal_variance_ * np.exp(-0.5 * sq / self.lengthscale_**2)

    def _train_cov(self, sq: np.ndarray) -> np.ndarray:
        return self._rbf(sq) + (self.noise_variance_ + _JITTER) * np.eye(len(sq))

    @staticmethod
    def _neg_log_marginal(
        theta: np.ndarray, sq: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient in θ=log(ℓ,σf,σn)."""
        from scipy import linalg

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
        from scipy import linalg, optimize

        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) < 2:
            raise ValueError("GP needs at least two training samples")

        self._x_mean = X.mean(axis=0)
        self._x_scale = np.where(X.std(axis=0) > 1e-12, X.std(axis=0), 1.0)
        Z = self._standardize(X)
        y_work = self._to_latent(y)
        self._y_mean = float(y_work.mean())
        self._y_scale = float(y_work.std()) if y_work.std() > 1e-12 else 1.0
        t = (y_work - self._y_mean) / self._y_scale

        sq = squared_distances(Z, Z)
        # Heuristic start: ℓ = median pairwise distance, σf = 1, σn = 0.1.
        med = np.sqrt(np.median(sq[sq > 0])) if (sq > 0).any() else 1.0
        theta0 = np.log(np.array([max(med, 1e-3), 1.0, 0.1]))

        best_theta, best_nll = theta0, self._neg_log_marginal(theta0, sq, t)[0]
        starts = (theta0, theta0 + self.rng.normal(0.0, 0.7, size=3))
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

        self._L = linalg.cholesky(self._train_cov(sq), lower=True)
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
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Posterior mean, in the original target units."""
        mu, _ = self.predict_with_uncertainty(X)
        return mu

    def predict_with_uncertainty(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and std (original units), like the forest's API."""
        from scipy import linalg

        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Ks = self._rbf(squared_distances(self._standardize(X), self._Z))
        mu = Ks @ self._alpha
        V = linalg.solve_triangular(self._L, Ks.T, lower=True)
        var = self.signal_variance_ - np.sum(V * V, axis=0)
        var = np.maximum(var, 0.0)
        mu_y = mu * self._y_scale + self._y_mean
        sd_y = np.sqrt(var) * self._y_scale
        return self._from_latent(mu_y, sd_y)

    # -- persistence -------------------------------------------------------
    def serialize(self) -> dict[str, np.ndarray]:
        """The fitted state: standardisation, hyper-parameters and solve."""
        if not self._fitted:
            raise ValueError("cannot serialize an unfitted GP surrogate")
        payload = {"log_targets": np.asarray(True)}  # constant; keeps the layout
        for key, attr in self._SCALARS + self._ARRAYS:
            payload[key] = np.asarray(getattr(self, attr))
        return payload

    @classmethod
    def deserialize(
        cls, payload: dict[str, np.ndarray]
    ) -> "GaussianProcessRegressor":
        """Rebuild a fitted GP; ``ValueError`` for state no fit writes.

        ``log_targets`` is a 0-d ``True`` and every number finite.  ``Z`` is
        ``(n, d)`` with ``n >= 2`` and the other arrays match it, scales and
        hyper-parameters are positive, ``L`` factors the kernel matrix and
        ``alpha`` solves it for ``y``.  The model keeps its training data;
        refitting it is a fresh fit from an unseeded stream, as for
        ``make_surrogate("gp")``.
        """
        log_targets = payload["log_targets"]
        if log_targets.shape != () or log_targets.dtype != np.bool_ or not log_targets:
            raise ValueError(f"log_targets is {log_targets!r}; the GP models log y")
        gp = cls()
        for key, attr in cls._SCALARS + cls._ARRAYS:
            value, scalar = payload[key], (key, attr) in cls._SCALARS
            if (value.dtype.kind not in "iuf" or (scalar and value.ndim)
                    or not np.isfinite(value).all()):
                what = "number" if scalar else "array"
                raise ValueError(f"{key} is not a finite real {what}")
            value = np.asarray(value, dtype=np.float64)
            setattr(gp, attr, float(value) if scalar else value)
        gp._check_state()
        gp._fitted = True
        return gp

    def _check_state(self) -> None:
        n, d = self._Z.shape if self._Z.ndim == 2 else (0, 0)
        arrays = (self._x_mean, self._x_scale, self._alpha, self._y, self._L)
        shapes = tuple(a.shape for a in arrays)
        if n < 2 or shapes != ((d,), (d,), (n,), (n,), (n, n)):
            raise ValueError(f"x_mean, x_scale, alpha, y and L have shapes {shapes}, "
                             f"which do not fit Z's {self._Z.shape}")
        positive = (self._x_scale, np.diag(self._L), self._y_scale, self.lengthscale_,
                    self.signal_variance_, self.noise_variance_)
        if not all(np.all(np.asarray(value) > 0) for value in positive):
            raise ValueError("a scale, hyper-parameter or pivot of L is not positive")
        K = self._train_cov(squared_distances(self._Z, self._Z))
        t = (self._to_latent(self._y) - self._y_mean) / self._y_scale
        tol = _SOLVE_RTOL * K.diagonal().max()
        if not np.all(np.abs(self._L @ self._L.T - K) <= tol):
            raise ValueError("L is not the Cholesky factor of the kernel matrix")
        bound = tol * np.abs(self._alpha).sum() + _SOLVE_RTOL * np.abs(t).max()
        if not np.all(np.abs(K @ self._alpha - t) <= bound):
            raise ValueError("alpha does not solve the kernel matrix for y")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._fitted:
            return "GaussianProcessRegressor(unfitted)"
        return (
            f"GaussianProcessRegressor(l={self.lengthscale_:.3g}, "
            f"sf2={self.signal_variance_:.3g}, sn2={self.noise_variance_:.3g})"
        )

