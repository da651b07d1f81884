"""Adapters wrapping the existing model families behind the protocol.

Each adapter is pure delegation — no extra randomness, no re-scaling, no
caching of its own — so wrapping a model changes *nothing* about its
numbers.  In particular :class:`ForestSurrogate` is bit-identical to
driving the raw :class:`~repro.forest.RandomForestRegressor` (pinned by
``tests/test_trace_equivalence.py``): construction forwards the same
arguments, ``fit``/``predict`` forward the same arrays, and the forest's
vectorised pool scorers are re-exposed under the attribute names the
sampling layer discovers by ``getattr`` duck-typing.
"""

from __future__ import annotations

import numpy as np

from repro.forest import RandomForestRegressor
from repro.forest.serialize import forest_from_payload, forest_payload
from repro.surrogate.base import Surrogate

__all__ = ["ForestSurrogate", "GPSurrogate"]


class ForestSurrogate(Surrogate):
    """The paper's CART forest (:mod:`repro.forest`) behind the protocol."""

    kind = "forest"

    def __init__(self, forest: RandomForestRegressor) -> None:
        self.forest = forest
        # Re-expose the forest's vectorised pool scorers so the sampling
        # layer's getattr duck-typing finds them (and the generation-
        # stamped pool cache keeps working).  A forest without them — the
        # reference implementation in the equivalence suite — stays
        # without them here.
        self.predict_with_uncertainty_pool = getattr(
            forest, "predict_with_uncertainty_pool", None
        )
        self.predict_pool = getattr(forest, "predict_pool", None)

    @classmethod
    def build(
        cls,
        n_estimators: int = 30,
        uncertainty: str = "across_trees",
        seed=None,
    ) -> "ForestSurrogate":
        """Construct a fresh forest exactly as the learner always has."""
        return cls(
            RandomForestRegressor(
                n_estimators=n_estimators,
                uncertainty=uncertainty,
                seed=seed,
            )
        )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ForestSurrogate":
        self.forest.fit(X, y)
        return self

    def update(
        self, X_new: np.ndarray, y_new: np.ndarray, refresh_fraction: float = 0.3
    ) -> "ForestSurrogate":
        self.forest.update(X_new, y_new, refresh_fraction)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.forest.predict(X)

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.forest.predict_with_uncertainty(X)

    @property
    def training_targets(self) -> np.ndarray:
        return self.forest.training_targets

    def serialize(self) -> dict[str, np.ndarray]:
        return forest_payload(self.forest)

    @classmethod
    def deserialize(cls, payload: dict[str, np.ndarray]) -> "ForestSurrogate":
        return cls(forest_from_payload(payload))


class GPSurrogate(Surrogate):
    """The exact-GP baseline (:mod:`repro.gp`) behind the protocol.

    Built exactly as the learner's historical ``model="gp"`` path did:
    one optimisation restart, ``log_targets=True`` (execution times are
    positive), hyper-restart noise drawn from the learner's shared
    stream.
    """

    kind = "gp"

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

    def __init__(self, gp) -> None:
        self.gp = gp

    @classmethod
    def build(cls, seed=None) -> "GPSurrogate":
        from repro.gp import GaussianProcessRegressor

        # log_targets keeps predicted times positive — see repro.gp.
        return cls(GaussianProcessRegressor(n_restarts=1, log_targets=True, seed=seed))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GPSurrogate":
        self.gp.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.gp.predict(X)

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self.gp.predict_with_uncertainty(X)

    @property
    def training_targets(self) -> np.ndarray:
        return self.gp.training_targets

    def serialize(self) -> dict[str, np.ndarray]:
        if not self.gp._fitted:
            raise ValueError("cannot serialize an unfitted GP surrogate")
        payload = {"log_targets": np.asarray(self.gp.log_targets)}
        for key, attr in self._SCALARS:
            payload[key] = np.asarray(getattr(self.gp, attr))
        for key, attr in self._ARRAYS:
            payload[key] = np.asarray(getattr(self.gp, attr))
        return payload

    @classmethod
    def deserialize(cls, payload: dict[str, np.ndarray]) -> "GPSurrogate":
        from repro.gp import GaussianProcessRegressor

        gp = GaussianProcessRegressor(
            n_restarts=0,
            optimize_hypers=False,
            log_targets=bool(payload["log_targets"]),
        )
        for key, attr in cls._SCALARS:
            setattr(gp, attr, float(payload[key]))
        for key, attr in cls._ARRAYS:
            setattr(gp, attr, np.asarray(payload[key], dtype=np.float64))
        gp._fitted = True
        return cls(gp)
