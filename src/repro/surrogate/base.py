"""The :class:`Surrogate` protocol — one interface for every model that
can drive Algorithm 1.

The loop is surrogate-agnostic: PWU and its siblings only need ``(μ, σ)``
per pool point.  Historically the CART forest was hard-wired into the
learner while :mod:`repro.gp` sat off to the side with an ad-hoc
interface; this module makes the contract explicit so any registered
model — forest, GP, cross-validated selection, error-weighted stack —
flows through the learner, the engine, the CLI, and the service
unchanged.

The contract:

``fit(X, y)``
    Train from scratch on the full labeled set.
``update(X_new, y_new, refresh_fraction)``
    Incorporate a new batch incrementally; only surrogates registered
    with ``supports_partial_update=True`` implement it (the learner's
    ``retrain="partial"`` mode checks the registry flag up front).
``predict(X)`` / ``predict_with_uncertainty(X)``
    Posterior mean, and (mean, std), in the original target units.
``training_targets``
    Labels the model was fit on — incumbent-based strategies (EI) read
    this.
``serialize()`` / ``Surrogate.deserialize(payload)``
    Round-trip the fitted state through a flat ``dict[str, np.ndarray]``
    payload (see :mod:`repro.surrogate.serialize` for the npz envelope).

Adapters may additionally expose the forest's vectorised pool scorers
(``predict_with_uncertainty_pool`` / ``predict_pool``); the sampling
layer discovers those by ``getattr`` duck-typing exactly as before, so
surrogates without them transparently fall back to the generic path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Surrogate"]


class Surrogate(ABC):
    """Abstract base for every model behind the surrogate registry."""

    #: Registry name of the family ("forest", "gp", ...); set per subclass
    #: and stamped into serialized payloads for dispatch on load.
    kind: str = ""

    # -- training ----------------------------------------------------------
    @abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Surrogate":
        """Fit from scratch on the full labeled set; returns ``self``."""

    def update(
        self, X_new: np.ndarray, y_new: np.ndarray, refresh_fraction: float = 0.3
    ) -> "Surrogate":
        """Incorporate a new batch incrementally.

        The default raises — only surrogates registered with
        ``supports_partial_update=True`` override it.
        """
        raise NotImplementedError(
            f"the {self.kind or type(self).__name__!r} surrogate only "
            "supports retrain='scratch'"
        )

    # -- inference ---------------------------------------------------------
    @abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Posterior mean per row of ``X``, in original target units."""

    @abstractmethod
    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) per row of ``X``, in original target units."""

    @property
    @abstractmethod
    def training_targets(self) -> np.ndarray:
        """Labels the surrogate was fit on (incumbent-based strategies)."""

    # -- persistence -------------------------------------------------------
    @abstractmethod
    def serialize(self) -> dict[str, np.ndarray]:
        """Fitted state as a flat dict of arrays (npz-compatible)."""

    @classmethod
    @abstractmethod
    def deserialize(cls, payload: dict[str, np.ndarray]) -> "Surrogate":
        """Rebuild a fitted surrogate from :meth:`serialize`'s payload.

        The returned model predicts but holds no training data, so it
        cannot keep learning; refit from data if you need to.
        """
