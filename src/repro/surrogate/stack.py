"""Error-weighted model stacking (the ``stack`` surrogate).

Where ``select`` commits to one family per refit, ``stack`` keeps them
all: members are weighted by inverse cross-validated RMSE (so a family
that explains the data better speaks louder) and their posteriors are
blended by mixture moment matching::

    w_i ∝ 1 / (cv_rmse_i + ε)           (normalised)
    μ    = Σ w_i μ_i
    σ²   = Σ w_i σ_i²  +  Σ w_i (μ_i − μ)²

The second σ² term is the *cross-model disagreement*: where the families
diverge, the ensemble is honest about not knowing, and PWU/MaxU — which
only see ``(μ, σ)`` — are drawn toward exactly those regions.  That is
the multi-model active-learning mechanism of Ghaffari et al. (PAPERS.md).

Determinism matches ``select``: fold assignment derives from one integer
drawn at construction plus the training-set size, and members fit in
declaration order, so histories are bit-identical at any ``--jobs``.
When the training set is too small to cross-validate the members get
equal weights.
"""

from __future__ import annotations

import numpy as np

from repro.rng import as_generator
from repro.surrogate.base import Surrogate
from repro.surrogate.select import cv_rmse
from repro.telemetry import counters, span

__all__ = ["StackSurrogate"]

_EPS = 1e-12


class StackSurrogate(Surrogate):
    """Inverse-CV-error weighted blend of registered surrogates."""

    kind = "stack"

    def __init__(
        self,
        members: "tuple[str, ...]" = ("forest", "gp"),
        k_folds: int = 3,
        builder=None,
        seed=None,
    ) -> None:
        members = tuple(members)
        if len(members) < 2:
            raise ValueError("stack needs at least two member surrogates")
        if k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {k_folds}")
        if builder is None:
            from repro.surrogate.registry import make_surrogate

            rng = as_generator(seed)
            builder = lambda name: make_surrogate(name, rng=rng)  # noqa: E731
        self.members = members
        self.k_folds = int(k_folds)
        self._builder = builder
        self._fold_seed = int(as_generator(seed).integers(0, 2**63 - 1))
        self.weights: "np.ndarray | None" = None
        self.cv_errors: dict[str, float] = {}
        self.models: "tuple[Surrogate, ...] | None" = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "StackSurrogate":
        errors = cv_rmse(
            self._builder, self.members, X, y, self.k_folds, self._fold_seed
        )
        if errors is None:
            self.cv_errors = {}
            raw = np.ones(len(self.members))
        else:
            self.cv_errors = errors
            raw = np.array([1.0 / (errors[m] + _EPS) for m in self.members])
            if not np.isfinite(raw).any() or raw.sum() <= 0.0:
                # Every member failed CV — weight them equally and let
                # the full-data fits below raise if they also fail.
                raw = np.ones(len(self.members))
        self.weights = raw / raw.sum()
        with span("surrogate.stack", n_train=len(y), members=len(self.members)):
            self.models = tuple(
                self._builder(m).fit(X, y) for m in self.members
            )
        counters.inc("surrogate.stack_fits")
        return self

    def _fitted_models(self) -> "tuple[Surrogate, ...]":
        if self.models is None:
            raise RuntimeError("stack surrogate is not fitted; call fit() first")
        return self.models

    @property
    def row_wise(self) -> bool:
        # The blend reduces over members, per column, in member order.
        return all(m.row_wise for m in self._fitted_models())

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        models = self._fitted_models()
        mus, sds = zip(*(m.predict_with_uncertainty(X) for m in models))
        mus = np.stack(mus)
        sds = np.stack(sds)
        w = self.weights[:, None]
        mu = (w * mus).sum(axis=0)
        # Within-model variance plus the cross-model disagreement term.
        var = (w * sds**2).sum(axis=0) + (w * (mus - mu) ** 2).sum(axis=0)
        return mu, np.sqrt(var)

    def predict(self, X: np.ndarray) -> np.ndarray:
        mu, _ = self.predict_with_uncertainty(X)
        return mu

    @property
    def training_targets(self) -> np.ndarray:
        return self._fitted_models()[0].training_targets

    def serialize(self) -> dict[str, np.ndarray]:
        from repro.surrogate.serialize import embed_blob, surrogate_bytes

        models = self._fitted_models()
        payload: dict[str, np.ndarray] = {
            "members": np.asarray(self.members),
            "k_folds": np.asarray(self.k_folds),
            "weights": np.asarray(self.weights),
        }
        if self.cv_errors:
            payload["cv_names"] = np.asarray(tuple(self.cv_errors))
            payload["cv_rmse"] = np.asarray(tuple(self.cv_errors.values()))
        for i, model in enumerate(models):
            payload[f"member_{i}_blob"] = embed_blob(surrogate_bytes(model))
        return payload

    @classmethod
    def deserialize(cls, payload: dict[str, np.ndarray]) -> "StackSurrogate":
        from repro.surrogate.select import _unfit_builder
        from repro.surrogate.serialize import extract_blob, load_surrogate

        model = cls(
            members=tuple(str(m) for m in payload["members"]),
            k_folds=int(payload["k_folds"]),
            builder=_unfit_builder,
        )
        model.weights = np.asarray(payload["weights"], dtype=np.float64)
        model.models = tuple(
            load_surrogate(extract_blob(payload[f"member_{i}_blob"]))
            for i in range(len(model.members))
        )
        if "cv_names" in payload:
            model.cv_errors = {
                str(n): float(e)
                for n, e in zip(payload["cv_names"], payload["cv_rmse"])
            }
        return model
