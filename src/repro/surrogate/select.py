"""Cross-validated per-round model selection (the ``select`` surrogate).

Ghaffari et al. (PAPERS.md, "Statistical Hardware Design With Multi-model
Active Learning") observe that no single model family wins across a whole
active-learning run: the forest dominates once the training set has some
mass, the GP often wins the data-starved early rounds.  ``select`` picks
the family *per refit* by k-fold cross-validated RMSE on the labels
collected so far, then refits the winner on everything.

Determinism: the fold permutation derives from a single integer drawn
from the learner's seeded stream at construction time, combined with the
current training-set size via :func:`repro.rng.derive` — so fold
assignment is a pure function of (run seed, n_train), independent of
execution order, and histories stay bit-identical at any ``--jobs``.
Candidates are evaluated in declaration order and ties break toward the
earlier candidate.

A candidate that fails to fit (e.g. the GP's Cholesky on degenerate
data) is scored infinitely bad rather than aborting the run; when the
training set is too small to cross-validate at all, selection falls back
to the first candidate.
"""

from __future__ import annotations

import numpy as np

from repro.rng import as_generator, derive
from repro.surrogate.base import Surrogate
from repro.telemetry import counters, span

__all__ = ["SelectSurrogate", "cv_rmse"]


def fold_slices(n: int, k_folds: int, fold_seed: int) -> "list[np.ndarray] | None":
    """Deterministic k-fold index partition, or ``None`` if infeasible.

    Feasible means every fold leaves at least two training rows (the GP's
    minimum) and holds at least one validation row.
    """
    k = min(k_folds, n)
    if k < 2 or n - int(np.ceil(n / k)) < 2:
        return None
    perm = derive(fold_seed, "folds", n).permutation(n)
    return [np.asarray(chunk) for chunk in np.array_split(perm, k)]


def cv_rmse(
    builder,
    candidates: "tuple[str, ...]",
    X: np.ndarray,
    y: np.ndarray,
    k_folds: int,
    fold_seed: int,
) -> "dict[str, float] | None":
    """Per-candidate k-fold cross-validated RMSE on ``(X, y)``.

    ``builder(name)`` constructs a fresh unfitted candidate.  Returns
    ``None`` when the training set is too small to cross-validate; a
    candidate that raises during fit/predict scores ``inf`` (recorded on
    the ``surrogate.cv_failures`` counter) so one brittle family cannot
    abort the run.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    folds = fold_slices(len(y), k_folds, fold_seed)
    if folds is None:
        return None
    all_idx = np.arange(len(y))
    errors: dict[str, float] = {}
    with span("surrogate.cv", n_train=len(y), k=len(folds)):
        for name in candidates:
            sq_sum, n_val = 0.0, 0
            for val_idx in folds:
                train_idx = np.setdiff1d(all_idx, val_idx)
                try:
                    model = builder(name).fit(X[train_idx], y[train_idx])
                    pred = model.predict(X[val_idx])
                except Exception:  # noqa: BLE001 - scored, not raised
                    # A brittle candidate (GP Cholesky failure, degenerate
                    # fold) must not abort the run: score it unusable.
                    counters.inc("surrogate.cv_failures")
                    sq_sum, n_val = float("inf"), 1
                    break
                sq_sum += float(np.sum((pred - y[val_idx]) ** 2))
                n_val += len(val_idx)
            errors[name] = float(np.sqrt(sq_sum / n_val))
    return errors


class SelectSurrogate(Surrogate):
    """Per-refit cross-validated selection among registered candidates."""

    kind = "select"

    def __init__(
        self,
        candidates: "tuple[str, ...]" = ("forest", "gp"),
        k_folds: int = 3,
        builder=None,
        seed=None,
    ) -> None:
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("select needs at least one candidate surrogate")
        if k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {k_folds}")
        if builder is None:
            from repro.surrogate.registry import make_surrogate

            rng = as_generator(seed)
            builder = lambda name: make_surrogate(name, rng=rng)  # noqa: E731
        self.candidates = candidates
        self.k_folds = int(k_folds)
        self._builder = builder
        # One draw: fold assignment becomes a pure function of
        # (run seed, n_train) for the rest of this surrogate's life.
        self._fold_seed = int(as_generator(seed).integers(0, 2**63 - 1))
        self.chosen_name: "str | None" = None
        self.cv_errors: dict[str, float] = {}
        self.model: "Surrogate | None" = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SelectSurrogate":
        errors = cv_rmse(
            self._builder, self.candidates, X, y, self.k_folds, self._fold_seed
        )
        if errors is None:
            # Too little data to cross-validate: deterministic fallback.
            self.cv_errors = {}
            self.chosen_name = self.candidates[0]
        else:
            self.cv_errors = errors
            # min() keeps the first candidate on ties (declaration order).
            self.chosen_name = min(self.candidates, key=lambda n: errors[n])
        with span("surrogate.select", chosen=self.chosen_name, n_train=len(y)):
            self.model = self._builder(self.chosen_name).fit(X, y)
        counters.inc("surrogate.selections")
        return self

    def _fitted_model(self) -> Surrogate:
        if self.model is None:
            raise RuntimeError("select surrogate is not fitted; call fit() first")
        return self.model

    @property
    def row_wise(self) -> bool:
        return self._fitted_model().row_wise

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._fitted_model().predict(X)

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return self._fitted_model().predict_with_uncertainty(X)

    @property
    def training_targets(self) -> np.ndarray:
        return self._fitted_model().training_targets

    def serialize(self) -> dict[str, np.ndarray]:
        from repro.surrogate.serialize import embed_blob, surrogate_bytes

        model = self._fitted_model()
        payload = {
            "candidates": np.asarray(self.candidates),
            "k_folds": np.asarray(self.k_folds),
            "chosen": np.asarray(self.chosen_name),
            "chosen_blob": embed_blob(surrogate_bytes(model)),
        }
        if self.cv_errors:
            payload["cv_names"] = np.asarray(tuple(self.cv_errors))
            payload["cv_rmse"] = np.asarray(tuple(self.cv_errors.values()))
        return payload

    @classmethod
    def deserialize(cls, payload: dict[str, np.ndarray]) -> "SelectSurrogate":
        from repro.surrogate.serialize import extract_blob, load_surrogate

        model = cls(
            candidates=tuple(str(c) for c in payload["candidates"]),
            k_folds=int(payload["k_folds"]),
            builder=_unfit_builder,
        )
        model.chosen_name = str(payload["chosen"])
        model.model = load_surrogate(extract_blob(payload["chosen_blob"]))
        if "cv_names" in payload:
            model.cv_errors = {
                str(n): float(e)
                for n, e in zip(payload["cv_names"], payload["cv_rmse"])
            }
        return model


def _unfit_builder(name: str) -> Surrogate:
    """Builder for deserialized shells — they predict but cannot refit."""
    raise RuntimeError(
        "this select surrogate was loaded from disk and cannot refit; "
        "construct a fresh one (repro.surrogate.make_surrogate) to keep learning"
    )
