"""Strategy interface and shared selection helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.space import DataPool

__all__ = [
    "SamplingStrategy",
    "ModelFreeStrategy",
    "top_k_by_score",
    "pool_mu_sigma",
    "pool_mu",
    "consume_selection_stats",
]


def pool_mu_sigma(model, pool: DataPool, available: np.ndarray):
    """``(mu, sigma)`` for the pool rows ``available``.

    Routes through the model's pool-aware cached scorer when it has one
    (:meth:`repro.forest.RandomForestRegressor.predict_with_uncertainty_pool`
    — bit-identical to the plain call, but reuses per-tree pool scores
    across iterations under partial retraining) and falls back to the plain
    ``predict_with_uncertainty`` for models without one (e.g. the GP).
    """
    scorer = getattr(model, "predict_with_uncertainty_pool", None)
    if scorer is not None:
        return scorer(pool, available)
    return model.predict_with_uncertainty(pool.X[available])


def pool_mu(model, pool: DataPool, available: np.ndarray) -> np.ndarray:
    """Predicted means for the pool rows ``available`` (cached when possible)."""
    scorer = getattr(model, "predict_pool", None)
    if scorer is not None:
        return scorer(pool, available)
    return model.predict(pool.X[available])


def consume_selection_stats(strategy, batch_idx: np.ndarray):
    """Pop the ``(mu, sigma)`` a strategy stashed for its selected batch.

    Returns ``None`` when the strategy stashed nothing or the stash does not
    cover exactly ``batch_idx`` (in order) — the caller then re-predicts.
    Single-use by design: the stats describe one specific selection by one
    specific model state.
    """
    stats = getattr(strategy, "_selection_stats", None)
    if stats is None:
        return None
    strategy._selection_stats = None
    chosen, mu, sigma = stats
    if not np.array_equal(chosen, np.asarray(batch_idx)):
        return None
    return mu, sigma


class SamplingStrategy(ABC):
    """Selects which pool configurations to evaluate next (Algorithm 1, line 6)."""

    #: Short identifier used in result tables ("pwu", "pbus", ...).
    name: str = "base"

    #: Whether the strategy consults the surrogate model at all.  Model-free
    #: strategies can run before the cold-start model exists.
    requires_model: bool = True

    @abstractmethod
    def select(
        self,
        model,
        pool: DataPool,
        n_batch: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return ``n_batch`` distinct *global* indices of available pool rows.

        ``model`` is a fitted :class:`~repro.forest.RandomForestRegressor`
        (or anything exposing ``predict_with_uncertainty``); it may be
        ``None`` for strategies with ``requires_model = False``.
        """

    def _stash_selection_stats(
        self,
        available: np.ndarray,
        mu: np.ndarray,
        sigma: np.ndarray,
        chosen: np.ndarray,
    ) -> np.ndarray:
        """Record the selection-time ``(mu, sigma)`` of the chosen rows.

        ``available`` is ascending (see :meth:`DataPool.available_indices`),
        so the chosen rows' positions come from one ``searchsorted``.  The
        active learner pops the stash via
        :func:`consume_selection_stats` instead of re-predicting the batch;
        the values are the very floats the strategy ranked, so reuse is
        bit-identical.  Returns ``chosen`` for call-site convenience.
        """
        pos = np.searchsorted(available, chosen)
        self._selection_stats = (
            np.asarray(chosen).copy(),
            np.asarray(mu, dtype=np.float64)[pos].copy(),
            np.asarray(sigma, dtype=np.float64)[pos].copy(),
        )
        return chosen

    # -- shared validation ------------------------------------------------
    @staticmethod
    def _check_request(pool: DataPool, n_batch: int) -> np.ndarray:
        if n_batch < 1:
            raise ValueError(f"n_batch must be >= 1, got {n_batch}")
        available = pool.available_indices()
        if n_batch > len(available):
            raise ValueError(
                f"requested {n_batch} samples but only {len(available)} remain"
            )
        return available

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ModelFreeStrategy(SamplingStrategy):
    """Base class for strategies that ignore the surrogate."""

    requires_model = False


def top_k_by_score(
    indices: np.ndarray, scores: np.ndarray, k: int
) -> np.ndarray:
    """The ``k`` indices with the highest scores (deterministic tie-break).

    Ties are broken by ascending index so runs are reproducible across
    platforms; scores must be finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != indices.shape:
        raise ValueError("indices and scores must align")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if k > len(indices):
        raise ValueError(f"requested top-{k} of {len(indices)} entries")
    # Stable sort on -score; equal scores keep ascending index order.
    order = np.argsort(-scores, kind="stable")
    return indices[order[:k]]
