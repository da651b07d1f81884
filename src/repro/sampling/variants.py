"""PWU variants used by the ablation benchmarks.

The paper fixes the combination rule ``s = σ / μ^(1-α)`` (Equation 1).  Two
natural alternatives bracket that design choice and are compared in
``benchmarks/bench_ablation_pwu_variants.py``:

* :class:`CoefficientOfVariationSampling` — the α→0 limit, ``s = σ/μ``:
  maximally performance-hungry, no tunable knob.
* :class:`RankWeightedUncertaintySampling` — weights σ by the predicted
  *rank* rather than the predicted *value*: ``s = σ · (1 - r)^γ`` with
  ``r`` the predicted-performance rank fraction.  Rank weighting is
  invariant to monotone transformations of the time axis, which Equation 1
  is not — the ablation quantifies whether that matters.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import SamplingStrategy, pool_mu_sigma, top_k_by_score
from repro.space import DataPool

__all__ = [
    "CoefficientOfVariationSampling",
    "RankWeightedUncertaintySampling",
    "CostAwarePWUSampling",
]


class CoefficientOfVariationSampling(SamplingStrategy):
    """PWU's α→0 limit: score = σ/μ (the coefficient of variation)."""

    name = "cv"

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        mu, sigma = pool_mu_sigma(model, pool, available)
        if np.any(mu <= 0):
            raise ValueError("predicted execution times must be positive")
        chosen = top_k_by_score(available, sigma / mu, n_batch)
        return self._stash_selection_stats(available, mu, sigma, chosen)


class CostAwarePWUSampling(SamplingStrategy):
    """PWU per unit labeling cost: ``s = σ / μ^(2-α)``.

    The paper's CC metric (Equation 3) charges each selection its own
    execution time, so the *cost-optimal* greedy policy divides the PWU
    score by the predicted cost μ.  Algebraically that just deepens the
    performance exponent — a one-line change that noticeably shifts the
    RMSE-per-second trade-off in Fig. 5 terms (ablation target).
    """

    name = "pwu-cost"

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        mu, sigma = pool_mu_sigma(model, pool, available)
        if np.any(mu <= 0):
            raise ValueError("predicted execution times must be positive")
        chosen = top_k_by_score(
            available, sigma / mu ** (2.0 - self.alpha), n_batch
        )
        return self._stash_selection_stats(available, mu, sigma, chosen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostAwarePWUSampling(alpha={self.alpha})"


class RankWeightedUncertaintySampling(SamplingStrategy):
    """Uncertainty weighted by predicted-performance rank: σ·(1-r)^γ.

    ``r = 0`` for the best-predicted configuration, ``r → 1`` for the
    worst; ``gamma`` controls how hard the weighting focuses on the head
    of the ranking.
    """

    name = "pwu-rank"

    def __init__(self, gamma: float = 2.0) -> None:
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        self.gamma = gamma

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        mu, sigma = pool_mu_sigma(model, pool, available)
        n = len(available)
        # rank fraction: 0 = fastest predicted, (n-1)/n = slowest.
        order = np.argsort(np.argsort(mu, kind="stable"), kind="stable")
        r = order.astype(np.float64) / n
        chosen = top_k_by_score(
            available, sigma * (1.0 - r) ** self.gamma, n_batch
        )
        return self._stash_selection_stats(available, mu, sigma, chosen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankWeightedUncertaintySampling(gamma={self.gamma})"
