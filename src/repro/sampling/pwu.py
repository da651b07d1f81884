"""PWU — Performance Weighted Uncertainty sampling (the paper's contribution).

Section II-C, Equation 1.  Instead of considering performance *before*
uncertainty (PBUS) or either factor alone (BestPerf/MaxU), PWU scores every
pool configuration with both factors combined entry-wise:

.. math:: s = \\frac{\\sigma}{\\mu^{(1-\\alpha)}}

where μ is the predicted execution time (smaller = higher performance),
σ its uncertainty, and α the fraction of the performance ranking the
modeller cares about:

* α → 1: every configuration counts as high-performance, ``s → σ`` and PWU
  degenerates to classic uncertainty sampling (MaxU);
* α → 0: ``s → σ/μ``, the coefficient of variation — the risk/return
  statistic, maximally performance-hungry.

Configurations with high predicted performance *or* high uncertainty score
high; between two equally uncertain points the faster one wins.  This is the
exploration/exploitation balance Fig. 9 visualises.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import SamplingStrategy, pool_mu_sigma, top_k_by_score
from repro.space import DataPool

__all__ = ["PWUSampling", "pwu_scores"]


def pwu_scores(mu: np.ndarray, sigma: np.ndarray, alpha: float) -> np.ndarray:
    """Equation 1: ``s = σ / μ^(1-α)``, entry-wise.

    ``mu`` must be positive — it is a predicted execution time.  A forest
    trained on positive times always predicts positive means (tree leaves
    average training targets), so a non-positive μ indicates a modelling
    bug and raises.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise ValueError(f"mu and sigma shapes differ: {mu.shape} vs {sigma.shape}")
    if np.any(mu <= 0):
        raise ValueError("predicted execution times must be positive")
    if np.any(sigma < 0):
        raise ValueError("uncertainties must be non-negative")
    return sigma / mu ** (1.0 - alpha)


class PWUSampling(SamplingStrategy):
    """Select the batch with the highest PWU scores.

    Parameters
    ----------
    alpha:
        Proportion of the performance ranking treated as high-performance
        (0.01 / 0.05 / 0.10 in the paper's experiments).
    """

    name = "pwu"

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        mu, sigma = pool_mu_sigma(model, pool, available)
        chosen = top_k_by_score(
            available, pwu_scores(mu, sigma, self.alpha), n_batch
        )
        return self._stash_selection_stats(available, mu, sigma, chosen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PWUSampling(alpha={self.alpha})"
