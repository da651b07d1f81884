"""Expected Improvement — the SMBO acquisition from the paper's related work.

Hutter et al.'s SMAC (cited as [22]) "sequentially built random forest and
calculated the EI to select the most promising parameter configuration".
EI targets *optimisation* (finding the single best configuration), whereas
PWU targets *modeling* (accuracy over the whole high-performance subspace);
including EI lets the ablation benches measure how far apart those goals
really are.

For minimisation of execution time with incumbent :math:`t^* = \\min y`:

.. math:: EI(x) = (t^* - \\mu)\\,\\Phi(z) + \\sigma\\,\\varphi(z),
          \\quad z = (t^* - \\mu) / \\sigma
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.sampling.base import SamplingStrategy, pool_mu_sigma, top_k_by_score
from repro.space import DataPool

__all__ = ["ExpectedImprovementSampling", "expected_improvement"]


def expected_improvement(
    mu: np.ndarray, sigma: np.ndarray, incumbent: float
) -> np.ndarray:
    """Closed-form EI for minimisation; zero where σ = 0 and μ ≥ incumbent."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise ValueError(f"mu and sigma shapes differ: {mu.shape} vs {sigma.shape}")
    if np.any(sigma < 0):
        raise ValueError("uncertainties must be non-negative")
    improvement = incumbent - mu
    ei = np.where(improvement > 0, improvement, 0.0)  # σ = 0 limit
    positive = sigma > 0
    if positive.any():
        z = improvement[positive] / sigma[positive]
        ei_pos = improvement[positive] * stats.norm.cdf(z) + sigma[
            positive
        ] * stats.norm.pdf(z)
        ei = ei.copy()
        ei[positive] = ei_pos
    return np.maximum(ei, 0.0)


class ExpectedImprovementSampling(SamplingStrategy):
    """Select the configurations with the highest Expected Improvement.

    Requires the model to expose ``training_targets`` (both the forest and
    the GP surrogate do) so the incumbent is the best *observed* time, as
    in SMAC.
    """

    name = "ei"

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        mu, sigma = pool_mu_sigma(model, pool, available)
        incumbent = float(np.min(model.training_targets))
        chosen = top_k_by_score(
            available, expected_improvement(mu, sigma, incumbent), n_batch
        )
        return self._stash_selection_stats(available, mu, sigma, chosen)
