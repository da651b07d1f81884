"""MaxU — classic uncertainty sampling (pure exploration)."""

from __future__ import annotations

import numpy as np

from repro.sampling.base import SamplingStrategy, pool_mu_sigma, top_k_by_score
from repro.space import DataPool

__all__ = ["MaxUncertaintySampling"]


class MaxUncertaintySampling(SamplingStrategy):
    """Select the configurations the forest is least sure about.

    The textbook active-learning strategy; it models the *whole* space
    equally well, spending most of its (expensive!) labels on the slow
    regions the tuner will never visit.
    """

    name = "maxu"

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        mu, sigma = pool_mu_sigma(model, pool, available)
        chosen = top_k_by_score(available, sigma, n_batch)
        return self._stash_selection_stats(available, mu, sigma, chosen)
