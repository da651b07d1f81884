"""BestPerf — greedy exploitation of predicted performance only."""

from __future__ import annotations

import numpy as np

from repro.sampling.base import SamplingStrategy, pool_mu, top_k_by_score
from repro.space import DataPool

__all__ = ["BestPerfSampling"]


class BestPerfSampling(SamplingStrategy):
    """Select the configurations with the best (smallest) predicted time.

    Pure exploitation: ignores uncertainty entirely, so it keeps
    re-sampling the neighbourhood the model already believes is fast —
    cheap to label (Fig. 3) but redundant (Fig. 2).
    """

    name = "bestperf"

    def select(
        self, model, pool: DataPool, n_batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        available = self._check_request(pool, n_batch)
        return top_k_by_score(
            available, -pool_mu(model, pool, available), n_batch
        )
