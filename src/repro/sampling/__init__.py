"""Sampling strategies for the active-learning loop (Sections II-C, III-C).

Six strategies are compared in the paper:

=============  ===========================================================
``random``     classic EPM baseline: uniform over the pool
``brs``        Biased Random Sampling: uniform over the predicted top-p%
``bestperf``   greedy on predicted performance only
``maxu``       greedy on prediction uncertainty only (classic AL)
``pbus``       Performance Biased Uncertainty Sampling (Balaprakash 2013):
               performance *before* uncertainty — filter to the predicted
               high-performance candidates, then take the most uncertain
``pwu``        the paper's contribution: Performance Weighted Uncertainty,
               score = σ / μ^(1-α), combining both factors at once
=============  ===========================================================

Every strategy receives the fitted forest, the :class:`~repro.space.DataPool`
and a batch size, and returns *global pool indices*.
"""

from repro.sampling.base import ModelFreeStrategy, SamplingStrategy
from repro.sampling.random_ import UniformRandomSampling
from repro.sampling.brs import BiasedRandomSampling
from repro.sampling.bestperf import BestPerfSampling
from repro.sampling.maxu import MaxUncertaintySampling
from repro.sampling.pbus import PBUSampling
from repro.sampling.pwu import PWUSampling, pwu_scores
from repro.sampling.registry import (
    STRATEGY_NAMES,
    available_strategies,
    get_strategy,
    register_strategy,
)

__all__ = [
    "SamplingStrategy",
    "ModelFreeStrategy",
    "UniformRandomSampling",
    "BiasedRandomSampling",
    "BestPerfSampling",
    "MaxUncertaintySampling",
    "PBUSampling",
    "PWUSampling",
    "pwu_scores",
    "STRATEGY_NAMES",
    "register_strategy",
    "get_strategy",
    "available_strategies",
]
