"""The single named-strategy registry.

Every component that resolves a strategy *name* — the CLI, the engine's
:class:`~repro.engine.jobs.TrialJob`, :mod:`repro.api`, the benchmark
suite — goes through :func:`get_strategy`; there is deliberately no other
name→class mapping in the tree.  Factories are registered with
:func:`register_strategy` (downstream experiments can add their own), and
unknown names raise :class:`KeyError` with a did-you-mean suggestion.

:data:`STRATEGY_NAMES` stays the paper's six strategies in plotting
order; the registry additionally carries the ablation variants (``cv``,
``pwu-rank``, ``ei``, ``pwu-cost``), which :func:`available_strategies`
lists but the figure drivers do not plot.
"""

from __future__ import annotations

from repro.registry import NameRegistry
from repro.sampling.base import SamplingStrategy
from repro.sampling.bestperf import BestPerfSampling
from repro.sampling.brs import BiasedRandomSampling
from repro.sampling.maxu import MaxUncertaintySampling
from repro.sampling.pbus import PBUSampling
from repro.sampling.pwu import PWUSampling
from repro.sampling.random_ import UniformRandomSampling

__all__ = [
    "STRATEGY_NAMES",
    "register_strategy",
    "get_strategy",
    "available_strategies",
]

#: All strategies compared in the paper's figures, in plotting order.
STRATEGY_NAMES: tuple[str, ...] = (
    "random",
    "brs",
    "bestperf",
    "maxu",
    "pbus",
    "pwu",
)

#: name → factory taking the PWU ``alpha`` (ignored by most strategies).
_REGISTRY = NameRegistry("strategy")


def register_strategy(name: str, factory, overwrite: bool = False) -> None:
    """Register ``factory(alpha) -> SamplingStrategy`` under ``name``.

    Registering an existing name raises unless ``overwrite=True`` — a
    silently shadowed strategy would corrupt comparisons.
    """
    _REGISTRY.register(name, factory, overwrite=overwrite)


def available_strategies() -> tuple[str, ...]:
    """Every registered strategy name, sorted."""
    return _REGISTRY.available()


def get_strategy(name: str, alpha: float = 0.05) -> SamplingStrategy:
    """Instantiate a registered strategy by name.

    ``alpha`` parameterises PWU and its cost-aware variant (Equation 1);
    the biased baselines keep the paper's top-10% setting.  Unknown names
    raise :class:`KeyError` with a closest-match suggestion.
    """
    return _REGISTRY.get(name)(alpha)


def _cv(alpha: float) -> SamplingStrategy:
    from repro.sampling.variants import CoefficientOfVariationSampling

    return CoefficientOfVariationSampling()


def _pwu_rank(alpha: float) -> SamplingStrategy:
    from repro.sampling.variants import RankWeightedUncertaintySampling

    return RankWeightedUncertaintySampling()


def _ei(alpha: float) -> SamplingStrategy:
    from repro.sampling.ei import ExpectedImprovementSampling

    return ExpectedImprovementSampling()


def _pwu_cost(alpha: float) -> SamplingStrategy:
    from repro.sampling.variants import CostAwarePWUSampling

    return CostAwarePWUSampling(alpha=alpha)


register_strategy("random", lambda alpha: UniformRandomSampling())
register_strategy("brs", lambda alpha: BiasedRandomSampling(top_fraction=0.10))
register_strategy("bestperf", lambda alpha: BestPerfSampling())
register_strategy("maxu", lambda alpha: MaxUncertaintySampling())
register_strategy("pbus", lambda alpha: PBUSampling(candidate_fraction=0.10))
register_strategy("pwu", lambda alpha: PWUSampling(alpha=alpha))
register_strategy("cv", _cv)
register_strategy("pwu-rank", _pwu_rank)
register_strategy("ei", _ei)
register_strategy("pwu-cost", _pwu_cost)
