"""The named-surrogate registry (mirrors :mod:`repro.sampling.registry`).

Every component that resolves a surrogate *name* — the learner config,
:mod:`repro.api`, the CLI's ``--surrogate``, the service's
``SessionSpec`` — goes through :func:`make_surrogate`; there is
deliberately no other name→model mapping in the tree.  A surrogate is
built from its name alone: factories are called as
``factory(config=config, rng=rng)``:

``config``
    The :class:`~repro.active.learner.LearnerConfig` (duck-typed — only
    ``n_estimators`` and ``uncertainty`` are read, with the learner's
    defaults when absent), so registered surrogates see the same knobs
    the forest always has.
``rng``
    The learner's shared generator: candidate fits draw from the same
    stream as the strategy, keeping runs bit-identical at any ``--jobs``.

Capability flags are registered alongside the factory so callers can
validate cheaply (``supports_partial_update``) without building a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.registry import NameRegistry
from repro.surrogate.base import Surrogate

__all__ = [
    "SURROGATE_NAMES",
    "register_surrogate",
    "make_surrogate",
    "available_surrogates",
    "surrogate_entry",
    "supports_partial_update",
]

#: The built-in families, in documentation order.
SURROGATE_NAMES: tuple[str, ...] = ("forest", "gp", "select", "stack")


@dataclass(frozen=True)
class SurrogateEntry:
    """A registered factory plus its capability flags."""

    factory: Callable[..., Surrogate]
    supports_partial_update: bool = False
    description: str = ""


_REGISTRY = NameRegistry("surrogate")


def register_surrogate(
    name: str,
    factory: Callable[..., Surrogate],
    supports_partial_update: bool = False,
    description: str = "",
    overwrite: bool = False,
) -> None:
    """Register ``factory(config, rng) -> Surrogate`` under ``name``.

    Registering an existing name raises unless ``overwrite=True`` — a
    silently shadowed surrogate would corrupt comparisons.
    """
    _REGISTRY.register(
        name,
        SurrogateEntry(
            factory=factory,
            supports_partial_update=supports_partial_update,
            description=description,
        ),
        overwrite=overwrite,
    )


def surrogate_entry(name: str) -> SurrogateEntry:
    """The registered entry for ``name`` (factory + capability flags).

    Unknown names raise :class:`KeyError` with a closest-match
    suggestion — the fail-fast check the api/CLI/service layers use.
    """
    return _REGISTRY.get(name)


def supports_partial_update(name: str) -> bool:
    """Whether ``name``'s models implement incremental :meth:`update`."""
    return surrogate_entry(name).supports_partial_update


def available_surrogates() -> tuple[str, ...]:
    """Every registered surrogate name, sorted."""
    return _REGISTRY.available()


def make_surrogate(name: str, config: Any = None, rng=None) -> Surrogate:
    """Instantiate a registered surrogate by name (see module docstring)."""
    return surrogate_entry(name).factory(config=config, rng=rng)


# -- built-in factories ------------------------------------------------------


def _forest_factory(config, rng) -> Surrogate:
    from repro.forest import RandomForestRegressor

    return RandomForestRegressor(
        n_estimators=getattr(config, "n_estimators", 30),
        uncertainty=getattr(config, "uncertainty", "across_trees"),
        seed=rng,
    )


def _gp_factory(config, rng) -> Surrogate:
    from repro.gp import GaussianProcessRegressor

    # One optimisation restart; log_targets keeps predicted times
    # positive (execution times are) — see repro.gp.
    return GaussianProcessRegressor(n_restarts=1, log_targets=True, seed=rng)


def _candidate_builder(config, rng):
    def build(name: str) -> Surrogate:
        return make_surrogate(name, config=config, rng=rng)

    return build


def _select_factory(config, rng) -> Surrogate:
    from repro.surrogate.select import SelectSurrogate

    return SelectSurrogate(builder=_candidate_builder(config, rng), seed=rng)


def _stack_factory(config, rng) -> Surrogate:
    from repro.surrogate.stack import StackSurrogate

    return StackSurrogate(builder=_candidate_builder(config, rng), seed=rng)


register_surrogate(
    "forest",
    _forest_factory,
    supports_partial_update=True,
    description="CART forest with across-tree uncertainty (the paper's model)",
)
register_surrogate(
    "gp",
    _gp_factory,
    description="exact GP (RBF + noise) on log targets, Section II-B baseline",
)
register_surrogate(
    "select",
    _select_factory,
    description="per-refit k-fold CV selection among candidate families",
)
register_surrogate(
    "stack",
    _stack_factory,
    description="inverse-CV-error weighted blend; disagreement feeds sigma",
)
