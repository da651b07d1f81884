"""Cross-kernel / cross-platform model portability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.active import ActiveLearner, LearnerConfig, LearningHistory
from repro.forest import RandomForestRegressor
from repro.rng import as_generator, derive
from repro.sampling import get_strategy
from repro.space import DataPool
from repro.workloads import Benchmark

__all__ = [
    "surface_correlation",
    "transfer_cold_start",
    "run_transfer_experiment",
    "TransferResult",
]


def surface_correlation(
    source: Benchmark,
    target: Benchmark,
    n_probe: int = 500,
    seed=None,
) -> float:
    """Spearman rank correlation of two response surfaces.

    Both benchmarks must share a parameter space layout (same encoded
    columns) — e.g. the same SPAPT kernel instantiated on two platforms.
    Rank correlation is the right notion for transfer: a monotone
    relationship is enough for the source's *ordering* of configurations
    to be useful on the target.
    """
    if source.space.names != target.space.names:
        raise ValueError(
            "surface correlation needs identically structured spaces; "
            f"got {source.space.names} vs {target.space.names}"
        )
    rng = as_generator(seed)
    X = source.space.sample_encoded(rng, n_probe)
    t_src = source.true_times_encoded(X)
    t_tgt = target.true_times_encoded(X)
    rho, _ = stats.spearmanr(t_src, t_tgt)
    return float(rho)


def transfer_cold_start(
    source_model: RandomForestRegressor,
    pool: DataPool,
    n_init: int,
    rng,
    exploit_fraction: float = 0.5,
) -> np.ndarray:
    """Pick cold-start pool indices using a source model's beliefs.

    ``exploit_fraction`` of the initial budget goes to the source model's
    best-predicted configurations in the target pool; the remainder is
    drawn uniformly for coverage (a wrong source model must not be able
    to blind the run completely).
    """
    if not 0.0 <= exploit_fraction <= 1.0:
        raise ValueError(f"exploit_fraction must be in [0, 1], got {exploit_fraction}")
    rng = as_generator(rng)
    available = pool.available_indices()
    if n_init > len(available):
        raise ValueError(f"n_init={n_init} exceeds available pool {len(available)}")
    n_exploit = int(round(exploit_fraction * n_init))
    mu = source_model.predict(pool.X[available])
    order = np.argsort(mu, kind="stable")
    exploit = available[order[:n_exploit]]
    rest = np.setdiff1d(available, exploit)
    explore = rng.choice(rest, size=n_init - n_exploit, replace=False)
    return np.concatenate([exploit, explore])


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a transfer-vs-scratch comparison."""

    surface_rho: float
    scratch: LearningHistory
    transferred: LearningHistory

    def improvement(self, alpha_key: str = "0.05") -> np.ndarray:
        """Per-evaluation-point RMSE ratio scratch/transfer (>1 = transfer wins)."""
        s = self.scratch.rmse_series(alpha_key)
        t = self.transferred.rmse_series(alpha_key)
        return s / np.maximum(t, 1e-12)


def run_transfer_experiment(
    source: Benchmark,
    target: Benchmark,
    pool: DataPool,
    X_test: np.ndarray,
    y_test: np.ndarray,
    config: LearnerConfig,
    n_source_samples: int = 200,
    seed=None,
) -> TransferResult:
    """Compare from-scratch vs transfer-seeded active learning on ``target``.

    A source model is fit on ``n_source_samples`` random measurements of
    ``source`` (sunk cost — e.g. an already-tuned platform), then used to
    seed the target run's cold start.  Both runs use PWU and identical
    budgets on the *same* pool.
    """
    rho = surface_correlation(source, target, seed=derive(seed, "probe"))

    # Source model from its own (cheap, already-available) measurements.
    src_rng = derive(seed, "source")
    X_src = source.space.sample_encoded(src_rng, n_source_samples)
    y_src = source.measure_encoded(X_src, src_rng)
    source_model = RandomForestRegressor(n_estimators=30, seed=src_rng).fit(
        X_src, y_src
    )

    def _run(cold_start: "np.ndarray | None", key: str) -> LearningHistory:
        rng = derive(seed, "run", key)
        pool.reset()
        learner = ActiveLearner(
            pool=pool,
            evaluate=lambda X: target.measure_encoded(X, rng),
            X_test=X_test,
            y_test=y_test,
            strategy=get_strategy("pwu", alpha=0.05),
            config=config,
            seed=rng,
            cold_start_indices=cold_start,
        )
        return learner.run()

    scratch = _run(None, "scratch")
    pool.reset()
    seeds_idx = transfer_cold_start(
        source_model, pool, config.n_init, derive(seed, "coldstart")
    )
    transferred = _run(seeds_idx, "transfer")
    return TransferResult(surface_rho=rho, scratch=scratch, transferred=transferred)
