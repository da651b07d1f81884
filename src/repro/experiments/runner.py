"""Executing the paper's protocol: data preparation and repeated runs.

:func:`prepare_data` and :func:`run_single` are the process-local
primitives (one split, one Algorithm 1 run); :func:`strategy_trace` and
:func:`comparison_traces` schedule repeated trials through the execution
engine (:mod:`repro.engine`) for parallelism, caching, and resume.

Callers wanting the typed facade use :func:`repro.api.run` /
:func:`repro.api.compare`; the historical ``run_strategy`` /
``run_comparison`` shims have been removed.
"""

from __future__ import annotations

import numpy as np

from repro.active import ActiveLearner, LearnerConfig, LearningHistory
from repro.experiments.aggregate import AveragedTrace, average_histories
from repro.experiments.config import ExperimentScale
from repro.rng import derive
from repro.sampling import get_strategy
from repro.space import DataPool
from repro.surrogate import surrogate_entry
from repro.workloads import Benchmark

__all__ = [
    "prepare_data",
    "run_single",
    "strategy_trace",
    "comparison_traces",
    "surrogate_overrides",
]

#: The α values every run evaluates (Section III-D).
DEFAULT_ALPHAS: tuple[float, ...] = (0.01, 0.05, 0.10)


def _histories(jobs, results) -> "list[LearningHistory]":
    """Unwrap the engine's TrialResults in job order, or fail loudly.

    The paper's protocol averages a *fixed* number of trials; silently
    averaging fewer because some failed would skew every downstream
    figure.  So permanent job failures (retries exhausted) surface here
    as one :class:`~repro.engine.EngineJobError` naming each failed job —
    after the whole batch ran, so completed siblings are already in the
    store and a fixed re-run resumes instead of recomputing.
    """
    from repro.engine import EngineJobError

    failed = [results[j.key()] for j in jobs if not results[j.key()].ok]
    if failed:
        lines = "; ".join(
            f"{r.key[:12]} after {r.attempts} attempt(s): {r.error}"
            for r in failed
        )
        raise EngineJobError(
            f"{len(failed)}/{len(jobs)} trial job(s) failed permanently "
            f"({lines}); completed trials are preserved in the result "
            "store — fix the cause and re-run to resume",
            failures=tuple(failed),
        )
    return [results[j.key()].history for j in jobs]


def _effective_sizes(
    benchmark: Benchmark, pool_size: int, test_size: int
) -> tuple[int, int]:
    """Shrink pool/test proportionally when the space is small (hypre/kripke).

    The paper draws 10,000 unique configurations; kripke's space holds only
    2,304 and hypre's 3,024, so for those the pool/test split covers (most
    of) the whole space at the same 70/30 ratio.
    """
    total = benchmark.space.size()
    want = pool_size + test_size
    if want <= total:
        return pool_size, test_size
    pool = int(total * pool_size / want)
    test = total - pool
    return pool, test


def prepare_data(
    benchmark: Benchmark,
    scale: ExperimentScale,
    seed=None,
) -> tuple[DataPool, np.ndarray, np.ndarray]:
    """Draw the pool and the pre-labeled test set (Section III-C/D).

    Returns ``(pool, X_test, y_test)``; test labels are measured in advance,
    exactly as the paper does, so evaluation adds no labeling cost.
    """
    rng = derive(seed, "prepare", benchmark.name)
    pool_size, test_size = _effective_sizes(
        benchmark, scale.pool_size, scale.test_size
    )
    X = benchmark.space.sample_unique_encoded(rng, pool_size + test_size)
    perm = rng.permutation(len(X))
    X_pool = X[perm[:pool_size]]
    X_test = X[perm[pool_size:]]
    # One fused batch evaluation labels the whole test set (bit-identical
    # to the historical measure_encoded call — same single noise draw).
    y_test = benchmark.evaluate_batch(X_test, rng)
    return DataPool(X_pool), X_test, y_test


def surrogate_overrides(surrogate: "str | None") -> "dict | None":
    """Validate a surrogate name and translate it to config overrides.

    ``None`` and the default "forest" map to *no* overrides, so default
    job keys — and every cached trial and committed trace — stay
    byte-identical.  Unknown names raise ``KeyError`` (did-you-mean).
    """
    if surrogate is not None:
        surrogate_entry(surrogate)
    return None if surrogate in (None, "forest") else {"surrogate": surrogate}


def _learner_config(
    scale: ExperimentScale,
    alphas: tuple[float, ...],
    overrides: "dict | None" = None,
) -> LearnerConfig:
    kwargs = dict(
        n_init=scale.n_init,
        n_batch=scale.n_batch,
        n_max=scale.n_max,
        alphas=alphas,
        eval_every=scale.eval_every,
        n_estimators=scale.n_estimators,
    )
    if overrides:
        kwargs.update(overrides)
    return LearnerConfig(**kwargs)


def run_single(
    benchmark: Benchmark,
    strategy_name: "str | object",
    scale: ExperimentScale,
    pool: DataPool,
    X_test: np.ndarray,
    y_test: np.ndarray,
    seed,
    alpha: float = 0.05,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    config_overrides: "dict | None" = None,
) -> LearningHistory:
    """One Algorithm 1 run of one strategy on a prepared pool.

    ``strategy_name`` may also be a pre-built strategy instance (used by
    the ablation benchmarks to sweep strategy hyper-parameters);
    ``config_overrides`` patches individual :class:`LearnerConfig` fields
    (e.g. ``{"retrain": "partial"}``).
    """
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    if isinstance(strategy_name, str):
        strategy = get_strategy(strategy_name, alpha=alpha)
    else:
        strategy = strategy_name
    pool.reset()
    learner = ActiveLearner(
        pool=pool,
        evaluate=lambda X: benchmark.evaluate_batch(X, rng),
        X_test=X_test,
        y_test=y_test,
        strategy=strategy,
        config=_learner_config(scale, alphas, config_overrides),
        seed=rng,
    )
    return learner.run()


def _averaged_traces(
    benchmark_name: str,
    strategies: "dict[str, str | object]",
    scale: ExperimentScale,
    seed: int,
    alpha: float,
    alphas: tuple[float, ...],
    config_overrides: "dict | None",
    engine: "object | None",
) -> dict[str, AveragedTrace]:
    """Run every label's trials in one engine batch; average per label.

    The learner configuration is built here first, so a setting no trial
    could build (``n_max`` below ``n_init``, an unknown override field,
    an empty α grid) raises before any job runs instead of failing every
    trial through the engine's retries.
    """
    from repro.engine import run_jobs, trial_jobs

    _learner_config(scale, alphas, config_overrides)
    per_label = {
        label: trial_jobs(
            benchmark_name,
            strategy,
            scale,
            seed=seed,
            alpha=alpha,
            alphas=alphas,
            config_overrides=config_overrides,
        )
        for label, strategy in strategies.items()
    }
    results, _ = run_jobs(
        [job for jobs in per_label.values() for job in jobs], config=engine
    )
    return {
        label: average_histories(label, _histories(jobs, results))
        for label, jobs in per_label.items()
    }


def strategy_trace(
    benchmark_name: str,
    strategy_name: "str | object",
    scale: ExperimentScale,
    seed: int = 0,
    alpha: float = 0.05,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    config_overrides: "dict | None" = None,
    label: "str | None" = None,
    engine: "object | None" = None,
) -> AveragedTrace:
    """Repeat one strategy ``scale.n_trials`` times and average (Section IV).

    Trials are scheduled through :mod:`repro.engine`: each becomes a
    content-addressed :class:`~repro.engine.jobs.TrialJob` whose RNG derives
    from the job key, so the averaged trace is bit-identical whether the
    trials run serially, across a process pool, or partially from the
    result store.  ``engine`` overrides the ambient
    :func:`~repro.engine.context.current_engine` configuration.
    """
    if label is None:
        label = strategy_name if isinstance(strategy_name, str) else strategy_name.name
    return _averaged_traces(
        benchmark_name, {label: strategy_name}, scale, seed, alpha, alphas,
        config_overrides, engine,
    )[label]


def comparison_traces(
    benchmark_name: str,
    strategy_names: "tuple[str, ...]",
    scale: ExperimentScale,
    seed: int = 0,
    alpha: float = 0.05,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    config_overrides: "dict | None" = None,
    engine: "object | None" = None,
) -> dict[str, AveragedTrace]:
    """All strategies on one benchmark with a shared pool/test split.

    Every (strategy, trial) job is submitted in a single engine batch, so
    parallelism spans strategies — not just trials within one strategy —
    and the pool/test split (including the up-front ``y_test`` measurement)
    is prepared once per process per benchmark rather than once per
    strategy, via the executor's prepared-data cache.
    ``config_overrides`` patches :class:`LearnerConfig` fields for every
    strategy (e.g. ``{"surrogate": "gp"}`` to compare strategies under a
    different surrogate family).
    """
    return _averaged_traces(
        benchmark_name, {s: s for s in strategy_names}, scale, seed, alpha,
        alphas, config_overrides, engine,
    )
