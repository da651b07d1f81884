"""repro — reproduction of *An Active Learning Method for Empirical
Modeling in Performance Tuning* (PWU sampling, IPPS 2020).

Public API quick tour
---------------------

The typed facade in :mod:`repro.api` is the documented way to run
experiments:

>>> import repro.api
>>> result = repro.api.run("atax", "pwu", seed=0, budget=60, scale="smoke")
>>> result.metrics["final_rmse"]["0.05"]  # doctest: +SKIP
0.0123

The layers underneath remain importable for custom studies:

>>> from repro import get_benchmark, get_strategy, ActiveLearner, LearnerConfig
>>> from repro.experiments import SCALES, prepare_data
>>> bench = get_benchmark("atax")
>>> pool, X_test, y_test = prepare_data(bench, SCALES["smoke"], seed=0)
>>> learner = ActiveLearner(
...     pool=pool,
...     evaluate=lambda X: bench.measure_encoded(X, 0),
...     X_test=X_test, y_test=y_test,
...     strategy=get_strategy("pwu", alpha=0.05),
...     config=LearnerConfig(n_max=60, eval_every=10),
...     seed=0,
... )
>>> history = learner.run()

Layers (bottom-up):

* :mod:`repro.space` — parameter spaces, encoding, the data pool
* :mod:`repro.forest` — random-forest regression with uncertainty
* :mod:`repro.machine` / :mod:`repro.costmodel` / :mod:`repro.noise` —
  the simulated measurement substrate
* :mod:`repro.kernels` / :mod:`repro.apps` — the 12 SPAPT kernels,
  kripke and hypre
* :mod:`repro.sampling` — the six strategies incl. PWU (the contribution)
* :mod:`repro.active` — Algorithm 1
* :mod:`repro.metrics` — RMSE@α (Eq. 2), cumulative cost (Eq. 3)
* :mod:`repro.tuning` — model-based tuning (Fig. 8)
* :mod:`repro.experiments` — figure/table drivers and the CLI
* :mod:`repro.engine` — parallel trial scheduler with a persistent,
  content-addressed result store (``--jobs`` / ``--cache-dir``)
* :mod:`repro.telemetry` — structured spans/counters with JSONL export
  (``--trace`` / ``REPRO_TRACE``)
* :mod:`repro.api` — the typed facade over all of the above
"""

from repro._version import __version__
from repro.active import ActiveLearner, LearnerConfig, LearningHistory
from repro.forest import RandomForestRegressor
from repro.gp import GaussianProcessRegressor
from repro.metrics import cumulative_cost, top_alpha_rmse
from repro.sampling import (
    STRATEGY_NAMES,
    PWUSampling,
    available_strategies,
    get_strategy,
    pwu_scores,
    register_strategy,
)
from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    DataPool,
    IntegerParameter,
    OrdinalParameter,
    ParameterSpace,
)
from repro.surrogate import load_surrogate, save_surrogate
from repro.workloads import Benchmark, all_benchmarks, get_benchmark

__all__ = [
    "__version__",
    # spaces
    "ParameterSpace",
    "IntegerParameter",
    "OrdinalParameter",
    "CategoricalParameter",
    "BooleanParameter",
    "DataPool",
    # models
    "RandomForestRegressor",
    "GaussianProcessRegressor",
    "save_surrogate",
    "load_surrogate",
    # strategies
    "STRATEGY_NAMES",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "PWUSampling",
    "pwu_scores",
    # loop
    "ActiveLearner",
    "LearnerConfig",
    "LearningHistory",
    # metrics
    "top_alpha_rmse",
    "cumulative_cost",
    # workloads
    "Benchmark",
    "get_benchmark",
    "all_benchmarks",
]
