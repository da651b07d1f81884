#!/usr/bin/env python
"""Bring your own tuning problem: define a custom benchmark.

The paper's method is benchmark-agnostic — anything exposing a parameter
space and a timing oracle can be modeled.  This example wires up a custom
"GPU kernel launch" style search problem from scratch (block sizes, a
work-per-thread factor, an algorithm switch), runs PWU against uniform
random sampling on it, and shows the accuracy gap on the fast subspace.

Run:  python examples/custom_benchmark.py
"""

import numpy as np

from repro import (
    ActiveLearner,
    Benchmark,
    BooleanParameter,
    CategoricalParameter,
    LearnerConfig,
    OrdinalParameter,
    ParameterSpace,
    get_strategy,
)
from repro.noise import MeasurementProtocol
from repro.space import DataPool

SEED = 5


class LaunchConfigBenchmark(Benchmark):
    """A synthetic 'kernel launch tuning' problem.

    The response surface has the usual features of launch-config tuning:
    a sweet spot in the block geometry (occupancy vs per-thread resources),
    an algorithm switch whose winner depends on block size, and a
    vectorized-loads flag that only pays off for wide blocks.
    """

    name = "launchcfg"

    def __init__(self) -> None:
        space = ParameterSpace(
            [
                OrdinalParameter("block_x", [8, 16, 32, 64, 128, 256]),
                OrdinalParameter("block_y", [1, 2, 4, 8, 16]),
                OrdinalParameter("work_per_thread", [1, 2, 4, 8]),
                CategoricalParameter("algorithm", ["tiled", "strided", "warp"]),
                BooleanParameter("vector_loads"),
            ]
        )
        super().__init__(space, MeasurementProtocol(n_repeats=5, noise_sigma=0.05))

    def true_times_encoded(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        bx, by, wpt, algo, vec = (X[:, i] for i in range(5))
        threads = bx * by
        # Occupancy: too few threads starves the SM, too many thrashes it.
        occupancy = np.minimum(threads / 256.0, 1.0) / (1.0 + (threads / 1024.0) ** 2)
        work = 1.0 / (occupancy + 0.05)
        # Work per thread amortises launch overhead up to a point.
        work = work * (1.0 + 0.5 / wpt + 0.02 * wpt)
        # Algorithm interacts with the block shape.
        work = work * np.where(
            algo == 0, 1.0 + 0.3 * (by < 4),          # tiled wants square-ish
            np.where(algo == 1, 1.15, 1.0 + 0.4 * (bx < 32)),  # warp wants wide
        )
        # Vector loads pay only for contiguous, wide rows.
        work = work * np.where(vec == 1, np.where(bx >= 64, 0.8, 1.1), 1.0)
        return 0.01 * work  # seconds


def run(strategy_name: str, bench: Benchmark, seed: int) -> float:
    rng = np.random.default_rng(seed)
    X_all = bench.space.sample_unique_encoded(rng, 700)
    pool, X_test = DataPool(X_all[:500]), X_all[500:]
    y_test = bench.measure_encoded(X_test, rng)
    learner = ActiveLearner(
        pool=pool,
        evaluate=lambda X: bench.measure_encoded(X, rng),
        X_test=X_test,
        y_test=y_test,
        strategy=get_strategy(strategy_name, alpha=0.05),
        config=LearnerConfig(n_init=10, n_max=80, eval_every=10, n_estimators=20),
        seed=rng,
    )
    history = learner.run()
    return float(history.rmse_series("0.05")[-1])


def main() -> None:
    bench = LaunchConfigBenchmark()
    print(f"custom benchmark {bench.name!r}: |space| = {bench.space.size()}")
    print(bench.space.describe())
    print()

    trials = 3
    for strategy in ("random", "pwu"):
        errs = [run(strategy, bench, SEED + t) for t in range(trials)]
        print(
            f"{strategy:7s} RMSE@5% after 80 samples: "
            f"{np.mean(errs):.5f} ± {np.std(errs):.5f}  (over {trials} trials)"
        )
    print("\nPWU concentrates its budget on the fast subspace, so its")
    print("error on the configurations a tuner cares about is lower.")


if __name__ == "__main__":
    main()
