#!/usr/bin/env python
"""End-to-end application tuning with a PWU-built surrogate.

The paper's motivating workflow (Fig. 1 + Fig. 8) on the *kripke*
transport proxy:

1. build an empirical performance model with PWU active learning —
   spending real (simulated) measurement time;
2. hand the model to a tuner as a *surrogate annotator* — thousands of
   what-if queries at zero measurement cost;
3. report the configuration the tuner found and compare its true time
   against the pool's actual optimum.

Run:  python examples/tune_application.py
"""

import numpy as np

from repro import get_benchmark
from repro.experiments import SCALES, prepare_data
from repro.experiments.runner import run_single
from repro.forest import RandomForestRegressor
from repro.tuning import model_based_tuning, surrogate_annotator

SEED = 11


def main() -> None:
    bench = get_benchmark("kripke")
    scale = SCALES["smoke"]
    print(f"tuning {bench.name}: |space| = {bench.space.size()} configurations")

    # --- phase 1: active-learning model construction -------------------
    rng = np.random.default_rng(SEED)
    pool, X_test, y_test = prepare_data(bench, scale, seed=SEED)
    history = run_single(
        bench, "pwu", scale, pool, X_test, y_test, rng, alpha=0.05
    )
    print(
        f"model built from {history.n_train[-1]} measurements "
        f"({history.cumulative_cost[-1]:.0f}s simulated wall time); "
        f"RMSE@5% = {history.rmse_series('0.05')[-1]:.3f}"
    )

    # Refit the surrogate on everything the run labeled.
    idx = np.asarray(sorted(set(history.all_selected(include_cold_start=True))))
    X_train = pool.X[idx]
    y_train = bench.measure_encoded(X_train, rng)
    surrogate = RandomForestRegressor(n_estimators=30, seed=rng).fit(X_train, y_train)

    # --- phase 2: surrogate-annotated tuning ----------------------------
    result = model_based_tuning(
        bench,
        X_test,
        annotate=surrogate_annotator(surrogate),
        annotator_name="surrogate",
        n_iterations=30,
        seed=rng,
    )
    best_cfg = bench.space.decode_one(result.best_config)
    best_time = bench.true_time(best_cfg)
    optimum = float(bench.true_times_encoded(X_test).min())
    median = float(np.median(bench.true_times_encoded(X_test)))

    print("\nbest configuration found (0 extra measurements during search):")
    for k, v in best_cfg.items():
        print(f"  {k:10s} = {v}")
    print(
        f"\ntrue time of tuned config: {best_time:.2f}s"
        f"\ncandidate-set optimum:     {optimum:.2f}s"
        f"\ncandidate-set median:      {median:.2f}s"
        f"\n-> within {best_time / optimum:.2f}x of optimal, "
        f"{median / best_time:.1f}x faster than the median configuration"
    )

    # Which parameters mattered?  (model introspection)
    names = bench.space.names
    importances = surrogate.feature_importances()
    order = np.argsort(-importances)
    print("\nparameter importance (impurity):")
    for j in order:
        print(f"  {names[j]:10s} {importances[j]:.2f} {'#' * int(40 * importances[j])}")


if __name__ == "__main__":
    main()
