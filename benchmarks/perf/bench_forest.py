#!/usr/bin/env python
"""Surrogate microbenchmarks: kernel growth, packed inference, pool cache.

Times the three layers of the packed-forest optimisation against the
pre-optimisation reference at paper scale (500 training rows, a 7000-row
pool, 30 trees — Section III-D) and writes the results to
``BENCH_forest.json``:

* ``fit`` — growing the full forest: with the C kernel, one call grows
  every tree, bootstrap draws included, presorting each sample by a
  counting sort over dense ranks computed once per fit (timed as
  ``fit_presorted``), vs the same forest with the kernel switched off,
  which fits one reference tree per bootstrap sample with a fresh
  argsort per node (``fit_reference``).  Without the kernel both sides
  run the reference.
* ``pool_scoring`` — scoring the whole pool with uncertainty: packed
  all-tree traversal vs the per-tree Python prediction loop.
* ``cached_partial_rescore`` — re-scoring the pool after a partial
  ``update()``: the generation-stamped cache re-traverses only the
  refreshed trees.
* ``combined_fit_plus_pool`` — one fit plus one cold pool scoring, the
  per-iteration cycle of Algorithm 1.
* ``level_pool_scoring_n60`` / ``_n500`` — a level-coded pool like a
  tuning pool (every feature takes 31 values), scored cold through the
  pool scorer, which routes it through the pool's bitmap index with the C
  kernel, against the same rows as a plain ``predict_with_uncertainty``
  query (the per-row walk), at the campaign's and the paper's training
  sizes.

A paper-scale run fails (exit 1) when the combined cycle, the fit or the
pool scoring is less than 3x faster than its reference, or the level-coded
pool scoring less than 1.3x faster than the walk.

Every optimised path is bit-identical to its reference (enforced by
``tests/test_trace_equivalence.py``), so these numbers are pure speed.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_forest.py [--quick] \
        [--output BENCH_forest.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from unittest import mock

import numpy as np

from repro.forest import RandomForestRegressor, _cgrower
from repro.forest.uncertainty import across_tree_std
from repro.space import DataPool

PAPER_SCALE = dict(n_train=500, n_pool=7000, n_features=7, n_trees=30, repeats=5)
QUICK_SCALE = dict(n_train=150, n_pool=1200, n_features=7, n_trees=10, repeats=2)

#: Values each feature of the level-coded pool takes (SPAPT's largest).
LEVELS = 31
#: Training sizes the level-coded pool is scored at: the campaign's, the paper's.
LEVEL_POOL_N_TRAIN = (60, 500)

#: Speedup floors a paper-scale run asserts for the layers.
LAYER_FLOORS = {
    "fit": 3.0,
    "pool_scoring": 3.0,
    "level_pool_scoring_n60": 1.3,
    "level_pool_scoring_n500": 1.3,
}


def best_of(fn, repeats: int, warmup: int = 1) -> float:
    """Best-of-N wall time — robust to the run-to-run jitter that a mean
    would fold in (observed spread on the reference fit is ~40%)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def best_of_pair(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Best-of-N for two functions, *interleaved* so drifting background
    load hits both sides of a speedup ratio equally."""
    fn_a(), fn_b()  # warmup
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def _problem(scale):
    r = np.random.default_rng(7)
    X = r.random((scale["n_train"], scale["n_features"]))
    y = np.abs(r.normal(size=scale["n_train"])) + 0.1
    pool_X = r.random((scale["n_pool"], scale["n_features"]))
    rows = np.arange(scale["n_pool"], dtype=np.intp)
    return X, y, pool_X, rows


def _forest(scale) -> RandomForestRegressor:
    return RandomForestRegressor(n_estimators=scale["n_trees"], seed=11)


def _fit_reference(scale, X, y) -> RandomForestRegressor:
    """Fit as the forest does when the C kernel is unavailable."""
    with mock.patch.object(_cgrower, "load", return_value=None):
        return _forest(scale).fit(X, y)


def bench(scale) -> dict:
    X, y, pool_X, rows = _problem(scale)
    repeats = scale["repeats"]
    t = {}

    # -- layer 1: forest growth -------------------------------------------
    t["fit_reference"], t["fit_presorted"] = best_of_pair(
        lambda: _fit_reference(scale, X, y),
        lambda: _forest(scale).fit(X, y),
        repeats,
    )

    # -- layer 2: pool scoring (cold — no cache) --------------------------
    model = _forest(scale).fit(X, y)

    def score_reference():
        P = np.stack([tree.predict(pool_X) for tree in model.trees_], axis=0)
        return P.mean(axis=0), across_tree_std(P)

    pool = DataPool(pool_X)  # continuous: no bitmap index, rows are walked

    def score_packed_cold():
        model._pool_cache = None  # force a full packed traversal
        return model.predict_with_uncertainty_pool(pool, rows)

    t["pool_scoring_reference"], t["pool_scoring_packed"] = best_of_pair(
        score_reference, score_packed_cold, repeats
    )

    # -- layer 3: cached re-score after a partial update ------------------
    upd = np.random.default_rng(13)

    def rescore(clear_cache: bool) -> float:
        Xn = upd.random((1, scale["n_features"]))
        yn = np.abs(upd.normal(size=1)) + 0.1
        model.update(Xn, yn, refresh_fraction=0.3)
        if clear_cache:
            model._pool_cache = None
        t0 = time.perf_counter()
        model.predict_with_uncertainty_pool(pool, rows)
        return time.perf_counter() - t0

    model.predict_with_uncertainty_pool(pool, rows)  # warm the cache
    t["partial_rescore_cold"] = min(rescore(True) for _ in range(repeats + 1))
    t["partial_rescore_cached"] = min(rescore(False) for _ in range(repeats + 1))

    # -- layer 4: a level-coded pool through its bitmap index -------------
    level_speedups = {}
    r = np.random.default_rng(17)
    levels = np.arange(LEVELS, dtype=np.float64)
    level_pool = DataPool(r.choice(levels, size=(scale["n_pool"], scale["n_features"])))
    for n_train in LEVEL_POOL_N_TRAIN:
        Xl = r.choice(levels, size=(n_train, scale["n_features"]))
        yl = np.abs(r.normal(size=n_train)) + 0.1
        level_model = _forest(scale).fit(Xl, yl)

        def score_bitmap_cold():
            level_model._pool_cache = None
            return level_model.predict_with_uncertainty_pool(level_pool, rows)

        walk, bitmap = best_of_pair(
            lambda: level_model.predict_with_uncertainty(level_pool.X),
            score_bitmap_cold,
            repeats,
        )
        t[f"level_pool_walk_n{n_train}"] = walk
        t[f"level_pool_bitmap_n{n_train}"] = bitmap
        level_speedups[f"level_pool_scoring_n{n_train}"] = walk / bitmap

    speedups = {
        "fit": t["fit_reference"] / t["fit_presorted"],
        "pool_scoring": t["pool_scoring_reference"] / t["pool_scoring_packed"],
        "cached_partial_rescore": (
            t["partial_rescore_cold"] / t["partial_rescore_cached"]
        ),
        "combined_fit_plus_pool": (
            (t["fit_reference"] + t["pool_scoring_reference"])
            / (t["fit_presorted"] + t["pool_scoring_packed"])
        ),
        **level_speedups,
    }
    return {
        "schema": "repro.bench_forest/v1",
        "kernel": "c" if _cgrower.load() is not None else "numpy",
        "scale": {k: v for k, v in scale.items() if k != "repeats"},
        "repeats": scale["repeats"],
        "timings_sec": {k: round(v, 6) for k, v in t.items()},
        "speedups": {k: round(v, 3) for k, v in speedups.items()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help="small scale for CI smoke runs (no speedup threshold check)",
    )
    ap.add_argument("--output", default="BENCH_forest.json")
    ap.add_argument(
        "--min-combined-speedup", type=float, default=3.0,
        help="fail (exit 1) below this combined fit+pool speedup "
        "at paper scale; ignored with --quick",
    )
    args = ap.parse_args(argv)

    scale = QUICK_SCALE if args.quick else PAPER_SCALE
    result = bench(scale)
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"kernel: {result['kernel']}   scale: {result['scale']}")
    for name, sec in sorted(result["timings_sec"].items()):
        print(f"  {name:<28} {sec * 1e3:10.2f} ms")
    for name, x in sorted(result["speedups"].items()):
        print(f"  speedup {name:<28} {x:6.2f}x")
    print(f"wrote {args.output}")

    if args.quick:
        return 0
    floors = dict(LAYER_FLOORS, combined_fit_plus_pool=args.min_combined_speedup)
    failed = False
    for name, floor in floors.items():
        speedup = result["speedups"][name]
        if speedup < floor:
            print(
                f"FAIL: {name} speedup {speedup:.2f}x is below the "
                f"{floor:.1f}x bar",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
