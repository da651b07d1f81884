"""Ablation: random forest vs Gaussian process as the surrogate.

Section II-B argues for the forest: GPs "usually work well for numerical
features but not categorical features".  hypre's space is almost entirely
categorical and the SPAPT spaces are mixed, so this ablation runs PWU with
both surrogates on one of each and compares the learned accuracy.
"""

import numpy as np
from conftest import env_seed, once, write_panel

from repro.experiments.report import format_table
from repro.experiments.runner import strategy_trace

CASES = ("atax", "hypre")


def test_ablation_surrogate_family(benchmark, scale, output_dir):
    def run_all():
        out = {}
        for bench_name in CASES:
            for model in ("forest", "gp"):
                out[(bench_name, model)] = strategy_trace(
                    bench_name,
                    "pwu",
                    scale,
                    seed=env_seed(),
                    alpha=0.05,
                    config_overrides={"surrogate": model},
                    label=f"pwu/{model}",
                )
        return out

    traces = once(benchmark, run_all)
    rows = [
        [
            bench_name,
            model,
            f"{t.rmse_mean['0.05'][-1]:.4f}",
            f"{t.rmse_mean['0.05'].min():.4f}",
        ]
        for (bench_name, model), t in traces.items()
    ]
    write_panel(
        output_dir,
        "ablation_surrogate",
        format_table(
            ["benchmark", "surrogate", "final RMSE@5%", "min RMSE@5%"],
            rows,
            title="Ablation: surrogate family driving PWU (Section II-B claim)",
        ),
    )

    for t in traces.values():
        assert np.isfinite(t.rmse_mean["0.05"]).all()

    # The paper's claim holds on the mixed numerical space: the forest
    # clearly beats the GP on the kernel.  (On hypre the *log-target* GP —
    # a fix the paper's plain-GP framing does not consider — is actually
    # competitive; a plain GP fails outright there with negative predicted
    # times.  Both facts are recorded in EXPERIMENTS.md.)
    assert (
        traces[("atax", "forest")].min_rmse("0.05")
        < traces[("atax", "gp")].min_rmse("0.05")
    )
