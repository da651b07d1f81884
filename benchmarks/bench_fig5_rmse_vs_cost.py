"""Fig. 5: RMSE vs cumulative time cost for the applications.

Fig. 4's series re-plotted against labeling cost: the paper's point is
that even where PWU spends more per sample, its error *per second of
measurement* remains competitive or better.
"""

import numpy as np
import pytest
from conftest import env_seed, once, write_panel

from repro.experiments.report import format_table, sparkline
from repro.experiments.runner import comparison_traces
from repro.metrics import cost_to_reach
from repro.sampling import STRATEGY_NAMES

ALPHA = 0.01
APPS = ("kripke", "hypre")


@pytest.mark.parametrize("app", APPS)
def test_fig5_app(benchmark, scale, output_dir, app):
    traces = once(
        benchmark,
        lambda: comparison_traces(
            app, STRATEGY_NAMES, scale, seed=env_seed(), alpha=ALPHA
        ),
    )
    key = f"{ALPHA:g}"

    # Tabulate cost-to-reach a shared error level for every strategy.
    level = max(t.rmse_mean[key].min() for t in traces.values()) * 1.05
    rows = []
    for s, t in traces.items():
        cost = cost_to_reach(t.cc_mean, t.rmse_mean[key], level)
        rows.append(
            [
                s,
                f"{t.cc_mean[-1]:.0f}",
                f"{t.rmse_mean[key][-1]:.4f}",
                "n/a" if np.isnan(cost) else f"{cost:.0f}",
                sparkline(t.rmse_mean[key]),
            ]
        )
    panel = format_table(
        ["strategy", "final CC (s)", "final RMSE", f"CC to reach {level:.3f}", "trend"],
        rows,
        title=f"Fig.5 [{app}] RMSE vs cumulative cost",
    )
    write_panel(output_dir, f"fig5_{app}", panel)

    # The chosen level must be reachable by at least one strategy, and the
    # strategy that reaches it defines a finite cost.
    costs = [
        cost_to_reach(t.cc_mean, t.rmse_mean[key], level) for t in traces.values()
    ]
    assert any(np.isfinite(c) for c in costs)
