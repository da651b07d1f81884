"""Fig. 4: RMSE and CC vs #samples for kripke and hypre.

The application spaces are small (2304 / 3150 configurations) and heavily
categorical — the regime the paper argues random forests handle well.
"""

import numpy as np
import pytest
from conftest import env_seed, once, write_panel

from repro.experiments.figures import _comparison_panels
from repro.experiments.runner import comparison_traces
from repro.sampling import STRATEGY_NAMES

ALPHA = 0.01
APPS = ("kripke", "hypre")


@pytest.mark.parametrize("app", APPS)
def test_fig4_app(benchmark, scale, output_dir, app):
    traces = once(
        benchmark,
        lambda: comparison_traces(
            app, STRATEGY_NAMES, scale, seed=env_seed(), alpha=ALPHA
        ),
    )
    rmse_panel, cc_panel = _comparison_panels(traces, f"{ALPHA:g}")
    write_panel(
        output_dir,
        f"fig4_{app}",
        f"Fig.4 [{app}] (a) RMSE\n{rmse_panel}\n\n(b) CC\n{cc_panel}",
    )

    for name, trace in traces.items():
        assert np.isfinite(trace.rmse_mean[f"{ALPHA:g}"]).all(), name
        assert trace.cc_mean[-1] > 0

    # Application labeling is expensive (seconds to minutes per sample):
    # final CC must dwarf the kernels' (which are sub-second per sample).
    assert traces["random"].cc_mean[-1] > 10.0

    # Learning happens: best informed strategy beats its own cold start.
    pwu = traces["pwu"].rmse_mean[f"{ALPHA:g}"]
    assert pwu.min() < pwu[0]
