"""Fig. 3: cumulative labeling cost (CC) vs #samples, 12 kernels.

Shares the Fig. 2 runs through the result store — the paper draws both
figures from the same experiments.

Paper shape being checked: BestPerf and BRS accumulate the *least* cost
(they chase predicted-fast = cheap-to-measure configurations), MaxU the
most (it chases uncertain, often slow, configurations); PWU sits between.
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
def test_fig3_kernel(benchmark, scale, output_dir, kernel):
    traces = once(
        benchmark,
        lambda: comparison_traces(
            kernel, STRATEGY_NAMES, scale, seed=env_seed(), alpha=ALPHA
        ),
    )
    _, cc_panel = _comparison_panels(traces, f"{ALPHA:g}")
    write_panel(output_dir, f"fig3_{kernel}", f"Fig.3 [{kernel}]\n{cc_panel}")

    for name, trace in traces.items():
        cc = trace.cc_mean
        assert (np.diff(cc) >= -1e-9).all(), f"{name}: CC must be non-decreasing"
        assert cc[-1] > 0

    # Exploitation-biased samplers label cheap configurations: their final
    # cost must undercut pure uncertainty sampling.
    assert traces["bestperf"].cc_mean[-1] < traces["maxu"].cc_mean[-1]


def test_fig3_cost_ordering_summary(scale, output_dir):
    """Aggregate check across three representative kernels."""
    cheaper_than_maxu = 0
    rows = []
    for kernel in ("atax", "mm", "gesummv"):
        traces = comparison_traces(
            kernel, STRATEGY_NAMES, scale, seed=env_seed(), alpha=ALPHA
        )
        final = {s: t.cc_mean[-1] for s, t in traces.items()}
        rows.append(f"{kernel}: " + "  ".join(f"{s}={v:.1f}s" for s, v in final.items()))
        if final["bestperf"] <= min(final["maxu"], final["random"]):
            cheaper_than_maxu += 1
    write_panel(output_dir, "fig3_summary", "\n".join(rows))
    assert cheaper_than_maxu >= 2
