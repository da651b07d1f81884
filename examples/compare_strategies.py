#!/usr/bin/env python
"""Compare all six sampling strategies on one kernel.

Reproduces a single panel of the paper's Fig. 2/3 comparison: every
strategy runs the same active-learning protocol on the same pool, and we
report RMSE@1% versus the number of labeled samples plus the cumulative
labeling cost — the two axes the paper trades off.

Run:  python examples/compare_strategies.py [kernel] [scale]
      python examples/compare_strategies.py mm quick
"""

import sys

import repro.api
from repro import STRATEGY_NAMES
from repro.experiments import SCALES
from repro.experiments.report import format_table, series_table, sparkline
from repro.metrics import speedup_at_level


def main(kernel: str = "atax", scale_name: str = "smoke") -> None:
    scale = SCALES[scale_name]
    print(
        f"running {len(STRATEGY_NAMES)} strategies x {scale.n_trials} trials "
        f"on {kernel!r} at scale {scale.name!r} ..."
    )
    result = repro.api.compare(
        kernel, STRATEGY_NAMES, seed=7, alpha=0.01, scale=scale
    )
    traces = result.traces

    any_trace = next(iter(traces.values()))
    print()
    print(
        series_table(
            any_trace.n_train,
            {s: t.rmse_mean["0.01"] for s, t in traces.items()},
            x_label="#samples",
            title=f"RMSE@1% vs #samples ({kernel})",
        )
    )

    print()
    rows = [
        [
            s,
            f"{t.rmse_mean['0.01'][-1]:.4f}",
            f"{t.cc_mean[-1]:.1f}",
            sparkline(t.rmse_mean["0.01"]),
        ]
        for s, t in traces.items()
    ]
    print(
        format_table(
            ["strategy", "final RMSE@1%", "labeling cost (s)", "trend"],
            rows,
            title="final state",
        )
    )

    speedup, level = speedup_at_level(
        traces["pbus"].cc_mean,
        traces["pbus"].rmse_mean["0.01"],
        traces["pwu"].cc_mean,
        traces["pwu"].rmse_mean["0.01"],
    )
    print(
        f"\nPBUS/PWU cost to reach RMSE {level:.4f}: "
        f"{speedup:.2f}x (>1 means PWU is cheaper)"
        if speedup == speedup
        else "\n(the common error level was not reached by both strategies "
        "at this scale — try scale 'quick')"
    )


if __name__ == "__main__":
    main(*sys.argv[1:3])
