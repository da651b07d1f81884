"""Fig. 7: cumulative-cost speedup of PWU over PBUS, all 14 benchmarks.

The paper's headline: PWU reaches the common low error level up to 21x
cheaper than PBUS, 3x on average.  Our substrate is a simulator, so the
absolute ratios differ; what this bench regenerates is the per-benchmark
speedup table and its geometric mean, and EXPERIMENTS.md records the
paper-vs-measured comparison (including benchmarks where the advantage
does not replicate — see the PBUS-fraction sensitivity ablation).
"""

import numpy as np
from conftest import env_seed, once, write_panel

from repro.experiments.figures import fig7
from repro.kernels import SPAPT_KERNEL_NAMES

ALPHA = 0.01
ALL_BENCHMARKS = SPAPT_KERNEL_NAMES + ("kripke", "hypre")


def test_fig7_speedup_table(benchmark, scale, output_dir):
    # Its PBUS and PWU trials are the Fig. 2 / Fig. 4 jobs when the seed
    # matches theirs, so the result store serves them instead of re-running.
    result = once(
        benchmark,
        lambda: fig7(scale, benchmarks=ALL_BENCHMARKS, alpha=ALPHA, seed=env_seed()),
    )
    write_panel(output_dir, "fig7_speedup", result.render())

    speedups = result.data["speedups"]
    assert set(speedups) == set(ALL_BENCHMARKS)
    finite = [v for v in speedups.values() if np.isfinite(v)]
    # The common level is defined so both methods reach it; a speedup must
    # be computable on most benchmarks.
    assert len(finite) >= len(ALL_BENCHMARKS) // 2
    assert all(v > 0 for v in finite)
    assert np.isfinite(result.data["geo_mean"])
