"""Drivers regenerating every table and figure of the paper.

Each ``figN`` function runs the required experiments and returns a
:class:`FigureResult` holding both the raw data (JSON-serialisable) and a
text rendering of the series the paper plots.  The benchmark harness under
``benchmarks/`` and the CLI both call these drivers; EXPERIMENTS.md records
the paper-versus-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.aggregate import AveragedTrace
from repro.experiments.config import ExperimentScale
from repro.experiments.report import format_table, series_table, sparkline
from repro.experiments.runner import (
    comparison_traces,
    prepare_data,
    run_single,
    surrogate_overrides,
)
from repro.kernels import SPAPT_KERNEL_NAMES
from repro.machine import platform_table
from repro.metrics import speedup_at_level
from repro.rng import derive
from repro.sampling import STRATEGY_NAMES
from repro.tuning import model_based_tuning, surrogate_annotator
from repro.workloads import get_benchmark

__all__ = [
    "FigureResult",
    "tables_1_to_4",
    "fig2_fig3",
    "fig4_fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
]

APP_NAMES: tuple[str, ...] = ("kripke", "hypre")


@dataclass
class FigureResult:
    """Rendered panels plus raw data for one paper figure/table."""

    name: str
    description: str
    panels: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        header = f"=== {self.name}: {self.description} ==="
        body = "\n\n".join(
            f"--- {title} ---\n{text}" for title, text in self.panels.items()
        )
        return f"{header}\n\n{body}\n"


# ---------------------------------------------------------------------------
# Tables I-IV: parameter-space and platform inventories
# ---------------------------------------------------------------------------

def tables_1_to_4() -> FigureResult:
    """Tables I (ADI parameters), II (kripke), III (hypre), IV (platforms)."""
    result = FigureResult(
        name="Tables I-IV",
        description="parameter spaces and platform configuration",
    )
    adi = get_benchmark("adi")
    result.panels["Table I: compilation parameters of ADI kernel"] = (
        adi.space.describe()
    )
    kripke = get_benchmark("kripke")
    result.panels["Table II: parameters of kripke"] = kripke.space.describe()
    hypre = get_benchmark("hypre")
    result.panels["Table III: parameters of hypre"] = hypre.space.describe()
    result.panels["Table IV: node configuration of two platforms"] = platform_table()
    result.data = {
        "adi_n_parameters": adi.space.n_parameters,
        "adi_log10_size": adi.space.log10_size(),
        "kripke_size": kripke.space.size(),
        "hypre_size": hypre.space.size(),
    }
    return result


# ---------------------------------------------------------------------------
# Fig. 2 + Fig. 3: RMSE and CC vs #samples for the 12 kernels
# ---------------------------------------------------------------------------

def _comparison_panels(
    traces: dict[str, AveragedTrace], alpha_key: str
) -> tuple[str, str]:
    """(RMSE panel, CC panel) for one benchmark's strategy comparison."""
    any_trace = next(iter(traces.values()))
    rmse_panel = series_table(
        any_trace.n_train,
        {s: t.rmse_mean[alpha_key] for s, t in traces.items()},
        x_label="#samples",
    )
    cc_panel = series_table(
        any_trace.n_train,
        {s: t.cc_mean for s, t in traces.items()},
        x_label="#samples",
        value_format="{:.1f}",
    )
    return rmse_panel, cc_panel


def fig2_fig3(
    scale: ExperimentScale,
    kernels: "tuple[str, ...]" = SPAPT_KERNEL_NAMES,
    strategies: "tuple[str, ...]" = STRATEGY_NAMES,
    alpha: float = 0.01,
    seed: int = 0,
    surrogate: str = "forest",
) -> tuple[FigureResult, FigureResult]:
    """Fig. 2 (RMSE vs #samples) and Fig. 3 (CC vs #samples), 12 kernels.

    One experiment feeds both figures, as in the paper.  ``surrogate``
    swaps the model family under every strategy (registry-resolved).
    """
    overrides = surrogate_overrides(surrogate)
    alpha_key = f"{alpha:g}"
    fig2 = FigureResult(
        name="Fig. 2",
        description=f"RMSE@{alpha:g} vs #samples, {len(kernels)} kernels, "
        f"{len(strategies)} strategies (scale={scale.name})",
    )
    fig3 = FigureResult(
        name="Fig. 3",
        description=f"cumulative labeling cost vs #samples (scale={scale.name})",
    )
    for kernel in kernels:
        traces = comparison_traces(
            kernel, strategies, scale, seed=seed, alpha=alpha,
            config_overrides=overrides,
        )
        rmse_panel, cc_panel = _comparison_panels(traces, alpha_key)
        fig2.panels[kernel] = rmse_panel
        fig3.panels[kernel] = cc_panel
        fig2.data[kernel] = {s: t.to_dict() for s, t in traces.items()}
    fig3.data = fig2.data
    return fig2, fig3


# ---------------------------------------------------------------------------
# Fig. 4 + Fig. 5: the two applications
# ---------------------------------------------------------------------------

def fig4_fig5(
    scale: ExperimentScale,
    strategies: "tuple[str, ...]" = STRATEGY_NAMES,
    alpha: float = 0.01,
    seed: int = 0,
    surrogate: str = "forest",
) -> tuple[FigureResult, FigureResult]:
    """Fig. 4 (RMSE and CC vs #samples) and Fig. 5 (RMSE vs CC) for the apps."""
    overrides = surrogate_overrides(surrogate)
    alpha_key = f"{alpha:g}"
    fig4 = FigureResult(
        name="Fig. 4",
        description=f"RMSE@{alpha:g} and CC vs #samples: kripke, hypre "
        f"(scale={scale.name})",
    )
    fig5 = FigureResult(
        name="Fig. 5",
        description="RMSE vs cumulative time cost: kripke, hypre",
    )
    for app in APP_NAMES:
        traces = comparison_traces(
            app, strategies, scale, seed=seed, alpha=alpha,
            config_overrides=overrides,
        )
        rmse_panel, cc_panel = _comparison_panels(traces, alpha_key)
        fig4.panels[f"{app} (a) RMSE"] = rmse_panel
        fig4.panels[f"{app} (b) CC"] = cc_panel
        fig4.data[app] = {s: t.to_dict() for s, t in traces.items()}
        # Fig. 5 re-plots the same traces against cost instead of #samples;
        # costs differ per strategy, so render one block per strategy.
        rows = []
        for s, t in traces.items():
            rows.append(
                [
                    s,
                    f"{t.cc_mean[-1]:.0f}",
                    f"{t.rmse_mean[alpha_key][-1]:.4f}",
                    sparkline(t.rmse_mean[alpha_key]),
                ]
            )
        fig5.panels[app] = format_table(
            ["strategy", "final CC (s)", "final RMSE", "RMSE trend over cost"],
            rows,
        )
    fig5.data = fig4.data
    return fig4, fig5


# ---------------------------------------------------------------------------
# Fig. 6: PBUS vs PWU at alpha in {0.01, 0.05, 0.10} on atax
# ---------------------------------------------------------------------------

def fig6(
    scale: ExperimentScale,
    benchmark: str = "atax",
    alphas: "tuple[float, ...]" = (0.01, 0.05, 0.10),
    seed: int = 0,
    surrogate: str = "forest",
) -> FigureResult:
    """RMSE vs #samples for PBUS and PWU at each α (robustness check).

    ``surrogate`` swaps the model family, making this the natural
    harness for surrogate head-to-heads (see EXPERIMENTS.md).
    """
    overrides = surrogate_overrides(surrogate)
    result = FigureResult(
        name="Fig. 6",
        description=f"PBUS vs PWU on {benchmark} at α ∈ {alphas} "
        f"(scale={scale.name})",
    )
    for a in alphas:
        key = f"{a:g}"
        traces = comparison_traces(
            benchmark, ("pbus", "pwu"), scale, seed=seed, alpha=a, alphas=(a,),
            config_overrides=overrides,
        )
        any_trace = next(iter(traces.values()))
        result.panels[f"alpha={a:g}"] = series_table(
            any_trace.n_train,
            {s: t.rmse_mean[key] for s, t in traces.items()},
            x_label="#samples",
        )
        result.data[key] = {s: t.to_dict() for s, t in traces.items()}
    return result


# ---------------------------------------------------------------------------
# Fig. 7: cost speedup of PWU over PBUS
# ---------------------------------------------------------------------------

def fig7(
    scale: ExperimentScale,
    benchmarks: "tuple[str, ...] | None" = None,
    alpha: float = 0.01,
    seed: int = 0,
    surrogate: str = "forest",
) -> FigureResult:
    """Speedup of cumulative cost to reach a common low error level.

    The paper reports up to 21x, ~3x on average across the 14 benchmarks.
    Its PBUS and PWU trials at ``alpha`` are the same jobs as Fig. 2's and
    Fig. 4's, so under a result store they are read back, not re-run.
    """
    overrides = surrogate_overrides(surrogate)
    if benchmarks is None:
        benchmarks = SPAPT_KERNEL_NAMES + APP_NAMES
    alpha_key = f"{alpha:g}"
    result = FigureResult(
        name="Fig. 7",
        description=f"CC speedup of PWU over PBUS at RMSE@{alpha:g} "
        f"(scale={scale.name})",
    )
    rows = []
    speedups = {}
    for bench in benchmarks:
        traces = comparison_traces(
            bench, ("pbus", "pwu"), scale, seed=seed, alpha=alpha,
            config_overrides=overrides,
        )
        sp, level = speedup_at_level(
            traces["pbus"].cc_mean,
            traces["pbus"].rmse_mean[alpha_key],
            traces["pwu"].cc_mean,
            traces["pwu"].rmse_mean[alpha_key],
        )
        speedups[bench] = sp
        rows.append([bench, f"{level:.4f}", f"{sp:.2f}x" if sp == sp else "n/a"])
    finite = [s for s in speedups.values() if s == s]
    geo = float(np.exp(np.mean(np.log(finite)))) if finite else float("nan")
    rows.append(["(geo-mean)", "", f"{geo:.2f}x"])
    rows.append(["(max)", "", f"{max(finite):.2f}x" if finite else "n/a"])
    result.panels["speedup of CC (PBUS / PWU)"] = format_table(
        ["benchmark", "error level", "speedup"], rows
    )
    result.data = {"speedups": speedups, "geo_mean": geo}
    return result


# ---------------------------------------------------------------------------
# Fig. 8: direct tuning vs tuning with a surrogate annotator
# ---------------------------------------------------------------------------

def fig8(
    scale: ExperimentScale,
    benchmark_name: str = "atax",
    n_tuning_iterations: int = 40,
    seed: int = 0,
    surrogate: str = "forest",
) -> FigureResult:
    """Case study: surrogate-annotated tuning tracks ground-truth tuning."""
    overrides = surrogate_overrides(surrogate)
    result = FigureResult(
        name="Fig. 8",
        description=f"direct vs surrogate tuning on {benchmark_name} "
        f"(scale={scale.name})",
    )
    benchmark = get_benchmark(benchmark_name)
    rng = derive(seed, "fig8", benchmark_name)
    pool, X_test, y_test = prepare_data(benchmark, scale, rng)

    # Build the surrogate with PWU active learning (the paper's method).
    history = run_single(
        benchmark, "pwu", scale, pool, X_test, y_test, rng, alpha=0.05,
        config_overrides=overrides,
    )
    # Refit a forest on the final training set for the annotator role.
    from repro.forest import RandomForestRegressor

    selected = [i for rec in history.records for i in rec.selected]
    X_train = pool.X[np.asarray(sorted(set(selected)), dtype=np.intp)]
    y_train = benchmark.measure_encoded(X_train, rng)
    surrogate = RandomForestRegressor(
        n_estimators=scale.n_estimators, seed=rng
    ).fit(X_train, y_train)

    direct = model_based_tuning(
        benchmark,
        X_test,
        annotate=lambda X: benchmark.measure_encoded(X, rng),
        annotator_name="ground truth",
        n_iterations=n_tuning_iterations,
        seed=derive(seed, "fig8-direct"),
    )
    via_model = model_based_tuning(
        benchmark,
        X_test,
        annotate=surrogate_annotator(surrogate),
        annotator_name="surrogate model",
        n_iterations=n_tuning_iterations,
        seed=derive(seed, "fig8-surrogate"),
    )
    result.panels["best true time found so far"] = series_table(
        direct.n_evaluated,
        {
            "ground truth": direct.best_true_time,
            "surrogate": via_model.best_true_time,
        },
        x_label="#evaluations",
    )
    result.data = {
        "direct_final": direct.final_best(),
        "surrogate_final": via_model.final_best(),
        "direct": direct.best_true_time.tolist(),
        "surrogate": via_model.best_true_time.tolist(),
    }
    return result


# ---------------------------------------------------------------------------
# Fig. 9: distribution of selected samples in the (μ, σ) plane
# ---------------------------------------------------------------------------

def _occupancy_grid(
    mu: np.ndarray,
    sigma: np.ndarray,
    selected_mask: np.ndarray,
    n_bins: int = 10,
) -> str:
    """ASCII density map: '·' pool-only cells, digits = #selected in cell."""
    mu_edges = np.quantile(mu, np.linspace(0, 1, n_bins + 1))
    sg_edges = np.quantile(sigma, np.linspace(0, 1, n_bins + 1))
    mu_bin = np.clip(np.searchsorted(mu_edges, mu, side="right") - 1, 0, n_bins - 1)
    sg_bin = np.clip(np.searchsorted(sg_edges, sigma, side="right") - 1, 0, n_bins - 1)
    lines = ["(rows: uncertainty high→low; cols: predicted time low→high)"]
    for r in range(n_bins - 1, -1, -1):
        cells = []
        for c in range(n_bins):
            in_cell = (sg_bin == r) & (mu_bin == c)
            k = int((in_cell & selected_mask).sum())
            if k == 0:
                cells.append("·" if in_cell.any() else " ")
            else:
                cells.append(str(min(k, 9)))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def fig9(
    scale: ExperimentScale,
    benchmark_name: str = "atax",
    seed: int = 0,
    surrogate: str = "forest",
) -> FigureResult:
    """Where PBUS and PWU spend their selections in the (μ, σ) plane.

    The paper's qualitative finding: PBUS piles onto low-uncertainty
    samples; PWU spreads into the high-uncertainty region while staying
    performance-biased.
    """
    result = FigureResult(
        name="Fig. 9",
        description=f"selected-sample distribution, PBUS vs PWU on "
        f"{benchmark_name} (scale={scale.name})",
    )
    overrides = surrogate_overrides(surrogate)
    benchmark = get_benchmark(benchmark_name)
    from repro.forest import RandomForestRegressor

    data = {}
    for strategy in ("pbus", "pwu"):
        rng = derive(seed, "fig9", strategy)
        pool, X_test, y_test = prepare_data(benchmark, scale, rng)
        history = run_single(
            benchmark, strategy, scale, pool, X_test, y_test, rng, alpha=0.05,
            config_overrides=overrides,
        )
        # Selected samples plotted at their *selection-time* (μ, σ) — the
        # paper's coordinates.  The grey pool backdrop uses a model fit on
        # the run's full training set.
        sel_mu, sel_sigma = history.selection_statistics()
        selected = np.asarray(
            sorted(set(history.all_selected(include_cold_start=True))),
            dtype=np.intp,
        )
        X_sel = pool.X[selected]
        y_sel = benchmark.measure_encoded(X_sel, rng)
        model = RandomForestRegressor(
            n_estimators=scale.n_estimators, seed=rng
        ).fit(X_sel, y_sel)
        pool_mu, pool_sigma = model.predict_with_uncertainty(pool.X)

        mu = np.concatenate([pool_mu, sel_mu])
        sigma = np.concatenate([pool_sigma, sel_sigma])
        mask = np.zeros(len(mu), dtype=bool)
        mask[len(pool_mu):] = True

        median_sigma = float(np.median(pool_sigma))
        frac_high_sigma = float((sel_sigma > median_sigma).mean())
        mean_sel_sigma = float(sel_sigma.mean())
        result.panels[strategy.upper()] = (
            _occupancy_grid(mu, sigma, mask)
            + f"\nmean selection-time sigma: {mean_sel_sigma:.4f}"
            f"\nfraction of selections above the pool's median sigma: "
            f"{frac_high_sigma:.2f}"
        )
        data[strategy] = {
            "frac_high_sigma": frac_high_sigma,
            "mean_selection_sigma": mean_sel_sigma,
            "n_selected": int(len(sel_mu)),
        }
    result.data = data
    return result
