"""Integration tests for the figure drivers (tiny scale)."""

import json

from repro import telemetry
from repro.engine import EngineConfig, use_engine
from repro.experiments import figures
from repro.experiments.config import ExperimentScale

#: Smallest scale at which every driver still works (alpha=0.01 needs
#: a 100+ sample test set).
TINY = ExperimentScale(
    name="tiny",
    pool_size=150,
    test_size=120,
    n_init=8,
    n_batch=1,
    n_max=18,
    n_trials=1,
    eval_every=5,
    n_estimators=8,
)


class TestTables:
    def test_tables_render(self):
        res = figures.tables_1_to_4()
        text = res.render()
        for token in ("Table I", "Table II", "Table III", "Table IV", "ADI".lower()):
            assert token.lower() in text.lower()
        assert res.data["adi_n_parameters"] == 18


class TestFig2Fig3:
    def test_single_kernel_panels(self):
        f2, f3 = figures.fig2_fig3(
            TINY, kernels=("mvt",), strategies=("random", "pwu"), seed=0
        )
        assert "mvt" in f2.panels
        assert "mvt" in f3.panels
        assert "pwu" in f2.panels["mvt"]
        # Raw data has both strategies with aligned n_train grids.
        d = f2.data["mvt"]
        assert set(d) == {"random", "pwu"}
        assert d["random"]["n_train"] == d["pwu"]["n_train"]


class TestFig4Fig5:
    def test_apps_panels(self):
        f4, f5 = figures.fig4_fig5(TINY, strategies=("pbus", "pwu"), seed=0)
        assert "kripke (a) RMSE" in f4.panels
        assert "hypre (b) CC" in f4.panels
        assert "kripke" in f5.panels and "hypre" in f5.panels


class TestFig6:
    def test_alpha_sweep(self):
        res = figures.fig6(TINY, benchmark="mvt", alphas=(0.05, 0.10), seed=0)
        assert set(res.panels) == {"alpha=0.05", "alpha=0.1"}
        assert set(res.data) == {"0.05", "0.1"}


class TestFig7:
    def test_speedup_table(self):
        res = figures.fig7(TINY, benchmarks=("mvt",), seed=0)
        assert "mvt" in res.data["speedups"]
        assert "speedup" in res.panels["speedup of CC (PBUS / PWU)"]

    def test_reads_fig2_trials_from_the_store(self, tmp_path):
        """Fig. 7's PBUS and PWU jobs are Fig. 2's (the job key names no
        batch), so under one store Fig. 7 executes none of them and reads
        back what a run on an empty engine computes."""
        with use_engine(EngineConfig(cache_dir=str(tmp_path), progress=False)):
            figures.fig2_fig3(TINY, kernels=("mvt",))
            watched = ("engine.jobs.executed", "engine.store.resume_hits")
            executed, hits = (telemetry.value(name) for name in watched)
            stored = figures.fig7(TINY, benchmarks=("mvt",))
            assert [telemetry.value(name) for name in watched] == [
                executed, hits + 2 * TINY.n_trials,
            ]
        with use_engine(EngineConfig(progress=False)):
            fresh = figures.fig7(TINY, benchmarks=("mvt",))
        assert json.dumps(stored.data, sort_keys=True) == json.dumps(
            fresh.data, sort_keys=True
        )
        assert stored.render() == fresh.render()


class TestFig8:
    def test_tuning_comparison(self):
        res = figures.fig8(TINY, benchmark_name="mvt", n_tuning_iterations=8, seed=0)
        assert "ground truth" in res.panels["best true time found so far"]
        assert len(res.data["direct"]) == 8
        assert res.data["direct_final"] > 0
        assert res.data["surrogate_final"] > 0


class TestFig9:
    def test_selection_maps(self):
        res = figures.fig9(TINY, benchmark_name="mvt", seed=0)
        assert set(res.panels) == {"PBUS", "PWU"}
        for strat in ("pbus", "pwu"):
            d = res.data[strat]
            assert d["n_selected"] == TINY.n_max - TINY.n_init
            assert 0.0 <= d["frac_high_sigma"] <= 1.0
            assert d["mean_selection_sigma"] >= 0.0
