"""repro.api facade and the strategy registry."""

from __future__ import annotations

import numpy as np
import pytest

import repro.api
from repro import telemetry
from repro.engine.context import EngineConfig, use_engine
from repro.experiments.runner import comparison_traces, strategy_trace
from repro.sampling import (
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.sampling import registry as registry_mod
from repro.sampling.base import SamplingStrategy


@pytest.fixture(autouse=True)
def _quiet_engine():
    with use_engine(EngineConfig(jobs=1, progress=False)):
        yield


def _traces_equal(a, b) -> bool:
    return (
        np.array_equal(a.n_train, b.n_train)
        and np.array_equal(a.cc_mean, b.cc_mean)
        and all(np.array_equal(a.rmse_mean[k], b.rmse_mean[k]) for k in a.rmse_mean)
    )


class TestRegistry:
    def test_get_strategy_builds_known_names(self):
        for name in available_strategies():
            assert isinstance(get_strategy(name), SamplingStrategy)

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(KeyError, match="did you mean 'pwu'"):
            get_strategy("pvu")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            get_strategy("no-such-strategy-at-all")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("pwu", lambda alpha: None)

    def test_register_and_resolve_custom_strategy(self):
        class _Probe(SamplingStrategy):
            name = "probe"
            requires_model = False

            def select(self, model, pool, n_batch, rng):
                return pool.available_indices()[:n_batch]

        register_strategy("probe", lambda alpha: _Probe())
        try:
            assert "probe" in available_strategies()
            assert isinstance(get_strategy("probe"), _Probe)
        finally:
            del registry_mod._REGISTRY["probe"]

    def test_alpha_reaches_pwu(self):
        assert get_strategy("pwu", alpha=0.01).alpha == 0.01


class TestRun:
    def test_run_matches_canonical_runner(self, tiny_scale):
        result = repro.api.run("mvt", "pwu", seed=3, scale=tiny_scale)
        direct = strategy_trace("mvt", "pwu", tiny_scale, seed=3)
        assert result.workload == "mvt"
        assert result.strategy == "pwu"
        assert result.seed == 3
        assert result.trace_path is None
        assert _traces_equal(result.history, direct)

    def test_metrics_summarise_history(self, tiny_scale):
        result = repro.api.run("mvt", "random", seed=0, scale=tiny_scale)
        m = result.metrics
        assert m["n_trials"] == tiny_scale.n_trials
        assert m["final_cost"] == pytest.approx(float(result.history.cc_mean[-1]))
        for key, value in m["final_rmse"].items():
            assert value == pytest.approx(result.history.final_rmse(key))

    def test_budget_overrides_n_max(self, tiny_scale):
        result = repro.api.run("mvt", "pwu", seed=0, scale=tiny_scale, budget=16)
        assert int(result.history.n_train[-1]) == 16

    def test_result_is_frozen(self, tiny_scale):
        result = repro.api.run("mvt", "pwu", seed=0, scale=tiny_scale)
        with pytest.raises(AttributeError):
            result.seed = 9

    def test_unknown_strategy_fails_fast(self, tiny_scale):
        with pytest.raises(KeyError, match="did you mean"):
            repro.api.run("mvt", "pvu", scale=tiny_scale)

    def test_unknown_scale_name(self):
        with pytest.raises(KeyError, match="unknown scale"):
            repro.api.run("mvt", "pwu", scale="galactic")

    def test_trace_writes_jsonl(self, tiny_scale, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        result = repro.api.run(
            "mvt", "pwu", seed=0, scale=tiny_scale, trace=path
        )
        assert result.trace_path == path
        parsed = telemetry.read_trace(path)
        assert parsed["header"]["run_id"] != "untagged"
        assert any(e["name"] == "engine.job" for e in parsed["events"])
        assert parsed["counters"]["engine.jobs.executed"] == tiny_scale.n_trials
        assert "accounted phases" in capsys.readouterr().err
        # Tracing was scoped to the facade call: ambient state is off again.
        assert not telemetry.enabled()

    def test_traced_and_untraced_runs_identical(self, tiny_scale, tmp_path):
        untraced = repro.api.run("mvt", "pwu", seed=5, scale=tiny_scale)
        traced = repro.api.run(
            "mvt", "pwu", seed=5, scale=tiny_scale,
            trace=str(tmp_path / "t.jsonl"), trace_summary=False,
        )
        assert _traces_equal(untraced.history, traced.history)

    def test_run_is_compare_of_one_strategy(self, tiny_scale, tmp_path):
        run = repro.api.run(
            "mvt", "pwu", seed=4, scale=tiny_scale,
            trace=str(tmp_path / "run.jsonl"), trace_summary=False,
        )
        both = repro.api.compare(
            "mvt", ("pwu",), seed=4, scale=tiny_scale,
            trace=str(tmp_path / "compare.jsonl"), trace_summary=False,
        )
        assert _traces_equal(run.history, both.traces["pwu"])
        assert run.history.n_trials == both.traces["pwu"].n_trials
        assert run.metrics == both.metrics["pwu"]
        run_ids = [
            telemetry.read_trace(path)["header"]["run_id"]
            for path in (run.trace_path, both.trace_path)
        ]
        assert run_ids[0] == run_ids[1] != "untagged"

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda s: repro.api.run("mvt", "pwu", scale=s, budget=5),
             ValueError, "n_max must be >= n_init"),
            (lambda s: repro.api.compare("mvt", ("pwu",), scale=s, alphas=()),
             ValueError, "at least one alpha"),
            (lambda s: strategy_trace(
                "mvt", "pwu", s, config_overrides={"no_such_field": 1}),
             TypeError, "no_such_field"),
        ],
        ids=["budget-below-n-init", "empty-alphas", "unknown-override"],
    )
    def test_unbuildable_config_fails_before_any_job(
        self, tiny_scale, call, error, match
    ):
        """A learner configuration no trial can build raises its own error
        at the call, not an EngineJobError after every trial's retries."""
        watched = ("engine.jobs.executed", "engine.jobs.retried")
        before = [telemetry.value(name) for name in watched]
        with pytest.raises(error, match=match):
            call(tiny_scale)
        assert [telemetry.value(name) for name in watched] == before


class TestCompare:
    def test_compare_matches_canonical_runner(self, tiny_scale):
        result = repro.api.compare(
            "mvt", ("random", "pwu"), seed=2, scale=tiny_scale
        )
        direct = comparison_traces("mvt", ("random", "pwu"), tiny_scale, seed=2)
        assert result.strategies == ("random", "pwu")
        assert set(result.traces) == {"random", "pwu"}
        for name in result.traces:
            assert _traces_equal(result.traces[name], direct[name])
            assert result.metrics[name]["n_trials"] == tiny_scale.n_trials

    def test_compare_validates_every_name(self, tiny_scale):
        with pytest.raises(KeyError, match="did you mean"):
            repro.api.compare("mvt", ("random", "bestprf"), scale=tiny_scale)


class TestShimRemoval:
    def test_deprecated_names_are_gone(self):
        import repro.experiments
        import repro.experiments.runner as runner_mod

        assert not hasattr(runner_mod, "run_strategy")
        assert not hasattr(runner_mod, "run_comparison")
        assert not hasattr(repro.experiments, "run_strategy")
        assert not hasattr(repro.experiments, "run_comparison")
        # The historical alias of get_strategy.
        import repro.sampling

        assert not hasattr(registry_mod, "make_strategy")
        assert not hasattr(repro.sampling, "make_strategy")
        assert not hasattr(repro, "make_strategy")
