"""Tests for the parallel execution engine (repro.engine)."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.active import IterationRecord, LearningHistory
from repro.engine import (
    EngineConfig,
    ResultStore,
    TrialJob,
    current_engine,
    engine_from_env,
    execute_job,
    run_jobs,
    trial_jobs,
    use_engine,
)
from repro.experiments import runner
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import comparison_traces, strategy_trace
from repro.sampling.pwu import PWUSampling


@pytest.fixture
def two_trial_scale() -> ExperimentScale:
    """Tiny scale with two trials, so scheduling has something to schedule."""
    return ExperimentScale(
        name="tiny2",
        pool_size=150,
        test_size=120,
        n_init=8,
        n_batch=1,
        n_max=16,
        n_trials=2,
        eval_every=4,
        n_estimators=8,
    )


def _quiet(jobs: int = 1, cache_dir=None) -> EngineConfig:
    return EngineConfig(jobs=jobs, cache_dir=cache_dir, progress=False)


class TestJobKeys:
    def test_deterministic_and_distinct(self, two_trial_scale):
        j0, j1 = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        assert j0.key() == trial_jobs("mvt", "pwu", two_trial_scale, seed=0)[0].key()
        # Every varying spec field must vary the key.
        assert j0.key() != j1.key()  # trial index
        others = [
            trial_jobs("atax", "pwu", two_trial_scale, seed=0)[0],
            trial_jobs("mvt", "pbus", two_trial_scale, seed=0)[0],
            trial_jobs("mvt", "pwu", two_trial_scale, seed=1)[0],
            trial_jobs("mvt", "pwu", two_trial_scale, seed=0, alpha=0.1)[0],
            trial_jobs(
                "mvt", "pwu", two_trial_scale, seed=0,
                config_overrides={"retrain": "partial"},
            )[0],
        ]
        keys = {j0.key(), *(j.key() for j in others)}
        assert len(keys) == len(others) + 1

    def test_key_ignores_scale_name(self, two_trial_scale):
        from dataclasses import replace

        renamed = replace(two_trial_scale, name="renamed")
        a = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)[0]
        b = trial_jobs("mvt", "pwu", renamed, seed=0)[0]
        assert a.key() == b.key()

    def test_overrides_order_independent(self, two_trial_scale):
        a = trial_jobs(
            "mvt", "pwu", two_trial_scale, seed=0,
            config_overrides={"retrain": "partial", "refresh_fraction": 0.5},
        )[0]
        b = trial_jobs(
            "mvt", "pwu", two_trial_scale, seed=0,
            config_overrides={"refresh_fraction": 0.5, "retrain": "partial"},
        )[0]
        assert a.key() == b.key()

    def test_instance_strategy_keyed_by_params(self, two_trial_scale):
        a = trial_jobs("mvt", PWUSampling(alpha=0.3), two_trial_scale)[0]
        b = trial_jobs("mvt", PWUSampling(alpha=0.3), two_trial_scale)[0]
        c = trial_jobs("mvt", PWUSampling(alpha=0.4), two_trial_scale)[0]
        assert a.key() == b.key()
        assert a.key() != c.key()
        # and distinct from the name-constructed form
        d = trial_jobs("mvt", "pwu", two_trial_scale)[0]
        assert a.key() != d.key()

    def test_pickle_roundtrip_preserves_key(self, two_trial_scale):
        job = trial_jobs("mvt", PWUSampling(alpha=0.3), two_trial_scale)[0]
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key() == job.key()
        assert clone.spec() == job.spec()

    def test_key_stable_across_processes(self, two_trial_scale):
        """The content address must not depend on interpreter state."""
        job = trial_jobs("mvt", "pwu", two_trial_scale, seed=7)[0]
        src = Path(repro.__file__).resolve().parent.parent
        code = (
            "from repro.engine import trial_jobs\n"
            "from repro.experiments.config import ExperimentScale\n"
            "s = ExperimentScale(name='tiny2', pool_size=150, test_size=120,"
            " n_init=8, n_batch=1, n_max=16, n_trials=2, eval_every=4,"
            " n_estimators=8)\n"
            "print(trial_jobs('mvt', 'pwu', s, seed=7)[0].key())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == job.key()

    def test_rng_derives_from_key(self, two_trial_scale):
        j0, j1 = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        a = j0.rng().integers(0, 2**31, size=8)
        b = j0.rng().integers(0, 2**31, size=8)
        c = j1.rng().integers(0, 2**31, size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestHistoryRoundTrip:
    def _history(self) -> LearningHistory:
        h = LearningHistory()
        h.append(
            IterationRecord(
                n_train=8, cumulative_cost=1.25, rmse={"0.01": 0.5, "0.05": 0.4},
                selected=(3, 1, 4), selected_mu=(), selected_sigma=(),
            )
        )
        h.append(
            IterationRecord(
                n_train=12, cumulative_cost=2.5, rmse={"0.01": 0.3, "0.05": 0.2},
                selected=(9, 2), selected_mu=(0.7, 0.9), selected_sigma=(0.1, 0.2),
            )
        )
        return h

    def test_roundtrip_is_lossless(self):
        h = self._history()
        clone = LearningHistory.from_dict(h.to_dict())
        assert clone.records == h.records

    def test_roundtrip_through_json(self):
        h = self._history()
        clone = LearningHistory.from_dict(json.loads(json.dumps(h.to_dict())))
        assert clone.records == h.records

    def test_executed_trace_roundtrips(self, two_trial_scale):
        job = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)[0]
        history = execute_job(job)
        clone = LearningHistory.from_dict(json.loads(json.dumps(history.to_dict())))
        assert clone.records == history.records

    def test_averaged_trace_roundtrips(self, two_trial_scale):
        """Store artifacts and dump_json share one schema end to end."""
        from repro.experiments.aggregate import AveragedTrace

        trace = strategy_trace("mvt", "pwu", two_trial_scale, seed=0, engine=_quiet())
        clone = AveragedTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert clone.strategy == trace.strategy
        assert clone.n_trials == trace.n_trials
        assert np.array_equal(clone.n_train, trace.n_train)
        assert np.array_equal(clone.cc_mean, trace.cc_mean)
        assert np.array_equal(clone.cc_std, trace.cc_std)
        for k in trace.rmse_mean:
            assert np.array_equal(clone.rmse_mean[k], trace.rmse_mean[k])
            assert np.array_equal(clone.rmse_std[k], trace.rmse_std[k])


class TestResultStore:
    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get("f" * 64) is None

    def test_put_get_roundtrip(self, tmp_path, two_trial_scale):
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        history = execute_job(job)
        store = ResultStore(tmp_path)
        path = store.put(job, history)
        assert path.exists()
        assert job.key() in store
        assert len(store) == 1 and store.keys() == [job.key()]
        loaded = store.get(job.key())
        assert loaded is not None and loaded.records == history.records

    def test_corrupt_artifact_is_a_miss(self, tmp_path, two_trial_scale):
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        store = ResultStore(tmp_path)
        store.put(job, execute_job(job))
        store.journal_path.write_text("{truncated", encoding="utf-8")
        assert ResultStore(tmp_path).get(job.key()) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, two_trial_scale):
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        store = ResultStore(tmp_path)
        path = store.put(job, execute_job(job))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["store_schema"] = -1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(job.key()) is None


class TestEngineExecution:
    def test_parallel_bit_identical_to_serial(self, two_trial_scale):
        with use_engine(_quiet(jobs=1)):
            serial = comparison_traces("mvt", ("random", "pwu"), two_trial_scale, seed=0)
        with use_engine(_quiet(jobs=2)):
            parallel = comparison_traces("mvt", ("random", "pwu"), two_trial_scale, seed=0)
        for s in serial:
            assert np.array_equal(serial[s].cc_mean, parallel[s].cc_mean)
            assert np.array_equal(serial[s].cc_std, parallel[s].cc_std)
            for k in serial[s].rmse_mean:
                assert np.array_equal(serial[s].rmse_mean[k], parallel[s].rmse_mean[k])
                assert np.array_equal(serial[s].rmse_std[k], parallel[s].rmse_std[k])

    def test_resume_reuses_cached_trials(self, tmp_path, two_trial_scale):
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        cfg = _quiet(cache_dir=str(tmp_path))
        first, stats1 = run_jobs(jobs, config=cfg)
        assert (stats1.executed, stats1.cached) == (len(jobs), 0)
        second, stats2 = run_jobs(jobs, config=cfg)
        assert (stats2.executed, stats2.cached) == (0, len(jobs))
        for key in first:
            assert second[key].cached and not first[key].cached
            assert second[key].history.records == first[key].history.records

    def test_partial_completion_resumes(self, tmp_path, two_trial_scale):
        """A killed run's surviving artifacts are reused, the rest executed."""
        cfg = _quiet(cache_dir=str(tmp_path))
        done = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        run_jobs(done, config=cfg)
        both = done + trial_jobs("mvt", "random", two_trial_scale, seed=0)
        _, stats = run_jobs(both, config=cfg)
        assert stats.cached == len(done)
        assert stats.executed == len(both) - len(done)

    def test_cached_trace_matches_fresh_execution(self, tmp_path, two_trial_scale):
        """Resume must not change results: cached == freshly computed."""
        jobs = trial_jobs("mvt", "pbus", two_trial_scale, seed=0)
        fresh, _ = run_jobs(jobs, config=_quiet())
        run_jobs(jobs, config=_quiet(cache_dir=str(tmp_path)))
        cached, stats = run_jobs(jobs, config=_quiet(cache_dir=str(tmp_path)))
        assert stats.executed == 0
        for key in fresh:
            assert cached[key].history.records == fresh[key].history.records

    def test_duplicate_jobs_execute_once(self, two_trial_scale):
        jobs = trial_jobs("mvt", "random", two_trial_scale, seed=0)
        results, stats = run_jobs(jobs + jobs, config=_quiet())
        assert stats.total == len(jobs)
        assert stats.executed == len(jobs)
        assert set(results) == {j.key() for j in jobs}

    def test_split_prepared_once_per_comparison(self, monkeypatch, two_trial_scale):
        """The pool/test split (and y_test measurement) is hoisted: one
        prepare_data call serves every strategy and trial of a benchmark."""
        calls = []
        original = runner.prepare_data
        monkeypatch.setattr(
            runner,
            "prepare_data",
            lambda *a, **k: (calls.append(1), original(*a, **k))[1],
        )
        with use_engine(_quiet(jobs=1)):
            comparison_traces(
                "mvt", ("random", "bestperf", "pwu"), two_trial_scale, seed=321
            )
        assert len(calls) == 1

    def test_run_strategy_engine_override(self, tmp_path, two_trial_scale):
        trace = strategy_trace(
            "mvt", "pwu", two_trial_scale, seed=0,
            engine=_quiet(cache_dir=str(tmp_path)),
        )
        assert trace.n_trials == two_trial_scale.n_trials
        assert len(ResultStore(tmp_path)) == two_trial_scale.n_trials

    def test_engine_matches_legacy_shape(self, tiny_scale):
        """The engine-backed runner preserves the protocol contract."""
        trace = strategy_trace("mvt", "pwu", tiny_scale, seed=0, engine=_quiet())
        assert trace.strategy == "pwu"
        assert trace.n_train[-1] == tiny_scale.n_max
        assert set(trace.rmse_mean) == {"0.01", "0.05", "0.1"}


class TestContext:
    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        cfg = engine_from_env()
        assert cfg == EngineConfig(jobs=3, cache_dir="/tmp/somewhere", progress=False)

    def test_env_defaults(self, monkeypatch):
        for var in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_PROGRESS"):
            monkeypatch.delenv(var, raising=False)
        assert engine_from_env() == EngineConfig()

    def test_env_progress_force(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "force")
        cfg = engine_from_env()
        assert cfg.progress and cfg.progress_force

    def test_use_engine_scoping(self):
        inner = _quiet(jobs=2)
        with use_engine(inner):
            assert current_engine() is inner
        assert current_engine() is not inner

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            EngineConfig(jobs=0)


class TestProgressTelemetry:
    def test_counters_and_summary(self, capsys):
        from repro.engine import ProgressReporter

        rep = ProgressReporter(total=3, enabled=True, min_interval=0.0)
        rep.job_cached("a")
        rep.job_started("b")
        rep.job_finished("b")
        rep.job_started("c")
        rep.job_finished("c")
        rep.close()
        assert (rep.done, rep.cached, rep.executed) == (3, 1, 2)
        err = capsys.readouterr().err
        assert "cache hits 1" in err and "executed 2" in err

    def test_disabled_reporter_is_silent(self, capsys):
        from repro.engine import ProgressReporter

        rep = ProgressReporter(total=1, enabled=False)
        rep.job_started()
        rep.job_finished()
        rep.close()
        assert capsys.readouterr().err == ""

    def test_non_tty_suppresses_intermediate_lines(self):
        """Daemon/CI logs get the summary only, not per-update spam."""
        import io

        from repro.engine import ProgressReporter

        stream = io.StringIO()  # not a TTY
        rep = ProgressReporter(total=2, stream=stream, min_interval=0.0)
        rep.job_started("a")
        rep.job_finished("a")
        rep.job_started("b")
        rep.job_finished("b")
        assert stream.getvalue() == ""
        rep.close()
        out = stream.getvalue()
        assert out.count("\n") == 1  # exactly the summary line
        assert "executed 2" in out

    def test_force_restores_per_update_lines_on_non_tty(self):
        import io

        from repro.engine import ProgressReporter

        stream = io.StringIO()
        rep = ProgressReporter(
            total=1, stream=stream, min_interval=0.0, force=True
        )
        rep.job_started("a")
        rep.job_finished("a")
        assert "1/1 done" in stream.getvalue()
        assert "trials/s" in stream.getvalue()
        rep.close()
        assert "\r" not in stream.getvalue()  # plain lines, no redraws

    def test_tty_still_redraws_in_place(self):
        import io

        from repro.engine import ProgressReporter

        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        rep = ProgressReporter(total=1, stream=stream, min_interval=0.0)
        rep.job_started("a")
        rep.job_finished("a")
        assert "\r" in stream.getvalue()
        rep.close()
        assert stream.getvalue().endswith("jobs/s)\n")

    def test_run_jobs_emits_cache_hit_telemetry(self, tmp_path, two_trial_scale, capsys):
        jobs = trial_jobs("mvt", "random", two_trial_scale, seed=0)
        cfg = EngineConfig(jobs=1, cache_dir=str(tmp_path), progress=True)
        run_jobs(jobs, config=cfg)
        run_jobs(jobs, config=cfg)
        err = capsys.readouterr().err
        assert f"cache hits {len(jobs)}" in err
