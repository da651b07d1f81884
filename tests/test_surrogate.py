"""The repro.surrogate protocol: registry, the model families,
meta-surrogates, serialization envelope, and end-to-end determinism."""

from __future__ import annotations

import io

import numpy as np
import pytest

import repro.api
from repro.engine.context import EngineConfig, use_engine
from repro.envelope import EnvelopeError
from repro.forest import RandomForestRegressor
from repro.gp import GaussianProcessRegressor
from repro.registry import NameRegistry
from repro.surrogate import (
    SURROGATE_NAMES,
    SelectSurrogate,
    StackSurrogate,
    Surrogate,
    available_surrogates,
    load_surrogate,
    make_surrogate,
    register_surrogate,
    supports_partial_update,
    surrogate_bytes,
    surrogate_entry,
)
from repro.surrogate import registry as registry_mod
from repro.surrogate.select import fold_slices
from repro.workloads import get_benchmark


@pytest.fixture(autouse=True)
def _quiet_engine():
    with use_engine(EngineConfig(jobs=1, progress=False)):
        yield


@pytest.fixture
def positive_data(rng) -> "tuple[np.ndarray, np.ndarray]":
    """Positive-target regression data (the GP models log execution time)."""
    X = rng.random((60, 4))
    y = np.exp(0.8 * X[:, 0] + np.sin(4.0 * X[:, 1]) * 0.3) + 0.1 * X[:, 2]
    return X, y


@pytest.fixture(scope="module")
def atax_data() -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """60 measured atax configurations to fit on and 300 to query."""
    bench = get_benchmark("atax")
    r = np.random.default_rng(7)
    X = bench.space.sample_encoded(r, 360)
    return X[:60], bench.measure_encoded(X[:60], r), X[60:]


def _fit(name: str, X, y, seed=0) -> Surrogate:
    return make_surrogate(name, rng=np.random.default_rng(seed)).fit(X, y)


class TestRegistry:
    def test_builtin_names_registered(self):
        assert set(SURROGATE_NAMES) <= set(available_surrogates())

    def test_every_builtin_is_buildable(self):
        for name in SURROGATE_NAMES:
            model = make_surrogate(name, rng=np.random.default_rng(0))
            assert isinstance(model, Surrogate)
            assert model.kind == name
        assert type(make_surrogate("forest")) is RandomForestRegressor
        assert type(make_surrogate("gp")) is GaussianProcessRegressor

    def test_unknown_name_suggests_closest(self):
        with pytest.raises(KeyError, match="did you mean 'forest'"):
            surrogate_entry("forrest")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            make_surrogate("no-such-surrogate")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_surrogate("forest", lambda **_: None)

    def test_register_overwrite_is_explicit(self):
        entry = surrogate_entry("forest")
        register_surrogate(
            "forest",
            entry.factory,
            supports_partial_update=True,
            overwrite=True,
        )
        assert surrogate_entry("forest").factory is entry.factory

    def test_register_and_cleanup_custom_surrogate(self):
        register_surrogate("_probe", lambda **kwargs: RandomForestRegressor())
        try:
            assert "_probe" in available_surrogates()
            assert isinstance(make_surrogate("_probe"), RandomForestRegressor)
        finally:
            del registry_mod._REGISTRY["_probe"]
        assert "_probe" not in available_surrogates()

    def test_capability_flags(self):
        assert supports_partial_update("forest")
        for name in ("gp", "select", "stack"):
            assert not supports_partial_update(name)

    @pytest.mark.parametrize("name", SURROGATE_NAMES)
    def test_row_wise_contract(self, kernel_mode, atax_data, name):
        """A model that reports ``row_wise`` predicts any subset of two or
        more rows exactly as it predicts those rows inside a larger query."""
        X, y, Q = atax_data
        model = _fit(name, X, y)
        if name == "select":
            assert model.row_wise is model.model.row_wise
        else:
            assert model.row_wise is {"forest": True, "gp": False, "stack": False}[name]
        if not model.row_wise:
            return
        full = model.predict(Q)
        r = np.random.default_rng(1)
        for k in (2, 3, 15, 16, 17, 300):
            rows = r.choice(len(Q), size=k, replace=False)
            assert model.predict(Q[rows]).tobytes() == full[rows].tobytes(), k


class TestNameRegistry:
    def test_generic_duplicate_rejection_and_overwrite(self):
        reg = NameRegistry("widget")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="widget 'a' is already registered"):
            reg.register("a", 2)
        reg.register("a", 2, overwrite=True)
        assert reg.get("a") == 2

    def test_dict_like_protocol(self):
        reg = NameRegistry("widget")
        reg.register("a", 1)
        reg.register("b", 2)
        assert "a" in reg and len(reg) == 2 and sorted(reg) == ["a", "b"]
        assert reg.available() == ("a", "b")
        assert reg.pop("a") == 1
        del reg["b"]
        assert len(reg) == 0


class TestForestAdapter:
    """The forest implements the protocol itself, partial update included."""

    def test_partial_update_supported(self, positive_data):
        X, y = positive_data
        model = RandomForestRegressor(n_estimators=8, seed=0).fit(X[:40], y[:40])
        model.update(X[40:], y[40:])
        assert len(model.training_targets) == len(y)


class TestDeterminism:
    def test_gp_same_seed_same_predictions(self, positive_data):
        X, y = positive_data
        a = _fit("gp", X, y, seed=7).predict(X)
        b = _fit("gp", X, y, seed=7).predict(X)
        assert np.array_equal(a, b)

    def test_select_same_seed_same_choice_and_predictions(self, positive_data):
        X, y = positive_data
        a = _fit("select", X, y, seed=7)
        b = _fit("select", X, y, seed=7)
        assert a.chosen_name == b.chosen_name
        assert a.cv_errors == b.cv_errors
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_stack_same_seed_same_weights_and_predictions(self, positive_data):
        X, y = positive_data
        a = _fit("stack", X, y, seed=7)
        b = _fit("stack", X, y, seed=7)
        assert np.array_equal(a.weights, b.weights)
        mu_a, sd_a = a.predict_with_uncertainty(X)
        mu_b, sd_b = b.predict_with_uncertainty(X)
        assert np.array_equal(mu_a, mu_b) and np.array_equal(sd_a, sd_b)

    def test_fold_assignment_depends_only_on_seed_and_size(self):
        folds_a = fold_slices(30, 3, fold_seed=99)
        folds_b = fold_slices(30, 3, fold_seed=99)
        assert all(np.array_equal(fa, fb) for fa, fb in zip(folds_a, folds_b))
        folds_c = fold_slices(30, 3, fold_seed=100)
        assert any(
            not np.array_equal(fa, fc) for fa, fc in zip(folds_a, folds_c)
        )

    def test_fold_slices_infeasible_cases(self):
        assert fold_slices(2, 3, fold_seed=0) is None  # 1 training row left
        assert fold_slices(3, 2, fold_seed=0) is None
        assert fold_slices(1, 2, fold_seed=0) is None
        folds = fold_slices(30, 3, fold_seed=0)
        assert sorted(np.concatenate(folds)) == list(range(30))


class TestSelect:
    def test_cv_errors_cover_candidates(self, positive_data):
        X, y = positive_data
        model = _fit("select", X, y, seed=0)
        assert set(model.cv_errors) == {"forest", "gp"}
        assert model.chosen_name == min(
            model.cv_errors, key=model.cv_errors.get
        )

    def test_falls_back_to_first_candidate_when_cv_infeasible(self):
        X = np.array([[0.1, 0.2], [0.8, 0.9]])
        y = np.array([1.0, 2.0])
        model = _fit("select", X, y, seed=0)
        assert model.chosen_name == "forest"
        assert model.cv_errors == {}
        assert model.predict(X).shape == (2,)

    def test_brittle_candidate_scores_inf_not_abort(self, positive_data):
        X, y = positive_data
        # Negative targets break the log-target GP; select must still fit.
        model = _fit("select", X, y - y.max() - 1.0, seed=0)
        assert model.cv_errors["gp"] == float("inf")
        assert model.chosen_name == "forest"


class TestStack:
    def test_weights_normalised(self, positive_data):
        X, y = positive_data
        model = _fit("stack", X, y, seed=0)
        assert model.weights.shape == (2,)
        assert model.weights.sum() == pytest.approx(1.0)
        assert (model.weights > 0).all()

    def test_disagreement_inflates_sigma(self, positive_data):
        X, y = positive_data
        model = _fit("stack", X, y, seed=0)
        mu, sd = model.predict_with_uncertainty(X)
        mus, sds = zip(
            *(m.predict_with_uncertainty(X) for m in model.models)
        )
        w = model.weights[:, None]
        within = np.sqrt((w * np.stack(sds) ** 2).sum(axis=0))
        assert (sd >= within - 1e-12).all()
        assert np.allclose(mu, (w * np.stack(mus)).sum(axis=0))

    def test_equal_weights_when_cv_infeasible(self):
        X = np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.5]])
        y = np.array([1.0, 2.0, 1.5])
        model = StackSurrogate(k_folds=2, seed=np.random.default_rng(0)).fit(X, y)
        assert np.allclose(model.weights, [0.5, 0.5])


class TestSerialization:
    def _roundtrip(self, model: Surrogate) -> Surrogate:
        return load_surrogate(io.BytesIO(surrogate_bytes(model)))

    @pytest.mark.parametrize("name", ["forest", "gp", "select", "stack"])
    def test_roundtrip_preserves_predictions(self, positive_data, name):
        X, y = positive_data
        model = _fit(name, X, y, seed=3)
        loaded = self._roundtrip(model)
        assert type(loaded) is type(model)
        assert loaded.kind == name
        mu_a, sd_a = model.predict_with_uncertainty(X)
        mu_b, sd_b = loaded.predict_with_uncertainty(X)
        assert np.allclose(mu_a, mu_b) and np.allclose(sd_a, sd_b)

    def test_select_roundtrip_keeps_choice_but_cannot_refit(self, positive_data):
        X, y = positive_data
        model = _fit("select", X, y, seed=3)
        loaded = self._roundtrip(model)
        assert loaded.chosen_name == model.chosen_name
        assert loaded.cv_errors == model.cv_errors
        with pytest.raises(RuntimeError, match="cannot refit"):
            loaded.fit(X, y)

    def test_unstamped_forest_file_is_refused(self, positive_data, tmp_path):
        X, y = positive_data
        model = RandomForestRegressor(n_estimators=6, seed=0).fit(X, y)
        path = tmp_path / "bare.npz"
        np.savez(path, **model.serialize())
        with pytest.raises(EnvelopeError, match="surrogate_kind") as err:
            load_surrogate(str(path))
        assert str(path) in str(err.value)

    def test_unfitted_models_refuse_to_serialize(self):
        with pytest.raises(ValueError, match="unfitted"):
            surrogate_bytes(make_surrogate("gp", rng=np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("surrogate_kind", "transfer"),
            ("surrogate_kind", "nope"),
            ("surrogate_schema", 99),
        ],
    )
    def test_undispatchable_envelope_raises_envelope_error(
        self, positive_data, tmp_path, key, value
    ):
        X, y = positive_data
        with np.load(io.BytesIO(surrogate_bytes(_fit("forest", X, y)))) as data:
            payload = {k: data[k] for k in data.files}
        payload[key] = np.asarray(value)
        path = tmp_path / "model.npz"
        np.savez(path, **payload)
        with pytest.raises(EnvelopeError, match="model.npz") as err:
            load_surrogate(str(path))
        assert str(path) in str(err.value)


class TestEndToEnd:
    @pytest.mark.parametrize("name", ["gp", "select", "stack"])
    def test_api_run_accepts_surrogate(self, tiny_scale, name):
        result = repro.api.run(
            "mvt", "pwu", seed=0, scale=tiny_scale, surrogate=name
        )
        assert int(result.history.n_train[-1]) == tiny_scale.n_max
        assert np.isfinite(result.history.rmse_mean["0.05"]).all()

    def test_api_run_bit_identical_across_jobs(self, tiny_scale, tmp_path):
        kwargs = dict(seed=0, scale=tiny_scale, trials=2, surrogate="select")
        serial = repro.api.run("mvt", "pwu", jobs=1, **kwargs)
        parallel = repro.api.run(
            "mvt", "pwu", jobs=2, cache_dir=str(tmp_path / "cache"), **kwargs
        )
        assert np.array_equal(serial.history.n_train, parallel.history.n_train)
        assert np.array_equal(serial.history.cc_mean, parallel.history.cc_mean)
        for key in serial.history.rmse_mean:
            assert np.array_equal(
                serial.history.rmse_mean[key], parallel.history.rmse_mean[key]
            )

    def test_unknown_surrogate_fails_fast(self, tiny_scale):
        with pytest.raises(KeyError, match="did you mean"):
            repro.api.run("mvt", "pwu", scale=tiny_scale, surrogate="forrest")

    def test_forest_and_none_produce_identical_runs(self, tiny_scale):
        default = repro.api.run("mvt", "pwu", seed=4, scale=tiny_scale)
        explicit = repro.api.run(
            "mvt", "pwu", seed=4, scale=tiny_scale, surrogate="forest"
        )
        assert np.array_equal(
            default.history.cc_mean, explicit.history.cc_mean
        )
        for key in default.history.rmse_mean:
            assert np.array_equal(
                default.history.rmse_mean[key], explicit.history.rmse_mean[key]
            )


class TestCLI:
    def test_list_shows_surrogates(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "surrogates" in out
        for name in SURROGATE_NAMES:
            assert name in out

    def test_surrogate_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig6", "--surrogate", "gp"])
        assert args.surrogate == "gp"
        assert build_parser().parse_args(["fig6"]).surrogate == "forest"
