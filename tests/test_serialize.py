"""Tests for forest save/load."""

import numpy as np
import pytest

from repro.forest import RandomForestRegressor, load_forest, save_forest


@pytest.fixture
def fitted(regression_data):
    X, y = regression_data
    return RandomForestRegressor(n_estimators=8, seed=0).fit(X, y), X


class TestRoundTrip:
    def test_predictions_identical(self, fitted, tmp_path):
        model, X = fitted
        path = str(tmp_path / "forest.npz")
        save_forest(model, path)
        loaded = load_forest(path)
        assert np.array_equal(loaded.predict(X[:50]), model.predict(X[:50]))

    def test_uncertainty_identical(self, fitted, tmp_path):
        model, X = fitted
        path = str(tmp_path / "forest.npz")
        save_forest(model, path)
        loaded = load_forest(path)
        mu0, s0 = model.predict_with_uncertainty(X[:30])
        mu1, s1 = loaded.predict_with_uncertainty(X[:30])
        assert np.array_equal(mu0, mu1)
        assert np.array_equal(s0, s1)

    def test_uncertainty_mode_preserved(self, regression_data, tmp_path):
        X, y = regression_data
        model = RandomForestRegressor(
            n_estimators=5, seed=0, uncertainty="total_variance"
        ).fit(X, y)
        path = str(tmp_path / "f.npz")
        save_forest(model, path)
        assert load_forest(path).uncertainty == "total_variance"


class TestErrors:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_forest(RandomForestRegressor(), str(tmp_path / "f.npz"))

    def test_version_checked(self, fitted, tmp_path):
        from repro.envelope import EnvelopeError

        model, _ = fitted
        path = str(tmp_path / "f.npz")
        save_forest(model, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        for version in (1, 99):
            payload["format_version"] = np.asarray(version)
            np.savez_compressed(path, **payload)
            with pytest.raises(EnvelopeError, match=f"version {version}"):
                load_forest(path)

    def test_loaded_forest_cannot_update(self, fitted, tmp_path, regression_data):
        model, _ = fitted
        X, y = regression_data
        path = str(tmp_path / "f.npz")
        save_forest(model, path)
        loaded = load_forest(path)
        # update() on a data-less forest falls back to fit() semantics —
        # it must not crash, and afterwards it really is refit.
        loaded.update(X[:30], y[:30])
        assert loaded.n_training_samples == 30


class TestTypedEnvelopeErrors:
    """Unreadable files fail with EnvelopeError (a ValueError subclass)
    naming the file and the expected schema — never a raw zipfile or
    KeyError traceback (the bugfix behind DESIGN.md §2j's loaders)."""

    def test_missing_file(self, tmp_path):
        from repro.envelope import EnvelopeError

        with pytest.raises(EnvelopeError, match="file not found"):
            load_forest(str(tmp_path / "ghost.npz"))

    def test_truncated_file_names_path_and_schema(self, fitted, tmp_path):
        from repro.envelope import EnvelopeError

        model, _ = fitted
        path = tmp_path / "f.npz"
        save_forest(model, str(path))
        path.write_bytes(path.read_bytes()[:80])
        with pytest.raises(EnvelopeError) as err:
            load_forest(str(path))
        assert str(path) in str(err.value)
        assert "format_version" in str(err.value)  # the expected schema

    def test_text_file_is_not_a_zipfile_leak(self, tmp_path):
        from repro.envelope import EnvelopeError

        path = tmp_path / "notes.npz"
        path.write_text("definitely not an archive")
        with pytest.raises(EnvelopeError, match="repro forest"):
            load_forest(str(path))

    def test_npz_missing_schema_keys(self, tmp_path):
        from repro.envelope import EnvelopeError

        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, unrelated=np.arange(3))
        with pytest.raises(EnvelopeError, match="format_version"):
            load_forest(str(path))

    def test_surrogate_loader_shares_the_contract(self, tmp_path):
        from repro.envelope import EnvelopeError
        from repro.surrogate import load_surrogate

        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(EnvelopeError, match="surrogate"):
            load_surrogate(str(path))

    def test_envelope_error_is_a_value_error(self):
        from repro.envelope import EnvelopeError

        assert issubclass(EnvelopeError, ValueError)


def _corrupt_left(payload, node):
    payload["packed_left"][node] = 10**9


def _corrupt_feature(payload, node):
    payload["packed_feature"][node] = 10**6


def _corrupt_self_loop(payload, node):
    payload["packed_right"][node] = node


class TestCorruptNodeArrays:
    """Node arrays that would crash or hang a traversal are rejected at
    load time with EnvelopeError, by every loader that reads them."""

    @pytest.fixture(scope="class")
    def zoo(self):
        from repro.workloads.surrogate import zoo_dir

        root = zoo_dir()
        if root is None:
            pytest.skip("committed distilled workloads not present")
        return sorted(root.glob("*.npz"))

    @pytest.mark.parametrize(
        "corrupt", [_corrupt_left, _corrupt_feature, _corrupt_self_loop]
    )
    @pytest.mark.parametrize("loader", ["forest", "surrogate", "distilled"])
    def test_rejected_by_every_loader(self, zoo, tmp_path, corrupt, loader):
        from repro.envelope import EnvelopeError
        from repro.surrogate import load_surrogate
        from repro.workloads.surrogate import load_distilled

        with np.load(zoo[0]) as data:
            payload = {k: data[k].copy() for k in data.files}
        node = int(np.flatnonzero(payload["packed_feature"] >= 0)[3])
        corrupt(payload, node)
        path = tmp_path / "corrupt.npz"
        np.savez_compressed(path, **payload)
        load = {
            "forest": load_forest,
            "surrogate": load_surrogate,
            "distilled": load_distilled,
        }[loader]
        with pytest.raises(EnvelopeError) as err:
            load(str(path))
        assert str(path) in str(err.value)
