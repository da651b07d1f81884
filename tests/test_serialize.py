"""Tests for saving and loading models through the surrogate envelope."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.envelope import EnvelopeError
from repro.forest import RandomForestRegressor
from repro.forest.packed import FIELDS
from repro.surrogate import load_surrogate, save_surrogate


@pytest.fixture
def fitted(regression_data):
    X, y = regression_data
    return RandomForestRegressor(n_estimators=8, seed=0).fit(X, y), X


class TestRoundTrip:
    def test_predictions_identical(self, fitted, tmp_path):
        model, X = fitted
        path = str(tmp_path / "forest.npz")
        save_surrogate(model, path)
        loaded = load_surrogate(path)
        assert np.array_equal(loaded.predict(X[:50]), model.predict(X[:50]))

    def test_uncertainty_identical(self, fitted, tmp_path):
        model, X = fitted
        path = str(tmp_path / "forest.npz")
        save_surrogate(model, path)
        loaded = load_surrogate(path)
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
        save_surrogate(model, path)
        assert load_surrogate(path).uncertainty == "total_variance"


class TestErrors:
    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_surrogate(RandomForestRegressor(), str(tmp_path / "f.npz"))

    def test_version_checked(self, fitted, tmp_path):
        from repro.envelope import EnvelopeError

        model, _ = fitted
        path = str(tmp_path / "f.npz")
        save_surrogate(model, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        for version in (1, 99):
            payload["format_version"] = np.asarray(version)
            np.savez_compressed(path, **payload)
            with pytest.raises(EnvelopeError, match=f"version {version}"):
                load_surrogate(path)

    def test_loaded_forest_cannot_update(self, fitted, tmp_path, regression_data):
        model, _ = fitted
        X, y = regression_data
        path = str(tmp_path / "f.npz")
        save_surrogate(model, path)
        loaded = load_surrogate(path)
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
            load_surrogate(str(tmp_path / "ghost.npz"))

    def test_truncated_file_names_path_and_schema(self, fitted, tmp_path):
        from repro.envelope import EnvelopeError

        model, _ = fitted
        path = tmp_path / "f.npz"
        save_surrogate(model, str(path))
        path.write_bytes(path.read_bytes()[:80])
        with pytest.raises(EnvelopeError) as err:
            load_surrogate(str(path))
        assert str(path) in str(err.value)
        assert "surrogate_kind" in str(err.value)  # the expected schema

    def test_text_file_is_not_a_zipfile_leak(self, tmp_path):
        from repro.envelope import EnvelopeError

        path = tmp_path / "notes.npz"
        path.write_text("definitely not an archive")
        with pytest.raises(EnvelopeError, match="repro surrogate"):
            load_surrogate(str(path))

    def test_npz_missing_schema_keys(self, tmp_path):
        from repro.envelope import EnvelopeError

        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, unrelated=np.arange(3))
        with pytest.raises(EnvelopeError, match="no surrogate_kind stamp"):
            load_surrogate(str(path))

    def test_surrogate_loader_shares_the_contract(self, tmp_path):
        from repro.envelope import EnvelopeError
        from repro.surrogate import load_surrogate

        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(EnvelopeError, match="surrogate"):
            load_surrogate(str(path))

    @pytest.mark.parametrize("kind", ["encrypted", "unknown-method"])
    @pytest.mark.parametrize("loader", ["surrogate", "distilled"])
    def test_unreadable_archive_member(
        self, unreadable_member_envelopes, kind, loader
    ):
        from repro.workloads.surrogate import load_distilled

        path = str(unreadable_member_envelopes[kind])
        load = {"surrogate": load_surrogate, "distilled": load_distilled}[loader]
        with pytest.raises(EnvelopeError, match="unreadable archive member") as err:
            load(path)
        assert path in str(err.value)

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
    @pytest.mark.parametrize("loader", ["surrogate", "distilled"])
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
        load = {"surrogate": load_surrogate, "distilled": load_distilled}[loader]
        with pytest.raises(EnvelopeError) as err:
            load(str(path))
        assert str(path) in str(err.value)


def _saved_forest() -> bytes:
    r = np.random.default_rng(5)
    X = np.round(r.random((40, 4)), 2)
    forest = RandomForestRegressor(n_estimators=4, seed=5).fit(X, r.random(40))
    buf = io.BytesIO()
    save_surrogate(forest, buf)
    return buf.getvalue()


_SAVED = _saved_forest()
with np.load(io.BytesIO(_SAVED)) as _data:
    _PAYLOAD = {key: _data[key] for key in _data.files}
_N_NODES = len(_PAYLOAD["packed_feature"])

#: Entries a mutation writes into an array: ids at and around every
#: boundary a traversal relies on, huge and negative ids, and non-finite
#: floats.
_ODD_VALUES = st.sampled_from(
    [0, 1, -1, -2, 2, 3, _N_NODES - 1, _N_NODES, _N_NODES + 1, 10**9, -(10**9),
     0.5, np.nan, np.inf, -np.inf]
)


def _load_or_predict(blob: bytes) -> None:
    """The loader either refuses ``blob`` with EnvelopeError or returns a
    model that predicts on a query with its own feature count."""
    try:
        # A mutated float array cast to node ids may hold NaN.
        with np.errstate(invalid="ignore"):
            model = load_surrogate(io.BytesIO(blob))
    except EnvelopeError as exc:
        assert "<in-memory bytes>: cannot load as" in str(exc)
        return
    Q = np.random.default_rng(0).random((9, model.n_features_))
    mu = model.predict(Q)
    mu_u, sd = model.predict_with_uncertainty(Q)
    assert mu.shape == mu_u.shape == sd.shape == (9,)


@st.composite
def _mutated_archives(draw) -> bytes:
    """A saved forest with its node arrays, offsets or feature count
    changed inside an otherwise valid archive."""
    payload = {key: arr.copy() for key, arr in _PAYLOAD.items()}
    keys = [f"packed_{name}" for name in FIELDS] + ["offsets", "n_features"]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(keys))
        arr = payload[key]
        how = draw(st.sampled_from(["set", "truncate", "reshape", "float"]))
        if key == "n_features":
            payload[key] = np.asarray(draw(st.integers(-1, 12)))
        elif how == "set" and arr.size:
            i = draw(st.integers(0, arr.size - 1))
            value = draw(_ODD_VALUES)
            if arr.dtype.kind in "iu" and not np.isfinite(value):
                value = -1
            arr.reshape(-1)[i] = value
        elif how == "truncate":
            payload[key] = arr.reshape(-1)[: draw(st.integers(0, arr.size))]
        elif how == "reshape" and arr.size % 2 == 0:
            payload[key] = arr.reshape(2, -1)
        elif how == "float":
            payload[key] = arr.astype(np.float64) + 0.25
    buf = io.BytesIO()
    np.savez_compressed(buf, **payload)
    return buf.getvalue()


class TestEnvelopeBytesProperty:
    """Malformed forest envelopes, whether the bytes or the arrays inside
    are damaged, load as EnvelopeError or as a model that predicts —
    never as another exception or a crash, in either kernel mode."""

    @given(
        cut=st.integers(0, len(_SAVED)),
        flips=st.lists(
            st.tuples(st.integers(0, len(_SAVED) - 1), st.integers(0, 7)),
            min_size=1,
            max_size=3,
        ),
        truncate=st.booleans(),
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_damaged_bytes(self, kernel_mode, cut, flips, truncate):
        blob = bytearray(_SAVED)
        for pos, bit in flips:
            blob[pos] ^= 1 << bit
        _load_or_predict(bytes(blob[:cut] if truncate else blob))

    @given(blob=_mutated_archives())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_arrays(self, kernel_mode, blob):
        _load_or_predict(blob)
