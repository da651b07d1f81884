"""Tests for saving and loading models through the surrogate envelope."""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.envelope import EnvelopeError
from repro.forest import RandomForestRegressor
from repro.forest.packed import FIELDS
from repro.surrogate import load_surrogate, make_surrogate, save_surrogate
from repro.workloads.surrogate import load_distilled, zoo_dir


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["threshold", "value", "variance", "impurity"])
    def test_non_finite_node_value_rejected(self, fitted, tmp_path, name, value):
        """No fit writes a non-finite node value.  One at the root's
        threshold would send every row the same way, one at a leaf's value
        would predict NaN; the load refuses either."""
        model, _ = fitted
        path = str(tmp_path / "f.npz")
        save_surrogate(model, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        leaf = int(np.flatnonzero(payload["packed_feature"] == -1)[0])
        payload[f"packed_{name}"][0 if name == "threshold" else leaf] = value
        np.savez_compressed(path, **payload)
        with pytest.raises(EnvelopeError, match=f"packed_{name} holds a non-finite"):
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

    @pytest.mark.parametrize("loader", ["surrogate", "distilled"])
    def test_member_header_ending_in_open_bracket(self, loader):
        """numpy re-tokenizes an .npy header that does not parse; one cut
        off inside ``(`` raised tokenize.TokenError past the loaders."""
        header = b"{'descr': '<i8', 'fortran_order': False, 'shape': (3\n"
        npy = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as archive:
            archive.writestr("surrogate_kind.npy", npy)
        load = {"surrogate": load_surrogate, "distilled": load_distilled}[loader]
        with pytest.raises(EnvelopeError, match="corrupt or foreign file"):
            load(io.BytesIO(buf.getvalue()))

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


#: Feature count of the rows every saved model below is fitted on.
_WIDTH = 4


def _saved_models() -> "dict[str, bytes]":
    """A saved model of each surrogate kind, all fitted on the same rows."""
    r = np.random.default_rng(5)
    X = np.round(r.random((40, _WIDTH)), 2)
    y = r.random(40)
    models = {"forest": RandomForestRegressor(n_estimators=4, seed=5).fit(X, y)}
    for kind in ("gp", "select", "stack"):
        models[kind] = make_surrogate(kind, rng=np.random.default_rng(5)).fit(X, y)
    saved = {}
    for kind, model in models.items():
        buf = io.BytesIO()
        save_surrogate(model, buf)
        saved[kind] = buf.getvalue()
    return saved


def _payload(blob: bytes) -> "dict[str, np.ndarray]":
    with np.load(io.BytesIO(blob)) as data:
        return {key: data[key] for key in data.files}


_SAVED = _saved_models()
_PAYLOADS = {kind: _payload(blob) for kind, blob in _SAVED.items()}
_N_NODES = len(_PAYLOADS["forest"]["packed_feature"])

#: The keys a mutation may change: the forest's node arrays, offsets and
#: feature count, and every key but the two stamps of the other kinds.
_MUTABLE = {
    kind: [key for key in payload if key not in ("surrogate_kind", "surrogate_schema")]
    for kind, payload in _PAYLOADS.items()
}
_MUTABLE["forest"] = [f"packed_{name}" for name in FIELDS] + ["offsets", "n_features"]

#: Entries a mutation writes into an array: ids at and around every
#: boundary a traversal relies on, huge and negative ids, and non-finite
#: floats.
_ODD_VALUES = st.sampled_from(
    [0, 1, -1, -2, 2, 3, _N_NODES - 1, _N_NODES, _N_NODES + 1, 10**9, -(10**9),
     0.5, np.nan, np.inf, -np.inf]
)


#: Whole envelopes to damage, with the loader that reads each: the saved
#: forest, and a committed zoo workload (its model) when present.
_DAMAGEABLE = {"forest": (_SAVED["forest"], load_surrogate)}
if zoo_dir() is not None:
    _DAMAGEABLE["zoo"] = (
        (zoo_dir() / "kripke-forest.npz").read_bytes(),
        lambda file: load_distilled(file).model,
    )
_LONGEST = max(len(blob) for blob, _ in _DAMAGEABLE.values())


def _load_or_predict(blob: bytes, load=load_surrogate, finite=False) -> None:
    """``load`` either refuses ``blob`` with EnvelopeError or returns a
    model that predicts on a query with its own feature count (the
    forest's ``n_features_``, else the width the models were fitted at):
    one value per row, and finite ones if ``finite``."""
    try:
        # A mutated float array cast to node ids may hold NaN.
        with np.errstate(invalid="ignore"):
            model = load(io.BytesIO(blob))
    except EnvelopeError as exc:
        assert "<in-memory bytes>: cannot load as" in str(exc)
        return
    Q = np.random.default_rng(0).random((9, getattr(model, "n_features_", _WIDTH)))
    mu = model.predict(Q)
    mu_u, sd = model.predict_with_uncertainty(Q)
    assert mu.shape == mu_u.shape == sd.shape == (9,)
    if finite:
        assert np.isfinite(np.stack([mu, mu_u, sd])).all()


@st.composite
def _mutated_archives(draw, kind: str = "forest") -> bytes:
    """A saved model of ``kind`` with one to three of its :data:`_MUTABLE`
    keys changed inside an otherwise valid archive: an entry set to an
    odd value, or the array truncated, reshaped, cast to float or made
    0-d."""
    payload = {key: arr.copy() for key, arr in _PAYLOADS[kind].items()}
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(_MUTABLE[kind]))
        arr = payload[key]
        how = draw(st.sampled_from(["set", "truncate", "reshape", "float", "0-d"]))
        if key == "n_features":
            payload[key] = np.asarray(draw(st.integers(-1, 12)))
        elif how == "set" and arr.size:
            i = draw(st.integers(0, arr.size - 1))
            value = draw(_ODD_VALUES)
            if arr.dtype.kind in "iu" and not np.isfinite(value):
                value = -1
            # astype wraps a value into a nested envelope's uint8 range.
            arr.reshape(-1)[i] = np.asarray(value).astype(arr.dtype)
        elif how == "truncate":
            payload[key] = arr.reshape(-1)[: draw(st.integers(0, arr.size))]
        elif how == "reshape" and arr.size % 2 == 0:
            payload[key] = arr.reshape(2, -1)
        elif how == "float" and arr.dtype.kind in "biuf":
            payload[key] = arr.astype(np.float64) + 0.25
        elif how == "0-d" and arr.size:
            payload[key] = arr.reshape(-1)[draw(st.integers(0, arr.size - 1))].copy()
    buf = io.BytesIO()
    np.savez_compressed(buf, **payload)
    return buf.getvalue()


class TestEnvelopeBytesProperty:
    """Malformed forest envelopes and distilled archives, whether the bytes
    or the arrays inside are damaged, load as EnvelopeError or as a model
    that predicts (finite values, when the arrays are changed) — never as
    another exception or a crash, in either kernel mode."""

    @given(
        source=st.sampled_from(sorted(_DAMAGEABLE)),
        cut=st.integers(0, _LONGEST),
        flips=st.lists(
            st.tuples(st.integers(0, _LONGEST - 1), st.integers(0, 7)),
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
    def test_damaged_bytes(self, kernel_mode, source, cut, flips, truncate):
        saved, load = _DAMAGEABLE[source]
        blob = bytearray(saved)
        for pos, bit in flips:
            blob[pos % len(blob)] ^= 1 << bit
        cut %= len(blob) + 1
        _load_or_predict(bytes(blob[:cut] if truncate else blob), load)

    @given(blob=_mutated_archives())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_arrays(self, kernel_mode, blob):
        _load_or_predict(blob, finite=True)

    @pytest.mark.parametrize("kind", ["gp", "select", "stack"])
    @given(data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_model_arrays(self, kind, data):
        """The GP and the meta-surrogates refuse a changed key or load as a
        model whose predictions are finite."""
        _load_or_predict(data.draw(_mutated_archives(kind)), finite=True)


def _swap_blobs(payload):
    payload["member_0_blob"], payload["member_1_blob"] = (
        payload["member_1_blob"], payload["member_0_blob"])


def _flip_chosen(payload):
    other = {"forest": "gp", "gp": "forest"}[str(payload["chosen"])]
    payload["chosen"] = np.asarray(other)


class TestOneConfiguration:
    """Each family is fitted in one configuration; an envelope that records
    another, or nests the wrong families, is refused at load."""

    @pytest.mark.parametrize(
        "kind, change",
        [
            ("gp", {"log_targets": np.asarray(False)}),
            ("select", {"candidates": np.asarray(("gp", "forest"))}),
            ("select", {"k_folds": np.asarray(2)}),
            ("select", {"cv_names": np.asarray(("forest",)),
                        "cv_rmse": np.asarray((0.5,))}),
            ("select", _flip_chosen),
            ("stack", {"members": np.asarray(("forest", "gp", "gp"))}),
            ("stack", {"k_folds": np.asarray(4)}),
            ("stack", {"weights": np.asarray((0.5, 0.25, 0.25))}),
            ("stack", _swap_blobs),
        ],
        ids=["gp-raw-targets", "select-candidates", "select-folds",
             "select-cv-short", "select-chosen-blob", "stack-members",
             "stack-folds", "stack-weights", "stack-blob-order"],
    )
    def test_refused_at_load(self, kind, change):
        payload = dict(_PAYLOADS[kind])
        if callable(change):
            change(payload)
        else:
            payload.update(change)
        buf = io.BytesIO()
        np.savez(buf, **payload)
        with pytest.raises(EnvelopeError):
            load_surrogate(io.BytesIO(buf.getvalue()))
