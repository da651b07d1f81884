"""Distilled surrogate workloads: round trip, determinism, typed failures.

The envelope contract under test (DESIGN.md §2j): a distilled workload is
one ``.npz`` holding a surrogate envelope plus the ``workload_meta`` JSON
blob (space, noise, provenance).  The frozen surface must be bit-stable —
across save/load, across processes, and across ``jobs`` — and anything
unreadable must fail with a typed :class:`~repro.envelope.EnvelopeError`,
never a raw ``zipfile``/``KeyError`` traceback.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api
from repro.envelope import EnvelopeError
from repro.noise import MeasurementProtocol
from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    ParameterSpace,
    space_from_dict,
    space_to_dict,
)
from repro.space.serialize import MAX_INTEGER_VALUES
from repro.workloads import (
    SurrogateBenchmark,
    distill_workload,
    get_benchmark,
    load_distilled,
    save_distilled,
)
from repro.workloads.surrogate import zoo_dir


@pytest.fixture(scope="module")
def distilled():
    return distill_workload(
        get_benchmark("atax"), surrogate="forest", budget=150, seed=11,
        n_estimators=6,
    )


@pytest.fixture(scope="module")
def envelope_path(distilled, tmp_path_factory):
    path = tmp_path_factory.mktemp("distill") / "atax.npz"
    save_distilled(distilled, path)
    return path


class TestRoundTrip:
    def test_surface_is_bit_identical_after_reload(self, distilled, envelope_path):
        loaded = load_distilled(envelope_path)
        X = distilled.space.sample_encoded(np.random.default_rng(0), 64)
        np.testing.assert_array_equal(
            distilled.true_times_encoded(X), loaded.true_times_encoded(X)
        )

    def test_space_and_noise_survive(self, distilled, envelope_path):
        loaded = load_distilled(envelope_path)
        assert loaded.name == distilled.name == "atax-forest"
        assert loaded.protocol == distilled.protocol
        source = get_benchmark("atax").space
        assert [p.name for p in loaded.space.parameters] == [
            p.name for p in source.parameters
        ]
        assert loaded.space.size() == source.size()

    def test_distillation_is_deterministic(self, distilled):
        again = distill_workload(
            get_benchmark("atax"), surrogate="forest", budget=150, seed=11,
            n_estimators=6,
        )
        a, b = io.BytesIO(), io.BytesIO()
        save_distilled(distilled, a)
        save_distilled(again, b)
        assert a.getvalue() == b.getvalue()

    def test_resave_after_load_is_byte_stable(self, envelope_path):
        buf = io.BytesIO()
        save_distilled(load_distilled(envelope_path), buf)
        assert buf.getvalue() == envelope_path.read_bytes()

    def test_provenance_stamped(self, distilled):
        prov = distilled.provenance
        assert prov["source"] == "atax"
        assert prov["budget"] == 150
        assert prov["noise_mode"] == "protocol"
        assert prov["fit_rmse_log"] >= 0.0
        assert prov["source_protocol"]["n_repeats"] == 35

    def test_registry_prefix_resolves_the_file(self, envelope_path):
        b = get_benchmark(f"surrogate:{envelope_path}")
        assert isinstance(b, SurrogateBenchmark)
        assert b.name == "atax-forest"

    def test_plain_surrogate_loader_reads_the_superset(self, envelope_path):
        from repro.forest.serialize import load_forest
        from repro.surrogate import load_surrogate

        model = load_surrogate(str(envelope_path))
        assert model.kind == "forest"
        forest = load_forest(str(envelope_path))
        X = np.zeros((3, forest.trees_[0].n_features_))
        assert np.isfinite(forest.predict(X)).all()


class TestNoiseModes:
    def test_protocol_mode_scales_sigma_by_sqrt_repeats(self, distilled):
        source = get_benchmark("atax").protocol
        assert distilled.protocol.n_repeats == 1
        assert distilled.protocol.outlier_prob == 0.0
        assert distilled.protocol.noise_sigma == pytest.approx(
            source.noise_sigma / np.sqrt(source.n_repeats)
        )

    def test_none_mode_is_exact(self):
        d = distill_workload(
            get_benchmark("atax"), budget=80, seed=1, n_estimators=4, noise="none"
        )
        assert d.protocol.is_exact
        X = d.space.sample_encoded(np.random.default_rng(2), 16)
        np.testing.assert_array_equal(
            d.evaluate_batch(X, np.random.default_rng(0)),
            d.true_times_encoded(X),
        )

    def test_exact_mode_copies_the_source_protocol(self):
        d = distill_workload(
            get_benchmark("atax"), budget=80, seed=1, n_estimators=4, noise="exact"
        )
        assert d.protocol == get_benchmark("atax").protocol

    def test_residual_mode_fits_campaign_residuals(self):
        d = distill_workload(
            get_benchmark("atax"), budget=80, seed=1, n_estimators=4,
            noise="residual",
        )
        assert d.protocol.n_repeats == 1
        assert 0.0 <= d.protocol.noise_sigma < 2.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="noise mode"):
            distill_workload(get_benchmark("atax"), budget=80, noise="psychic")


class TestTypedFailures:
    def test_missing_file(self, tmp_path):
        with pytest.raises(EnvelopeError, match="file not found"):
            load_distilled(tmp_path / "ghost.npz")

    def test_truncated_archive(self, tmp_path, envelope_path):
        stump = tmp_path / "cut.npz"
        stump.write_bytes(envelope_path.read_bytes()[:100])
        with pytest.raises(EnvelopeError, match="distilled-workload"):
            load_distilled(stump)

    def test_garbage_bytes(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"this was never an archive")
        with pytest.raises(EnvelopeError, match="distilled-workload"):
            load_distilled(junk)

    def test_plain_surrogate_envelope_is_not_a_workload(self, tmp_path, distilled):
        from repro.surrogate import save_surrogate

        path = tmp_path / "bare.npz"
        save_surrogate(distilled.model, path)
        with pytest.raises(EnvelopeError, match="workload_meta"):
            load_distilled(path)

    def test_corrupt_metadata(self, tmp_path, envelope_path):
        data = dict(np.load(envelope_path))
        data["workload_meta"] = np.asarray('{"name": "x"}')  # no space/noise
        bad = tmp_path / "nospace.npz"
        np.savez_compressed(bad, **data)
        with pytest.raises(EnvelopeError, match="corrupt workload_meta"):
            load_distilled(bad)

    def test_future_schema_rejected(self, tmp_path, envelope_path):
        data = dict(np.load(envelope_path))
        data["workload_schema"] = np.asarray(99)
        future = tmp_path / "future.npz"
        np.savez_compressed(future, **data)
        with pytest.raises(EnvelopeError, match="workload schema 99"):
            load_distilled(future)

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            distill_workload(get_benchmark("atax"), budget=1)


#: A committed zoo envelope, read once: the archive the mutations start from.
with np.load(zoo_dir() / "atax-forest.npz") as _zoo:
    _ZOO_PAYLOAD = dict(_zoo)

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2),
)


def _paths(node, prefix=()):
    """The key/index path of every value in a parsed JSON document."""
    yield prefix
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _load_mutated(**arrays):
    """Load the zoo envelope with ``arrays`` replacing its own."""
    buf = io.BytesIO()
    np.savez(buf, **dict(_ZOO_PAYLOAD, **arrays))
    buf.seek(0)
    return load_distilled(buf)


def _meta_with(path, value):
    meta = json.loads(str(_ZOO_PAYLOAD["workload_meta"]))
    *parents, last = path
    node = meta
    for key in parents:
        node = node[key]
    node[last] = value
    return np.asarray(json.dumps(meta))


class TestMutatedEnvelopes:
    """A distilled envelope whose ``workload_meta`` or ``workload_schema``
    is damaged inside a valid archive gives an :class:`EnvelopeError` or a
    workload that evaluates, never another exception."""

    @pytest.mark.parametrize(
        "arrays",
        [
            {"workload_schema": np.asarray([1, 1])},
            {"workload_schema": np.asarray("one")},
            {"workload_schema": np.asarray(1.0)},
            {"workload_meta": _meta_with(("space", "parameters", 0), 7)},
            {"workload_meta": _meta_with(("time_floor",), "tiny")},
            {"workload_meta": _meta_with(("time_floor",), float("nan"))},
            {"workload_meta": _meta_with(("noise", "n_repeats"), 10**12)},
            {"workload_meta": _meta_with(("space", "parameters", 3, "high"), 10**12)},
            {"workload_meta": _meta_with(("space", "parameters", 3, "high"), 1e400)},
            {"workload_meta": _meta_with(("space", "schema"), float("inf"))},
            {"workload_meta": _meta_with(("space", "parameters", 0, "values"), {"a": 1})},
            {"workload_meta": _meta_with(("provenance",), [1])},
            {"workload_meta": np.asarray("[]")},
        ],
        ids=["schema-list", "schema-text", "schema-float", "parameter-not-object",
             "floor-text", "floor-nan", "huge-repeats", "huge-range",
             "infinite-bound", "infinite-space-schema", "ordinal-object",
             "provenance-list", "meta-list"],
    )
    def test_malformed_meta_is_an_envelope_error(self, arrays):
        with pytest.raises(EnvelopeError, match="distilled-workload"):
            _load_mutated(**arrays)

    def test_space_that_does_not_fit_the_model(self):
        meta = json.loads(str(_ZOO_PAYLOAD["workload_meta"]))
        del meta["space"]["parameters"][-1]
        with pytest.raises(EnvelopeError, match="do not fit the model"):
            _load_mutated(workload_meta=np.asarray(json.dumps(meta)))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_meta_or_schema_is_typed_or_evaluates(self, data):
        meta = json.loads(str(_ZOO_PAYLOAD["workload_meta"]))
        how = data.draw(st.sampled_from(["replace", "delete", "schema", "text"]))
        if how == "schema":
            value = data.draw(st.one_of(JSON_SCALARS, st.lists(st.integers(-3, 3))))
            arrays = {"workload_schema": np.asarray(value)}
        elif how == "text":
            text = str(_ZOO_PAYLOAD["workload_meta"])
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 4))
            arrays = {"workload_meta": np.asarray(
                text[:at] + data.draw(st.text(max_size=3)) + text[at + cut:]
            )}
        else:
            paths = list(_paths(meta))[1:]
            path = data.draw(st.sampled_from(paths))
            *parents, last = path
            node = meta
            for key in parents:
                node = node[key]
            if how == "delete":
                del node[last]
            else:
                node[last] = data.draw(JSON_VALUES)
            arrays = {"workload_meta": np.asarray(json.dumps(meta))}
        try:
            bench = _load_mutated(**arrays)
        except EnvelopeError:
            return
        rng = np.random.default_rng(0)
        y = bench.evaluate_batch(bench.space.sample_encoded(rng, 4), rng)
        assert y.shape == (4,) and y.dtype == np.float64


#: The scalars JSON itself has.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
#: Categorical values: JSON scalars, lists of them (which JSON keeps),
#: and tuples and integer-keyed dicts (which it reads back as lists and
#: string-keyed dicts).
_CATEGORIES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.tuples(_JSON_SCALARS, _JSON_SCALARS),
    st.dictionaries(
        st.one_of(st.text(max_size=2), st.integers(-2, 2)), _JSON_SCALARS,
        max_size=2,
    ),
)


@st.composite
def _spaces(draw):
    """A space of one to five parameters of any kind."""
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1,
                          max_size=5, unique=True))
    params = []
    for name in names:
        kind = draw(st.sampled_from(["boolean", "categorical", "integer", "ordinal"]))
        if kind == "boolean":
            params.append(BooleanParameter(name))
        elif kind == "categorical":
            categories = draw(st.lists(_CATEGORIES, min_size=1, max_size=4,
                                       unique_by=repr))
            params.append(CategoricalParameter(name, categories))
        elif kind == "integer":
            low = draw(st.integers(-(2**40), 2**40))
            step = draw(st.integers(1, 1000))
            n = draw(st.integers(1, MAX_INTEGER_VALUES))
            params.append(IntegerParameter(name, low, low + (n - 1) * step, step))
        else:
            values = draw(st.lists(
                st.one_of(st.integers(-(2**53), 2**53),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=5, unique_by=float,
            ))
            params.append(OrdinalParameter(name, sorted(values)))
    return ParameterSpace(params)


def _same(a, b) -> bool:
    """Equal, with the same types at every level."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    return a == b


class TestSpaceSerialization:
    @settings(max_examples=150, deadline=None)
    @given(space=_spaces())
    def test_json_round_trip_keeps_every_value_or_refuses(self, space):
        """``space_to_dict`` refuses a space, or the JSON round trip gives
        back the same names, kinds and values, types included; a space
        whose values are JSON scalars and lists of them is never refused."""
        try:
            payload = space_to_dict(space)
        except ValueError:
            assert any(
                isinstance(v, (tuple, dict))
                for p in space.parameters for v in p.values
            )
            return
        rebuilt = space_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.names == space.names
        for p, q in zip(space.parameters, rebuilt.parameters):
            assert type(q) is type(p)
            assert _same(q.values, p.values), p.name

    def test_every_benchmark_space_round_trips(self):
        for name in ("atax", "mm", "kripke", "hypre", "tensor"):
            space = get_benchmark(name).space
            rebuilt = space_from_dict(space_to_dict(space))
            assert [p.name for p in rebuilt.parameters] == [
                p.name for p in space.parameters
            ]
            X = space.sample_encoded(np.random.default_rng(1), 32)
            assert rebuilt.decode(X) == space.decode(X)
            np.testing.assert_array_equal(rebuilt.encode(space.decode(X)), X)

    def test_constrained_space_records_dropped_names(self):
        b = get_benchmark("tensor")
        if not b.space.constraints:
            pytest.skip("tensor space is unconstrained in this build")
        d = distill_workload(b, budget=80, seed=0, n_estimators=4)
        assert d.provenance["constraints_dropped"] == [
            c.name for c in b.space.constraints
        ]
        assert not d.space.constraints


class TestEndToEnd:
    def test_api_run_is_deterministic_and_jobs_invariant(self, envelope_path):
        name = f"surrogate:{envelope_path}"
        kwargs = dict(scale="smoke", seed=3, trials=2)
        serial = repro.api.run(name, "pwu", jobs=1, **kwargs)
        again = repro.api.run(name, "pwu", jobs=1, **kwargs)
        fanned = repro.api.run(name, "pwu", jobs=2, **kwargs)
        assert serial.history.to_dict() == again.history.to_dict()
        assert serial.history.to_dict() == fanned.history.to_dict()

    def test_compare_accepts_distilled_workloads(self, envelope_path):
        result = repro.api.compare(
            f"surrogate:{envelope_path}", ("random", "pwu"),
            scale="smoke", seed=0, trials=1,
        )
        assert set(result.metrics) == {"random", "pwu"}

    def test_api_distill_facade_writes_the_envelope(self, tmp_path):
        out = tmp_path / "facade.npz"
        bench = repro.api.distill(
            "kernel:atax", budget=80, n_estimators=4, out=str(out)
        )
        assert out.exists()
        loaded = load_distilled(out)
        assert loaded.name == bench.name == "atax-forest"
