"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

import repro.forest._cgrower as _cgrower
from repro.experiments.config import ExperimentScale
from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    ParameterSpace,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@contextlib.contextmanager
def without_kernel():
    """Run the block as if the C kernel had failed to load: inside it
    ``_cgrower.load()`` returns ``None``, so forests grow reference trees
    and traverse with numpy; on exit the loader's state is restored."""
    saved = _cgrower._lib, _cgrower._attempted
    _cgrower._lib, _cgrower._attempted = None, True
    try:
        yield
    finally:
        _cgrower._lib, _cgrower._attempted = saved


@pytest.fixture(params=["c-kernel", "numpy-fallback"])
def kernel_mode(request):
    """Run each test against both the C kernel and the pure-numpy path."""
    if request.param == "numpy-fallback":
        with without_kernel():
            yield request.param
        return
    if _cgrower.load() is None:
        pytest.skip("C kernel unavailable in this environment")
    yield request.param


@pytest.fixture(scope="session")
def unreadable_member_envelopes(tmp_path_factory) -> dict:
    """A saved forest surrogate whose first archive member ``zipfile``
    refuses to open, by name: one flagged as encrypted (general-purpose
    flag bit 0) and one with an unknown compression method (99).  Each
    patches that member's central-directory entry only."""
    from repro.forest import RandomForestRegressor
    from repro.surrogate import save_surrogate
    from repro.surrogate.adapters import ForestSurrogate

    r = np.random.default_rng(0)
    X, y = r.random((30, 3)), r.random(30)
    root = tmp_path_factory.mktemp("unreadable-members")
    clean = root / "clean.npz"
    save_surrogate(
        ForestSurrogate(RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)),
        str(clean),
    )
    raw = clean.read_bytes()
    entry = raw.index(b"PK\x01\x02")  # the first central-directory entry
    paths = {}
    for kind, offset, value in (
        ("encrypted", 8, int.from_bytes(raw[entry + 8:entry + 10], "little") | 1),
        ("unknown-method", 10, 99),
    ):
        patched = bytearray(raw)
        patched[entry + offset:entry + offset + 2] = value.to_bytes(2, "little")
        paths[kind] = root / f"{kind}.npz"
        paths[kind].write_bytes(bytes(patched))
    return paths


@pytest.fixture
def mixed_space() -> ParameterSpace:
    """A small space exercising every parameter kind."""
    return ParameterSpace(
        [
            OrdinalParameter("tile", [1, 16, 32, 64, 128, 256, 512]),
            IntegerParameter("unroll", 1, 31),
            CategoricalParameter("layout", ["DGZ", "DZG", "GDZ"]),
            BooleanParameter("vec"),
        ]
    )


@pytest.fixture
def tiny_scale() -> ExperimentScale:
    """An experiment scale small enough for unit tests (< 1 s per run)."""
    return ExperimentScale(
        name="tiny",
        pool_size=150,
        test_size=120,
        n_init=8,
        n_batch=1,
        n_max=20,
        n_trials=1,
        eval_every=4,
        n_estimators=8,
    )


@pytest.fixture
def regression_data(rng) -> tuple[np.ndarray, np.ndarray]:
    """A smooth nonlinear regression problem with mild noise."""
    X = rng.random((300, 5))
    y = (
        3.0 * X[:, 0]
        + np.sin(6.0 * X[:, 1])
        + 2.0 * (X[:, 2] > 0.5)
        + rng.normal(0.0, 0.05, 300)
    )
    return X, y
