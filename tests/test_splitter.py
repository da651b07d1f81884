"""Tests for the exact CART split search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest.splitter import Split, best_split, sse


class TestSSE:
    def test_zero_for_constant(self):
        assert sse(np.full(7, 3.0)) == pytest.approx(0.0)

    def test_matches_definition(self, rng):
        y = rng.normal(size=50)
        assert sse(y) == pytest.approx(float(np.sum((y - y.mean()) ** 2)))

    def test_empty_is_zero(self):
        assert sse(np.array([])) == 0.0


class TestBestSplit:
    def test_perfect_separation(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        s = best_split(X, y, np.array([0]))
        assert isinstance(s, Split)
        assert s.feature == 0
        assert 1.0 <= s.threshold < 2.0
        assert s.gain == pytest.approx(sse(y))
        assert s.left_mask.tolist() == [True, True, False, False]

    def test_picks_informative_feature(self, rng):
        X = np.column_stack([rng.random(100), np.linspace(0, 1, 100)])
        y = (X[:, 1] > 0.5).astype(float)
        s = best_split(X, y, np.array([0, 1]))
        assert s.feature == 1

    def test_constant_target_no_split(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        s = best_split(X, np.ones(10), np.array([0]))
        assert s is None

    def test_constant_feature_no_split(self):
        X = np.ones((10, 1))
        y = np.arange(10, dtype=float)
        assert best_split(X, y, np.array([0])) is None

    def test_too_few_samples(self):
        X = np.array([[0.0]])
        assert best_split(X, np.array([1.0]), np.array([0])) is None

    def test_empty_feature_list(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        assert best_split(X, X[:, 0], np.array([], dtype=int)) is None

    def test_threshold_separates_exactly_at_boundary(self, rng):
        # Repeated feature values: the split must fall between distinct values.
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([0.0, 0.0, 4.0, 4.0])
        s = best_split(X, y, np.array([0]))
        assert 1.0 <= s.threshold < 2.0

    def test_gain_never_negative(self, rng):
        for _ in range(20):
            X = rng.random((30, 4))
            y = rng.normal(size=30)
            s = best_split(X, y, np.arange(4))
            if s is not None:
                assert s.gain > 0


@given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
@settings(max_examples=50, deadline=None)
def test_property_split_is_sse_optimal_single_feature(seed, n):
    """The vectorised search must match brute force on one feature."""
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 6, size=n).astype(float)
    y = rng.normal(size=n)
    X = v.reshape(-1, 1)
    s = best_split(X, y, np.array([0]))

    # Brute force over all thresholds between distinct values.
    best = None
    for t in np.unique(v)[:-1]:
        mask = v <= t
        combined = sse(y[mask]) + sse(y[~mask])
        if best is None or combined < best - 1e-12:
            best = combined
    if best is None or sse(y) - best <= 1e-12:
        assert s is None
    else:
        assert s is not None
        achieved = sse(y[s.left_mask]) + sse(y[~s.left_mask])
        assert achieved == pytest.approx(best, abs=1e-9)
