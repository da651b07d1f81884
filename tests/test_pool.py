"""Tests for DataPool bookkeeping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.space import DataPool


@pytest.fixture
def pool() -> DataPool:
    return DataPool(np.arange(40, dtype=float).reshape(20, 2))


class TestConstruction:
    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            DataPool(np.arange(5.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            DataPool(np.empty((0, 3)))

    def test_matrix_is_immutable(self, pool):
        with pytest.raises(ValueError):
            pool.X[0, 0] = 99.0

    def test_keeps_a_private_copy(self):
        """Writes to the caller's array, or to the base of a view it
        passed, never reach the pool, and the caller's array stays
        writable."""
        base = np.arange(40, dtype=float).reshape(20, 2)
        whole, view = DataPool(base), DataPool(base[5:])
        base[5, 0] = 99.0
        assert whole.X[5, 0] == 10.0 and view.X[0, 0] == 10.0
        assert not whole.X.flags.writeable and whole.X.flags.c_contiguous


class TestBitmapIndex:
    @staticmethod
    def _members(index, j, n):
        words = index.bits[j].astype("<u8").view(np.uint8)
        return np.flatnonzero(np.unpackbits(words, bitorder="little")[:n])

    def test_bitsets_hold_the_rows_at_or_below_each_level(self):
        r = np.random.default_rng(3)
        n = 200
        X = r.choice([-np.inf, -2.5, -0.0, 0.0, 1.0, 7.25, np.inf], size=(n, 4))
        X[:, 1] = r.permutation(np.arange(n) % 150) * 0.5  # 150 levels
        X[r.random(n) < 0.1, 2] = np.nan
        X[:, 3] = np.nan
        index = DataPool(X).bitmap_index()
        assert index.bits.shape == (len(index.levels), 4)
        for f in range(4):
            col = X[:, f]
            levels = index.levels[index.starts[f]:index.starts[f + 1]]
            assert levels.tolist() == np.unique(col[~np.isnan(col)]).tolist()
            for j in range(index.starts[f], index.starts[f + 1]):
                expected = np.flatnonzero(col <= index.levels[j])
                assert self._members(index, j, 4 * 64).tolist() == expected.tolist()
        assert index.starts[2] - index.starts[1] == 150
        assert index.starts[3] == index.starts[4]  # an all-NaN feature

    def test_index_is_built_once(self):
        pool = DataPool(np.arange(12.0).reshape(6, 2) % 3)
        assert pool.bitmap_index() is pool.bitmap_index()
        assert not pool.bitmap_index().bits.flags.writeable

    def test_no_index_once_bitsets_outweigh_the_matrix(self):
        """65 rows take two words per bitset, so the matrix's 2 * 65 * 8
        bytes pay for 65 bitsets: 65 levels are indexed, 66 are not."""
        distinct = np.arange(65.0)
        assert DataPool(np.c_[distinct, np.full(65, np.nan)]).bitmap_index() is not None
        assert DataPool(np.c_[distinct, np.zeros(65)]).bitmap_index() is None
        assert DataPool(np.random.default_rng(0).random((500, 3))).bitmap_index() is None


class TestTake:
    def test_take_returns_rows(self, pool):
        rows = pool.take([3, 5])
        assert np.array_equal(rows, pool.X[[3, 5]])

    def test_take_removes_from_available(self, pool):
        pool.take([0, 1, 2])
        assert pool.n_available == 17
        assert not pool.is_available(1)
        assert 0 not in pool.available_indices()

    def test_double_take_rejected(self, pool):
        pool.take([4])
        with pytest.raises(ValueError, match="already taken"):
            pool.take([4])

    def test_duplicate_in_batch_rejected(self, pool):
        with pytest.raises(ValueError, match="duplicate"):
            pool.take([1, 1])

    def test_out_of_range_rejected(self, pool):
        with pytest.raises(IndexError):
            pool.take([25])
        with pytest.raises(IndexError):
            pool.take([-1])

    def test_empty_take_is_noop(self, pool):
        rows = pool.take([])
        assert rows.shape == (0, 2)
        assert pool.n_available == 20

    def test_indices_stay_global(self, pool):
        pool.take([0, 1])
        rows = pool.take([19])
        assert np.array_equal(rows[0], pool.X[19])


class TestViews:
    def test_available_X_matches_indices(self, pool):
        pool.take([2, 7])
        assert np.array_equal(pool.available_X(), pool.X[pool.available_indices()])

    def test_len_is_available_count(self, pool):
        assert len(pool) == 20
        pool.take([0])
        assert len(pool) == 19

    def test_reset_restores_everything(self, pool):
        pool.take(list(range(10)))
        pool.reset()
        assert pool.n_available == 20


@given(
    picks=st.lists(st.integers(0, 19), min_size=1, max_size=20, unique=True)
)
@settings(max_examples=30, deadline=None)
def test_property_take_conserves_rows(picks):
    """taken ∪ available is always a partition of the pool."""
    pool = DataPool(np.arange(40, dtype=float).reshape(20, 2))
    pool.take(picks)
    remaining = set(pool.available_indices().tolist())
    assert remaining.isdisjoint(picks)
    assert remaining | set(picks) == set(range(20))


#: Column entries for the index properties: both signed zeros, NaN, the
#: infinities and three finite values, few enough that columns repeat.
_ENTRIES = st.sampled_from([-0.0, 0.0, np.nan, np.inf, -np.inf, -2.5, 1.0, 7.25])


@given(
    columns=st.integers(1, 64).flatmap(
        lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
                           min_size=1, max_size=3)
    )
)
@example(columns=[[-0.0]])
@example(columns=[[np.nan, np.nan]])
@example(columns=[[0.0, -0.0, 0.0], [-0.0, 0.0, np.nan]])
@settings(max_examples=200, deadline=None)
def test_property_levels_are_np_unique_bytes(columns):
    """Each feature's levels are ``np.unique`` of its non-NaN values, byte
    for byte: the same zero of ``-0.0`` and ``0.0`` survives, and an
    all-NaN feature has none."""
    X = np.array(columns).T
    index = DataPool(X).bitmap_index()
    for f, col in enumerate(X.T):
        levels = index.levels[index.starts[f]:index.starts[f + 1]]
        assert levels.tobytes() == np.unique(col[~np.isnan(col)]).tobytes()


@given(picks=st.lists(st.integers(0, 19), max_size=8))
@settings(max_examples=100, deadline=None)
def test_property_take_refuses_exactly_the_duplicates(picks):
    """``take`` raises on duplicates exactly when ``np.unique`` would
    shorten the index; empty and one-element takes go through."""
    pool = DataPool(np.arange(40, dtype=float).reshape(20, 2))
    if len(np.unique(picks)) < len(picks):
        with pytest.raises(ValueError, match="duplicate"):
            pool.take(picks)
        assert pool.n_available == 20
    else:
        assert np.array_equal(pool.take(picks), pool.X[picks])
        assert pool.n_available == 20 - len(picks)
