"""Tests for the parameter types."""

import numpy as np
import pytest

from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
)


class TestIntegerParameter:
    def test_values_enumerate_range(self):
        p = IntegerParameter("u", 1, 5)
        assert p.values == (1, 2, 3, 4, 5)

    def test_strided_range(self):
        p = IntegerParameter("u", 0, 10, step=5)
        assert p.values == (0, 5, 10)

    def test_encode_is_identity_on_value(self):
        p = IntegerParameter("u", 1, 31)
        assert p.encode(17) == 17.0

    def test_encode_rejects_out_of_range(self):
        p = IntegerParameter("u", 1, 31)
        with pytest.raises(ValueError, match="admissible"):
            p.encode(32)

    def test_decode_snaps_to_nearest(self):
        p = IntegerParameter("u", 0, 10, step=5)
        assert p.decode(6.9) == 5
        assert p.decode(7.6) == 10
        assert p.decode(-3.0) == 0
        assert p.decode(99.0) == 10

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            IntegerParameter("u", 5, 4)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            IntegerParameter("u", 0, 4, step=0)

    def test_is_not_categorical(self):
        assert not IntegerParameter("u", 0, 3).is_categorical


class TestOrdinalParameter:
    def test_tile_sizes(self):
        p = OrdinalParameter("t", [1, 16, 32, 64])
        assert p.n_values == 4
        assert p.encode(32) == 32.0
        assert p.decode(30.0) == 32

    def test_decode_nearest_value(self):
        p = OrdinalParameter("t", [1, 16, 512])
        assert p.decode(200.0) == 16
        assert p.decode(300.0) == 512

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="ascending"):
            OrdinalParameter("t", [16, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            OrdinalParameter("t", [1, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            OrdinalParameter("t", [])

    @pytest.mark.parametrize(
        "bad",
        [10**400, -(10**400), float("inf"), float("nan"), True, np.bool_(False),
         "8", None],
        ids=["huge-int", "huge-negative-int", "inf", "nan", "bool", "numpy-bool",
             "string", "none"],
    )
    def test_rejects_values_it_cannot_encode(self, bad):
        with pytest.raises(ValueError, match="finite float"):
            OrdinalParameter("t", [1, bad])

    def test_accepts_numpy_numbers(self):
        p = OrdinalParameter("t", [np.int64(1), np.float32(2.5), 2**53])
        assert p.encode(2**53) == float(2**53)

    def test_encode_rejects_non_member(self):
        p = OrdinalParameter("t", [1, 16])
        with pytest.raises(ValueError, match="admissible"):
            p.encode(8)


class TestCategoricalParameter:
    def test_encodes_to_index(self):
        p = CategoricalParameter("layout", ["DGZ", "DZG", "GDZ"])
        assert p.encode("DGZ") == 0.0
        assert p.encode("GDZ") == 2.0

    def test_roundtrip(self):
        p = CategoricalParameter("layout", ["a", "b", "c"])
        for v in p.values:
            assert p.decode(p.encode(v)) == v

    def test_is_categorical(self):
        assert CategoricalParameter("c", ["x"]).is_categorical

    def test_decode_out_of_range_raises(self):
        p = CategoricalParameter("c", ["x", "y"])
        with pytest.raises(ValueError, match="out of range"):
            p.decode(5.0)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CategoricalParameter("c", ["x", "x"])

    @pytest.mark.parametrize(
        "cats", [[1, 1.0, True], [0, False], ["a", 2, 2.0], [[1], [1]]],
        ids=["int-float-bool", "zero-false", "int-float", "unhashable"],
    )
    def test_categories_equal_under_eq_rejected(self, cats):
        with pytest.raises(ValueError, match="duplicate"):
            CategoricalParameter("c", cats)

    def test_unhashable_categories_supported(self):
        p = CategoricalParameter("c", [[1, 2], [2, 1]])
        assert p.encode([2, 1]) == 1.0

    def test_numeric_categories_supported(self):
        # hypre solver ids are numeric but categorical.
        p = CategoricalParameter("solver", [0, 1, 18, 61])
        assert p.encode(18) == 2.0
        assert p.decode(3.0) == 61


class TestBooleanParameter:
    def test_values(self):
        assert BooleanParameter("vec").values == (False, True)

    def test_encode_decode(self):
        p = BooleanParameter("vec")
        assert p.encode(True) == 1.0
        assert p.decode(0.2) is False
        assert p.decode(0.8) is True

    def test_rejects_non_bool(self):
        with pytest.raises(ValueError, match="bool"):
            BooleanParameter("vec").encode(1)


class TestSharedBehaviour:
    def test_sample_respects_values(self, rng):
        p = OrdinalParameter("t", [1, 8, 32])
        draws = p.sample(rng, size=200)
        assert set(draws) <= {1, 8, 32}

    def test_sample_single(self, rng):
        p = IntegerParameter("u", 1, 3)
        assert p.sample(rng) in (1, 2, 3)

    def test_sample_codes_match_encode(self, rng):
        p = CategoricalParameter("c", ["x", "y", "z"])
        codes = p.sample_codes(rng, 100)
        assert set(np.unique(codes)) <= {0.0, 1.0, 2.0}

    def test_sample_covers_all_values(self, rng):
        p = OrdinalParameter("t", [1, 8, 32])
        draws = p.sample_codes(rng, 500)
        assert len(np.unique(draws)) == 3

    def test_index_of_unknown_raises(self):
        p = CategoricalParameter("c", ["x"])
        with pytest.raises(ValueError, match="admissible"):
            p.index_of("nope")

    def test_contains(self):
        p = IntegerParameter("u", 1, 4)
        assert 3 in p
        assert 9 not in p

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            IntegerParameter("", 0, 1)
