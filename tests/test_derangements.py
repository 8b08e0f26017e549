import pytest

from debell.derangements import (
    derangement,
    r_derangement,
    r_derangement_egf,
    r_derangement_rec,
)
from debell.enumeration import r_derangements_enum


class TestClassical:
    def test_hand_values(self):
        assert derangement(0) == 1
        assert derangement(1) == 0
        assert derangement(4) == 9  # all 24 permutations of [4] checked by the oracle
        assert r_derangements_enum(4, 0) == 9

    def test_known_prefix(self):
        assert [derangement(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derangement(-1)


class TestSeriesRoute:
    def test_vanishes_below_r(self):
        for r in range(1, 4):
            for k in range(r):
                assert r_derangement_egf(k, r) == 0

    def test_hand_values(self):
        assert r_derangement_egf(3, 1) == 9  # the r=1 cycle condition is vacuous
        assert r_derangement_egf(2, 2) == 2

    def test_r_zero_matches_closed_form(self):
        for k in range(9):
            assert r_derangement_egf(k, 0) == derangement(k)

    def test_index_shift_matches_canonical_table(self):
        # t^r is read by shifting the index, k = r (order 0) and k < r included
        for r in range(5):
            for k in range(12):
                value = r_derangement_egf(k, r)
                assert type(value) is int and value == r_derangement(k, r), (k, r)


class TestRecurrence:
    def test_every_pivot_matches_series_route(self):
        for r in range(1, 5):
            for k in range(0, 10 - r):
                expected = r_derangement_egf(k, r)
                for s in range(1, r + 1):
                    assert r_derangement_rec(k, r, s) == expected, (k, r, s)

    def test_hand_value(self):
        assert r_derangement_rec(2, 2, 1) == 2
        assert r_derangement_rec(2, 2, 2) == 2

    def test_base_row_is_classical(self):
        for k in range(8):
            assert r_derangement(k, 0) == derangement(k)

    def test_pivot_bounds(self):
        with pytest.raises(ValueError):
            r_derangement_rec(3, 2, 0)
        with pytest.raises(ValueError):
            r_derangement_rec(3, 2, 3)


class TestOracleAgreement:
    def test_enumeration_matches_formulas(self):
        for r in range(4):
            for k in range(7 - r):
                enum = r_derangements_enum(k, r)
                assert enum == r_derangement_egf(k, r)
                assert enum == r_derangement(k, r)

    def test_nonnegative_integers(self):
        for r in range(4):
            for k in range(9):
                value = r_derangement(k, r)
                assert isinstance(value, int) and value >= 0

