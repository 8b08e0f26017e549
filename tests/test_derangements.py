from math import comb

import pytest

from debell.derangements import (
    r_derangement,
    r_derangement_egf,
    r_derangement_rec,
)
from debell.enumeration import r_derangements_enum


class TestClassical:
    def test_hand_values(self):
        assert r_derangement(0, 0) == 1
        assert r_derangement(1, 0) == 0
        assert r_derangement(4, 0) == 9  # all 24 permutations of [4] checked by the oracle
        assert r_derangements_enum(4, 0) == 9

    def test_known_prefix(self):
        assert [r_derangement(n, 0) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            r_derangement(-1, 0)


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
            assert r_derangement_egf(k, 0) == r_derangement(k, 0)

    def test_negative_rejected(self):
        # without the guard, k = -1 would read as 0 (r > k)
        with pytest.raises(ValueError):
            r_derangement_egf(-1, 0)
        with pytest.raises(ValueError):
            r_derangement_egf(2, -1)

    def test_index_shift_matches_canonical_table(self):
        # t^r is read by shifting the index, k = r (order 0) and k < r included
        for r in range(6):
            for k in range(40):
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

    def test_pivot_one_matches_canonical_table(self):
        # the table is the finite sum; the recurrence reads it only at r - 1
        for r in range(1, 5):
            for k in range(12):
                assert r_derangement_rec(k, r, 1) == r_derangement(k, r), (k, r)

    def test_pivot_bounds(self):
        with pytest.raises(ValueError):
            r_derangement_rec(-1, 2, 1)
        with pytest.raises(ValueError):
            r_derangement_rec(3, 2, 0)
        with pytest.raises(ValueError):
            r_derangement_rec(3, 2, 3)


def _convolution_power(k_max: int, r: int, lam: int) -> list:
    """d_lam(k, r) for k = 0..k_max as the lam-fold binomial convolution of d_{., r},
    with d_{., r} read from the series route so the finite sum is checked against
    a route it does not share."""
    base = [r_derangement_egf(k, r) for k in range(k_max + 1)]
    acc = [1] + [0] * k_max  # the empty convolution: the EGF 1
    for _ in range(lam):
        acc = [sum(comb(m, k) * acc[k] * base[m - k] for k in range(m + 1))
               for m in range(k_max + 1)]
    return acc


class TestHigherOrder:
    def test_finite_sum_is_the_convolution_power(self):
        for r in range(4):
            for lam in range(6):
                got = [r_derangement(k, r, lam) for k in range(14)]
                assert all(type(v) is int for v in got)
                assert got == _convolution_power(13, r, lam), (r, lam)

    def test_hand_values(self):
        assert [r_derangement(k, 1, 2) for k in range(8)] == [
            0, 0, 2, 12, 96, 800, 7440, 75936
        ]
        # lam = 0: binomial(-1, 0) = 1 leaves only k = 0
        assert [r_derangement(k, 2, 0) for k in range(4)] == [1, 0, 0, 0]

    @pytest.mark.parametrize("args", [(-1, 0, 1), (2, -1, 1), (2, 1, -1)])
    def test_negative_rejected(self, args):
        with pytest.raises(ValueError):
            r_derangement(*args)


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

