from fractions import Fraction
from itertools import count
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debell.enumeration import r_stirling_count, set_partitions_count
from debell.exact import gen_falling
from debell.stirling import StirlingTable, stirling_egf, stirling_rec

# rational weight triples for route-equality checks; beta != 0 throughout
RATIONAL_TRIPLES = [
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)),
    (Fraction(2), Fraction(-1), Fraction(1, 2)),
    (Fraction(-1, 3), Fraction(2), Fraction(0)),
]


class TestTriangle:
    def test_diagonal_and_edges(self):
        tab = StirlingTable(Fraction(1, 2), Fraction(7, 3), Fraction(-2))
        for n in range(9):
            assert tab.value(n, n) == 1
        assert tab.value(3, -1) == 0
        assert tab.value(3, 4) == 0

    def test_column_zero_is_falling_factorial(self):
        for alpha, beta, gamma in RATIONAL_TRIPLES:
            for n in range(8):
                assert stirling_rec(n, 0, alpha, beta, gamma) == gen_falling(gamma, alpha, n)

    def test_negative_row_rejected(self):
        tab = StirlingTable(0, 1, 0)
        assert tab.row(5) == (0, 1, 15, 25, 10, 1)
        with pytest.raises(ValueError):
            tab.row(-1)
        with pytest.raises(ValueError):
            tab.weighted_sums(range(-2, -1), 1, [1, 1, 1])
        with pytest.raises(ValueError):
            tab.weighted_sums(range(0), 1, [1])

    def test_unrolled_example(self):
        # S(2, 0; 1, beta, 3) = (3|1)_2, whatever beta is
        for beta in (1, 2, Fraction(5, 7)):
            assert stirling_rec(2, 0, 1, beta, 3) == 6

    def test_rows_satisfy_recurrence(self):
        alpha, beta, gamma = Fraction(1, 2), Fraction(3), Fraction(2)
        tab = StirlingTable(alpha, beta, gamma)
        for n in range(8):
            for k in range(n + 2):
                expected = tab.value(n, k - 1) + (k * beta - n * alpha + gamma) * tab.value(n, k)
                assert tab.value(n + 1, k) == expected


def _fraction_triangle_row(alpha, beta, gamma, n):
    """Row n of S(n, k; alpha, beta, gamma) by the recurrence, all in Fraction."""
    row = [Fraction(1)]
    for m in range(n):
        row = [
            (row[k - 1] if k else 0) + ((k * beta - m * alpha + gamma) * row[k] if k <= m else 0)
            for k in range(m + 2)
        ]
    return row


class TestScaledTriangle:
    """The table stores T(n, k) = S^(n-k) S(n, k) as ints, S the lcm of the
    weight denominators, and divides the scale out only in ``value``."""

    @given(
        st.fractions(max_denominator=6),
        st.fractions(max_denominator=6),
        st.fractions(max_denominator=6),
        st.integers(0, 14),
    )
    def test_matches_fraction_recurrence(self, alpha, beta, gamma, n):
        expected = _fraction_triangle_row(alpha, beta, gamma, n)
        tab = StirlingTable(alpha, beta, gamma)
        assert [tab.value(n, k) for k in range(n + 1)] == expected
        s = lcm(alpha.denominator, beta.denominator, gamma.denominator)
        row = tab.row(n)
        assert all(type(t) is int for t in row)
        assert list(row) == [s ** (n - k) * v for k, v in enumerate(expected)]

    def test_worked_rational_scale(self):
        # S = lcm(2, 4, 3) = 12: T(n, k) = 12^(n-k) S(n, k)
        tab = StirlingTable(Fraction(1, 2), Fraction(3, 4), Fraction(-2, 3))
        assert tab.scale == 12
        assert tab.row(1) == (-8, 1)  # 12 * gamma, 1
        assert tab.value(1, 0) == Fraction(-2, 3)
        # S(2, 1) = S(1, 0) + (beta - alpha + gamma) S(1, 1) = 2 gamma + beta - alpha
        assert tab.value(2, 1) == Fraction(-13, 12)
        assert tab.row(2)[1] == -13


class TestWeightedSums:
    """``weighted_sums`` builds the ladder w_k (c S)^k once for n = 0..20, in
    ints even where c S is not integral; each entry equals the one-row read
    range(n, n + 1) and the sum taken in Fraction."""

    WEIGHTS = [3, 0, -1, 2, 5, 0, 7, -4, 1, 2, 6, -2, 0, 1, 9, -5, 3, 4, 0, 8, -1]  # n <= 20

    @pytest.mark.parametrize(
        "triple, c",
        [
            ((0, 1, 0), 2),
            ((Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)), 3),  # S = 2
            ((0, 2, 1), Fraction(3, 2)),
            ((Fraction(1, 3), 1, 0), Fraction(3, 2)),  # S = 3, c S = 9/2
        ],
        ids=["S=1", "S=2", "S=1-rational-c", "S=3-rational-c"],
    )
    def test_every_n_matches_the_scalar_sum(self, triple, c):
        tab, w = StirlingTable(*triple), self.WEIGHTS
        n_max = len(w) - 1
        sums = tab.weighted_sums(range(n_max + 1), c, w)
        assert sums == [tab.weighted_sums(range(n, n + 1), c, w)[0] for n in range(n_max + 1)]
        assert sums == [sum(w[k] * Fraction(c) ** k * tab.value(n, k) for k in range(n + 1))
                        for n in range(n_max + 1)]
        assert [type(v) for v in sums] == [
            int if Fraction(v).denominator == 1 else Fraction for v in sums
        ]
        # the ladder is ints at a rational c S too, so each dot product runs in ints
        assert all(type(v) is int for v in tab._ladder(n_max, c, w)[0])
        # an unbounded weight iterator is read only to k = n_max
        assert (tab.weighted_sums(range(5), c, count(1))
                == tab.weighted_sums(range(5), c, [1, 2, 3, 4, 5]))
        # a range that does not start at row 0 reads the same rows against its own ladder
        assert tab.weighted_sums(range(3, 9), c, w) == sums[3:9]
        # no row, or rows read downward past a ladder built to the last one, is refused
        for rows in (range(4, 4), range(8, 2, -1)):
            with pytest.raises(ValueError):
                tab.weighted_sums(rows, c, w)


class TestRouteEquality:
    def test_rational_grid(self):
        for alpha, beta, gamma in RATIONAL_TRIPLES:
            for n in range(-1, 13):  # with the out-of-triangle indices, which give 0
                for k in range(-1, n + 2):
                    assert stirling_egf(n, k, alpha, beta, gamma) == stirling_rec(
                        n, k, alpha, beta, gamma
                    ), (alpha, beta, gamma, n, k)

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(0, 9),
        st.data(),
    )
    def test_rational_weights_match_triangle(self, alpha, beta, gamma, n, data):
        k = data.draw(st.integers(0, n))
        assert stirling_egf(n, k, alpha, beta, gamma) == stirling_rec(n, k, alpha, beta, gamma)

    def test_beta_zero_only_on_triangle_route(self):
        assert stirling_rec(3, 1, 1, 0, 2) != 0
        with pytest.raises(ValueError):
            stirling_egf(3, 1, 1, 0, 2)


class TestSpecializations:
    def test_classical_against_enumeration(self):
        for n in range(7):
            for k in range(n + 1):
                assert stirling_rec(n, k, 0, 1, 0) == set_partitions_count(n, k)

    def test_classical_hand_values(self):
        assert stirling_egf(3, 2, 0, 1, 0) == 3
        assert stirling_rec(5, 3, 0, 1, 0) == 25

    def test_r_stirling_against_enumeration(self):
        for r in range(4):
            for n in range(7 - r):
                for k in range(n + 1):
                    assert stirling_rec(n, k, 0, 1, r) == r_stirling_count(n, k, r)

    def test_r_stirling_hand_value(self):
        assert stirling_egf(2, 1, 0, 1, 1) == 3

    def test_whitney_recurrence_coefficient(self):
        # at (0, beta, r) the triangle recurrence reduces to weight k*beta + r
        for beta in (2, 3):
            for r in (1, 2):
                rows = {0: [Fraction(1)]}
                for n in range(7):
                    prev = rows[n]
                    rows[n + 1] = [
                        (prev[k - 1] if 1 <= k <= n + 1 else 0)
                        + ((k * beta + r) * prev[k] if k <= n else 0)
                        for k in range(n + 2)
                    ]
                for n in range(8):
                    for k in range(n + 1):
                        assert rows[n][k] == stirling_egf(n, k, 0, beta, r)

    def test_row_sums_are_partition_totals(self):
        for n in range(8):
            total = sum(stirling_rec(n, k, 0, 1, 0) for k in range(n + 1))
            assert total == sum(set_partitions_count(n, k) for k in range(n + 1))

