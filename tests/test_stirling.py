from fractions import Fraction

import pytest

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


class TestRouteEquality:
    def test_rational_grid(self):
        for alpha, beta, gamma in RATIONAL_TRIPLES:
            for n in range(13):
                for k in range(n + 1):
                    assert stirling_egf(n, k, alpha, beta, gamma) == stirling_rec(
                        n, k, alpha, beta, gamma
                    ), (alpha, beta, gamma, n, k)

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

