from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debell.asymptotics import (
    _excess_partitions,
    bell_asymptotic_estimate,
    expansion,
    w_explicit,
    w_from_base,
)
from debell.bell import bell_lambda1, lambda1_sums
from debell.exact import ParamSet, binomial, falling
from debell.series import TruncatedSeries


def partition_count(n, k):
    # independent recurrence p(n,k) = p(n-1,k-1) + p(n-k,k)
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0:
        return 0
    return partition_count(n - 1, k - 1) + partition_count(n - k, k)


class TestExcessPartitions:
    def test_hand_cases(self):
        assert set(_excess_partitions(4, 4)) == {
            ((4, 1),), ((3, 1), (1, 1)), ((2, 2),), ((2, 1), (1, 2)), ((1, 4),)
        }
        assert _excess_partitions(0, 0) == ((),)
        assert _excess_partitions(3, 1) == (((1, 3),),)  # parts of at most 1

    def test_each_partition_of_f_once(self):
        for f in range(11):
            parts = _excess_partitions(f, f)
            assert len(set(parts)) == len(parts) == sum(partition_count(f, k) for k in range(f + 1))
            for excess in parts:
                assert sum(part * k for part, k in excess) == f
                assert all(k >= 1 for _, k in excess)
                parts_in_order = [part for part, _ in excess]
                assert parts_in_order == sorted(set(parts_in_order), reverse=True)


def _numerators(b) -> list:
    """The EGF numerators c_i = i! b_i of an ordinary base b, as the code takes it."""
    return [factorial(i) * v for i, v in enumerate(b)]


def _w_oracle(b, n: int, f: int) -> Fraction:
    """W(n, f) off the series route, over no partition list: n! [t^n] g^(n-f) /
    ((n-f)! n!), with g = sum_{i>=1} b_i t^i, b_i = c_i / i! the ordinary base."""
    g = TruncatedSeries([0] + _numerators(b)[1 : n + 1])
    return Fraction(g.pow_int(n - f).egf_coeff(n), factorial(n - f) * factorial(n))


@st.composite
def w_cases(draw):
    n = draw(st.integers(1, 10))
    rest = draw(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=n, max_size=n))
    return [Fraction(draw(st.sampled_from((0, 1))))] + rest, n, draw(st.integers(0, n - 1))


def _w_explicit_oracle(b, n, f):
    # the expanded forms term by term in Fractions, as written before the
    # integer sum: 1/(head! (n-excess)!) * b1^(n-excess) * factors
    def term(head, excess, *factors):
        if n - excess < 0:
            return Fraction(0)
        out = Fraction(1, factorial(head) * factorial(n - excess))
        out *= b[1] ** (n - excess)
        for fac in factors:
            out *= fac
        return out

    if f == 0:
        return term(0, 0)
    if f == 1:
        return term(0, 2, b[2])
    if f == 2:
        return term(0, 3, b[3]) + term(2, 4, b[2] ** 2)
    if f == 3:
        return term(0, 4, b[4]) + term(0, 5, b[2] * b[3]) + term(3, 6, b[2] ** 3)
    if f == 4:
        return (
            term(0, 5, b[5])
            + term(2, 6, b[3] ** 2)
            + term(2, 7, b[2] ** 2 * (b[1] / 6))
            + term(4, 8, b[2] ** 4)
            + term(2, 6, b[2] * b[4])
        )
    return (
        term(0, 6, b[6])
        + term(0, 7, b[2] * b[5])
        + term(0, 7, b[4] * b[3])
        + term(2, 8, b[2] ** 2)
        + term(2, 8, b[2] * b[3] ** 2)
        + term(3, 9, b[2] ** 3 * b[3])
        + term(5, 10, b[2] ** 5)
    )


@st.composite
def w_explicit_cases(draw):
    base = draw(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=7, max_size=7))
    return base, draw(st.integers(0, 10)), draw(st.integers(0, 5))


class TestWCoefficients:
    @given(w_explicit_cases())
    def test_explicit_matches_term_by_term_oracle(self, case):
        b, n, f = case
        w = w_explicit(_numerators(b), n, f)
        assert type(w) is Fraction
        assert w == _w_explicit_oracle(b, n, f)

    @given(w_cases())
    def test_matches_factor_by_factor_oracle(self, case):
        b, n, f = case  # b_0 is 1 or 0; W(n, f) never reads it
        w = w_from_base(_numerators(b), n, f)
        assert type(w) is Fraction
        assert w == _w_oracle(b, n, f)

    def test_all_ones_base_formula(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 0)
        b1 = bell_lambda1(1, p)
        b = lambda1_sums(7, p)
        for n in range(1, 8):
            assert w_from_base(b, n, 0) == b1**n / factorial(n)

    def test_derivative_kills_first_coefficient(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 0)
        assert w_from_base(lambda1_sums(1, p), 1, 0) == 0  # the base has c_1 = gamma = 0 here

    def test_explicit_matches_generic_up_to_f3(self):
        for p in [
            ParamSet.make(0, 1, 1, 1, 1, 0),
            ParamSet.make(0, 1, 2, 2, 1, 1),
            ParamSet.make(1, 2, 2, 1, 1, 2),
            ParamSet.make(2, 4, 0, 2, 1, 0),
        ]:
            b = lambda1_sums(12, p)
            for f in range(4):
                for n in range(f + 1, 13):
                    assert w_from_base(b, n, f) == w_explicit(b, n, f), (p, f, n)

    def test_expanded_f4_f5_divergence_is_stable(self):
        # frozen from the first oracle run: where the expanded f=4 and f=5
        # forms stop matching the generic partition sum
        b = lambda1_sums(12, ParamSet.make(0, 1, 1, 1, 1, 0))
        agree4 = [n for n in range(5, 13) if w_from_base(b, n, 4) == w_explicit(b, n, 4)]
        agree5 = [n for n in range(6, 13) if w_from_base(b, n, 5) == w_explicit(b, n, 5)]
        assert agree4 == [5]
        assert agree5 == [6, 7]

    def test_bounds(self):
        b = lambda1_sums(6, ParamSet.make(0, 1, 1, 1, 1, 0))
        with pytest.raises(ValueError):
            w_from_base(b, 3, 3)
        with pytest.raises(ValueError):
            w_explicit(b, 4, 6)
        for n, f in ((-1, 3), (4, -1)):
            with pytest.raises(ValueError, match="n and f must be nonnegative"):
                w_explicit(b, n, f)
        # W(5, 3) reads b_0..b_4
        with pytest.raises(ValueError, match="base sequence too short"):
            w_from_base((1, Fraction(1, 2)), 5, 3)
        with pytest.raises(ValueError, match="base sequence too short"):
            w_explicit((1, Fraction(1, 2)), 5, 3)


class TestBaseSequence:
    def test_lambda1_sums_values(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 0)
        c = lambda1_sums(4, p)
        assert c[0] == 1
        for i in range(5):
            assert c[i] == bell_lambda1(i, p)


class TestHsuExpansion:
    """``expansion``: the partial sum sum_{f<=m} (delta)_{n-f} W(n, f)."""

    def test_first_order_is_exact(self):
        base = (1, Fraction(5, 3), 2)
        for delta in (7, 100, Fraction(13, 2)):
            assert expansion(base, delta, 1, 0) == delta * base[1]

    def test_geometric_base_full_order_identity(self):
        # 1/(1-t) = sum i! t^i / i!: [t^n] (1-t)^-delta = (delta+n-1)_n / n!
        base = tuple(factorial(i) for i in range(9))
        for n in range(1, 7):
            for delta in (7, 19, 101, Fraction(15, 2)):
                expected = falling(delta + n - 1, n) / factorial(n)
                value = expansion(base, delta, n, n - 1)
                assert type(value) is Fraction and value == expected
                if isinstance(delta, int):
                    assert expected == binomial(delta + n - 1, n)

    def test_preconditions(self):
        base = (1,) * 5
        with pytest.raises(ValueError):
            expansion(base, 10, 0, 0)
        with pytest.raises(ValueError):
            expansion(base, 10, 3, 3)
        with pytest.raises(ValueError):
            expansion(base, 10, 5, 1)  # base only reaches index 4

    @given(
        st.integers(min_value=20, max_value=200),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_falling_factorial_bridge(self, delta, n, f):
        # (delta)_n / (delta-n+f)_f == (delta)_{n-f}, the step between the
        # ratio form and the weighted-sum form of the expansion
        if f <= n:
            assert falling(delta, n) / falling(delta - n + f, f) == falling(delta, n - f)


class TestBellEstimate:
    def test_first_order_exact(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 0)
        for delta in (10, 100, 1000):
            cmp = bell_asymptotic_estimate(1, 0, delta, p)
            assert cmp.rel_error == 0
            assert cmp.estimate == cmp.exact == delta

    def test_full_order_is_a_finite_identity(self):
        # m = n-1 reproduces the exact scaled value for any unit-constant
        # base: the expansion is a terminating partition identity
        for p in [ParamSet.make(0, 1, 1, 1, 1, 0), ParamSet.make(1, 2, 2, 2, 1, 0)]:
            for n in (2, 3, 4):
                for delta in (50, 100):
                    cmp = bell_asymptotic_estimate(n, n - 1, delta, p)
                    assert cmp.status == "ok" and cmp.rel_error == 0

    def test_truncated_error_regression(self):
        # frozen from the first oracle run at (alpha,beta,gamma,x) = (0,1,1,1),
        # r = 0, n = 4, m = 2: the one-term truncation error per delta
        p = ParamSet.make(0, 1, 1, 1, 1, 0)
        observed = [bell_asymptotic_estimate(4, 2, d, p).rel_error for d in (100, 1000, 10000)]
        assert observed == [
            Fraction(1, 19315),
            Fraction(11, 201204605),
            Fraction(1, 18192731455),
        ]
        assert observed[0] > observed[1] > observed[2]

    def test_exact_zero_status(self):
        # r >= 1 makes the base start at 0 and the scaled exact value vanish
        p = ParamSet.make(0, 1, 0, 1, 1, 1)
        cmp = bell_asymptotic_estimate(1, 0, 100, p)
        assert cmp.status == "exact-zero"
        assert cmp.exact == 0 and cmp.rel_error is None
        assert cmp.estimate != 0

    def test_delta_validation(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            bell_asymptotic_estimate(4, 2, 3, p)  # delta below n
        with pytest.raises(ValueError):
            bell_asymptotic_estimate(4, 4, 100, p)  # m past n-1
