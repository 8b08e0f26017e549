from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debell.series import TruncatedSeries, binpow

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def truncate(s, order):
    """The first order+1 coefficients of s."""
    return TruncatedSeries(s.egf_coeff(n) for n in range(order + 1))


def derivative(s):
    """Formal derivative; on EGF numerators it is a shift, and the order drops by one."""
    return TruncatedSeries(s.egf_coeff(n) for n in range(1, s.order + 1))


def series_strategy(order, constant=None):
    """Series of the given order whose last 0..order numerators are zero
    (int or Fraction), so polynomials and the unit are drawn as well."""
    head = st.just(constant) if constant is not None else rationals
    dense = st.tuples(head, *([rationals] * order))
    zero = st.sampled_from([0, Fraction(0)])
    return st.tuples(dense, st.integers(0, order), zero).map(
        lambda t: TruncatedSeries(t[0][: order + 1 - t[1]] + (t[2],) * t[1])
    )


def dense_mul(a, b):
    """EGF numerators of a * b with every index summed: the oracle for the
    degree-bounded convolution in ``__mul__``."""
    return [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def dense_log(f):
    """EGF numerators of log f from g_{m+1} = f_{m+1} - sum_{k<m} C(m,k) g_{k+1} f_{m-k},
    every index summed: the oracle for the degree-bounded ``log``."""
    out = [0]
    for m in range(len(f) - 1):
        out.append(f[m + 1] - sum(comb(m, k) * out[k + 1] * f[m - k] for k in range(m)))
    return out


def dense_exp(g):
    """EGF numerators of exp g from h_{m+1} = sum_{k=0}^m C(m,k) g_{k+1} h_{m-k}, term
    by term: the oracle for the paired sum in ``exp``."""
    out = [1]
    for m in range(len(g) - 1):
        out.append(sum(comb(m, k) * g[k + 1] * out[m - k] for k in range(m + 1)))
    return out


def degree(nums) -> int:
    """Index of the last nonzero numerator, -1 for the zero series."""
    return max((n for n, v in enumerate(nums) if v), default=-1)


def dense_times_exp(a, c):
    """EGF numerators of a exp(c t) as Fractions: the ordinary coefficients of a
    times those of exp(c t), c^j / j!, summed term by term and scaled back by n!.
    The oracle for ``times_exp``, which takes shift passes and no binomial."""
    f, e = TruncatedSeries(a).coeffs, [Fraction(c) ** j / factorial(j) for j in range(len(a))]
    return [factorial(n) * sum(f[k] * e[n - k] for k in range(n + 1)) for n in range(len(a))]


def operands(order):
    """Numerator lists at ``order``: the unit, two other constants (an int, and a
    Fraction with a Fraction(0) tail), the zero series (int and Fraction zeros),
    monomials, polynomials of degree 1..3 with int and Fraction coefficients (the
    latter with Fraction(0) tails), and dense series."""
    pad = [0] * order
    yield [1] + pad
    yield [-3] + pad
    yield [Fraction(2, 3)] + [Fraction(0)] * order
    yield [0] + pad
    yield [Fraction(0)] * (order + 1)
    for degree in range(order + 1):
        yield [0] * degree + [(1, -3, Fraction(2, 3))[degree % 3]] + [0] * (order - degree)
    for degree in range(1, min(order, 3) + 1):
        yield ([1, 2, -1, 3][: degree + 1] + pad)[: order + 1]
        yield ([0, 5, 0, -2][: degree + 1] + pad)[: order + 1]
        yield (
            [1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)][: degree + 1]
            + [Fraction(0)] * order
        )[: order + 1]
    yield [n * n - 3 for n in range(order + 1)]
    yield [1] + [Fraction(n, n + 2) for n in range(1, order + 1)]


def assert_matches_oracle(got: TruncatedSeries, want: list):
    """Equal values; where the oracle's numerator is an int, so is the kernel's
    (summing fewer zero terms may only turn a Fraction into an int)."""
    assert got == TruncatedSeries(want)
    for g, w in zip(got._a, want):
        assert type(w) is not int or type(g) is int


class TestRingOps:
    def test_product_of_conjugates(self):
        one_plus = TruncatedSeries([1, 1, 0, 0])
        one_minus = TruncatedSeries([1, -1, 0, 0])
        assert (one_plus * one_minus).coeffs == (1, 0, -1, 0)

    def test_mul_by_one_is_identity(self):
        s = TruncatedSeries([3, Fraction(1, 2), -2, 5])
        assert s * TruncatedSeries.one(3) == s

    def test_scale_by_zero(self):
        s = TruncatedSeries([3, 1, 4])
        assert s.scale(0) == TruncatedSeries([0] * 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            TruncatedSeries(())

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(3) - TruncatedSeries.one(4)
        with pytest.raises(ValueError):
            TruncatedSeries.one(3) * TruncatedSeries.one(2)

    def test_order_mismatch_rejected_before_trimming(self):
        # a sparse operand would be cut to its degree; the orders are compared first
        dense = TruncatedSeries(range(1, 8))
        for sparse in (TruncatedSeries([0] * 4), TruncatedSeries.one(3),
                       TruncatedSeries([0, 2, 0, 0])):
            for a, b in ((sparse, dense), (dense, sparse)):
                with pytest.raises(ValueError, match="order mismatch"):
                    a * b

    def test_mul_matches_dense_oracle(self):
        for order in range(13):
            cases = list(operands(order))
            for a in cases:
                for b in cases:
                    got = TruncatedSeries(a) * TruncatedSeries(b)
                    assert_matches_oracle(got, dense_mul(a, b))

    def test_product_past_the_degree_sum_is_int_zero(self):
        """The convolution stops at index deg a + deg b (0 at a zero operand): past it
        every numerator is an int 0, whatever the operands' types."""
        for order in range(13):
            cases = [f for f in operands(order) if degree(f) != 0]
            for a in cases:
                for b in cases:
                    got = TruncatedSeries(a) * TruncatedSeries(b)
                    top = degree(a) + degree(b) if min(degree(a), degree(b)) >= 0 else 0
                    assert got._a[top + 1 :] == (0,) * (order - top)
                    assert {type(v) for v in got._a[top + 1 :]} <= {int}

    def test_constant_operand_scales_unnarrowed(self):
        """A product of a nonzero b by a constant c is c b_n, value for value and type for
        type, as the convolution's single term gives it: Fraction(2, 3) * 3 stays a Fraction."""
        for order in range(6):
            for c in ([1] + [0] * order, [-3] + [0] * order,
                      [Fraction(2, 3)] + [Fraction(0)] * order):
                for b in filter(any, operands(order)):  # a zero b is the lower-degree operand
                    want = [c[0] * v for v in b]
                    for got in (TruncatedSeries(c) * TruncatedSeries(b),
                                TruncatedSeries(b) * TruncatedSeries(c)):
                        assert got._a == tuple(want)
                        assert list(map(type, got._a)) == list(map(type, want))

    def test_truncate_and_derivative(self):
        s = TruncatedSeries([1, 2, 3, 4])
        # the constructor takes EGF numerators n! c_n
        assert s.coeffs == (1, 2, Fraction(3, 2), Fraction(2, 3))
        assert truncate(s, 1).coeffs == (1, 2)
        assert derivative(s).coeffs == (2, 3, 2)
        with pytest.raises(ValueError):
            truncate(s, 9)

    @given(series_strategy(5), series_strategy(5))
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(series_strategy(4), series_strategy(4), series_strategy(4))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_geometric(self):
        geo = TruncatedSeries([1, -1] + [0] * 5).inverse()
        assert geo.coeffs == (1,) * 7

    def test_inverse_of_one(self):
        assert TruncatedSeries.one(4).inverse() == TruncatedSeries.one(4)

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([0, 1, 2]).inverse()

    # a unit constant term, and ones that ``inverse`` first scales to 1
    invertible = st.sampled_from([Fraction(1), -3, 2, Fraction(2, 3)]).flatmap(
        lambda c: series_strategy(5, constant=c))

    @given(invertible)
    def test_involution(self, a):
        assert a.inverse().inverse() == a

    @given(invertible)
    def test_defining_product(self, a):
        # the product does not go through ``ode``, so it checks ``inverse`` independently
        assert a * a.inverse() == TruncatedSeries.one(5)


class TestExpLog:
    def test_exp_of_zero(self):
        assert TruncatedSeries([0] * 5).exp() == TruncatedSeries.one(4)

    def test_log_of_geometric(self):
        geo = TruncatedSeries([1, -1] + [0] * 4).inverse()
        expected = [Fraction(0)] + [Fraction(1, n) for n in range(1, 6)]
        assert geo.log().coeffs == tuple(expected)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]).exp()
        with pytest.raises(ValueError):
            TruncatedSeries([0, 1]).log()

    def test_log_matches_dense_oracle(self):
        for order in range(13):
            for f in operands(order):
                if f[0] == 1:
                    assert_matches_oracle(TruncatedSeries(f).log(), dense_log(f))

    def test_exp_matches_term_by_term_oracle(self):
        """Orders 0..40 cover odd m and even m, whose middle term has no partner and
        whose half row of binomials C(m, 0..m/2) ends at it; the numerators agree
        value for value and type for type."""
        for order in range(41):
            ints = [0] + [(-1) ** n * (n * n + 1) for n in range(1, order + 1)]
            quotients = [Fraction(0)] + [Fraction(n - 7, n + 2) for n in range(1, order + 1)]
            for g in [ints, quotients, *(f for f in operands(order) if f[0] == 0)]:
                got, want = TruncatedSeries(g).exp()._a, dense_exp(g)
                assert got == tuple(want)
                assert list(map(type, got)) == list(map(type, want))

    @given(series_strategy(5, constant=Fraction(1)))
    def test_exp_log_round_trip(self, a):
        assert a.log().exp() == a

    @given(series_strategy(5, constant=Fraction(0)))
    def test_log_exp_round_trip(self, a):
        assert a.exp().log() == a


def dense_ode(a, b):
    """Ordinary coefficients g_n of the G with G(0) = 1 and a G' = b G, a(0) = 1, as
    Fractions: the t^m coefficient (m+1) g_(m+1) + sum_(k>=1) a_k (m+1-k) g_(m+1-k) =
    sum_k b_k g_(m-k), every index summed.  The oracle for ``ode``, which works on EGF
    numerators with binomials and stops at the degrees."""
    a, b = TruncatedSeries(a).coeffs, TruncatedSeries(b).coeffs
    g = [Fraction(1)]
    for m in range(len(a) - 1):
        rhs = sum(b[k] * g[m - k] for k in range(m + 1))
        rhs -= sum(a[k] * (m + 1 - k) * g[m + 1 - k] for k in range(1, m + 1))
        g.append(rhs / (m + 1))
    return g


def padded_derivative(s):
    """s' at s's own order: the shifted numerators and a 0 where s_(N+1) would be,
    an entry ``ode`` never reads."""
    return TruncatedSeries([*s.egf_coeffs[1:], 0])


@st.composite
def polynomials(draw, constant):
    """Series of order 0..12 that are polynomials of degree 0..order with the given
    constant term, their other coefficients all ints or all Fractions."""
    order = draw(st.integers(0, 12))
    degree = draw(st.integers(0, order))
    coeff = draw(st.sampled_from([st.integers(-9, 9), rationals]))
    tail = draw(st.lists(coeff, min_size=degree, max_size=degree))
    return TruncatedSeries([constant, *tail] + [0] * (order - degree))


class TestOde:
    def test_matches_dense_oracle(self):
        for order in range(13):
            for a in operands(order):
                if a[0] != 1:
                    continue
                for b in operands(order):
                    got = TruncatedSeries(a).ode(TruncatedSeries(b))
                    assert got.coeffs == tuple(dense_ode(a, b))

    def test_geometric(self):
        """(1 - t) G' = G gives 1 / (1 - t), whose numerators are n!."""
        got = TruncatedSeries([1, -1, 0, 0, 0]).ode(TruncatedSeries.one(4))
        assert got == TruncatedSeries([1, 1, 2, 6, 24])

    def test_top_entries_are_never_read(self):
        a, b = TruncatedSeries([1, 2, -1, 0]), TruncatedSeries([3, 0, 1, 0])
        assert a.ode(b) == a.ode(TruncatedSeries([3, 0, 1, 99]))
        assert a.ode(b) == TruncatedSeries([1, 2, -1, 99]).ode(b)

    def test_order_zero(self):
        assert TruncatedSeries([1]).ode(TruncatedSeries([5])) == TruncatedSeries.one(0)

    def test_preconditions(self):
        for constant in (0, 2, -1, Fraction(1, 2)):
            with pytest.raises(ValueError, match="constant term 1"):
                TruncatedSeries([constant, 1, 0]).ode(TruncatedSeries([0, 1, 0]))
        with pytest.raises(ValueError, match="order mismatch"):
            TruncatedSeries([1, 1, 0]).ode(TruncatedSeries([0, 1]))

    @given(polynomials(0))
    def test_unit_a_and_derivative_b_give_exp(self, g):
        assert TruncatedSeries.one(g.order).ode(padded_derivative(g)) == g.exp()

    @given(polynomials(1))
    def test_a_and_minus_its_derivative_give_inverse(self, f):
        """h = f.ode(-f') solves f h' = -f' h, so f h is the unit: checked by the
        product kernel, not by ``inverse``, which is itself a reader of ``ode``."""
        assert f * f.ode(padded_derivative(f).scale(-1)) == TruncatedSeries.one(f.order)


class TestTimesExp:
    def test_matches_dense_oracle(self):
        """Orders 0..12, int and Fraction numerators, positive, zero and negative c."""
        for order in range(13):
            for a in operands(order):
                for c in (-2, -1, 0, 1, 3):
                    got = TruncatedSeries(a).times_exp(c)
                    assert got == TruncatedSeries(dense_times_exp(a, c))
                    if all(type(v) is int for v in a):
                        assert {type(v) for v in got._a} == {int}


class TestPowInt:
    def test_zero_exponent(self):
        s = TruncatedSeries([2, 1, 1])
        assert s.pow_int(0) == TruncatedSeries.one(2)

    def test_matches_repeated_mul(self):
        s = TruncatedSeries([1, 2, -1, Fraction(1, 3), 0])
        assert s.pow_int(3) == s * s * s

    def test_power_past_the_order_is_zero(self):
        t = TruncatedSeries([0, 1, 0, 0, 0])
        assert t.pow_int(5) == TruncatedSeries([0] * 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(2).pow_int(-1)


class TestBinpow:
    def test_exponent_one(self):
        assert binpow(2, 2, 5).coeffs == (1, 2, 0, 0, 0, 0)

    def test_square(self):
        assert binpow(1, 2, 5).coeffs == (1, 2, 1, 0, 0, 0)

    def test_degenerate_limit(self):
        assert binpow(0, 1, 6).coeffs == tuple(Fraction(1, factorial(n)) for n in range(7))

    def test_negative_order_rejected(self):
        for build in (lambda: binpow(1, 1, -1), lambda: binpow(0, 2, -3),
                      lambda: TruncatedSeries.one(-1)):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                build()

    @given(rationals, rationals, rationals)
    def test_exponent_additivity(self, alpha, c1, c2):
        order = 6
        product = binpow(alpha, c1, order) * binpow(alpha, c2, order)
        assert product == binpow(alpha, c1 + c2, order)

    @given(rationals, rationals)
    def test_exponent_additivity_degenerate_case(self, c1, c2):
        order = 6
        product = binpow(0, c1, order) * binpow(0, c2, order)
        assert product == binpow(0, c1 + c2, order)

    @given(rationals, rationals)
    def test_defining_ode(self, alpha, c):
        # (1 + alpha t) * f' == c * f, the equation binpow solves
        order = 6
        f = binpow(alpha, c, order)
        lhs = TruncatedSeries([1, alpha] + [0] * (order - 2)) * derivative(f)
        rhs = truncate(f, order - 1).scale(c)
        assert lhs == rhs

    @given(rationals)
    def test_defining_ode_degenerate_case(self, c):
        # at alpha = 0 the equation collapses to f' == c * f
        order = 6
        f = binpow(0, c, order)
        assert derivative(f) == truncate(f, order - 1).scale(c)


class TestEgfCoeff:
    def test_exponential_reads_ones(self):
        e = binpow(0, 1, 6)
        assert [e.egf_coeff(n) for n in range(7)] == [1] * 7

    def test_geometric_reads_factorials(self):
        geo = TruncatedSeries([1, -1] + [0] * 4).inverse()
        assert [geo.egf_coeff(n) for n in range(6)] == [factorial(n) for n in range(6)]

    def test_linear(self):
        assert TruncatedSeries([1, 2, 0]).egf_coeff(1) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 2]).egf_coeff(5)

    def test_egf_coeffs_reads_every_entry_narrowed(self):
        ser = TruncatedSeries([Fraction(4, 2), Fraction(1, 3), 5, 0])
        assert ser.egf_coeffs == [ser.egf_coeff(n) for n in range(4)]
        assert [type(c) for c in ser.egf_coeffs] == [int, Fraction, int, int]


class TestIntegerNumerators:
    def test_integer_inputs_keep_int_numerators(self):
        # With integer data every stored EGF numerator n! c_n stays a plain
        # int through the kernel; a Fraction here means the gcd-free path is lost.
        order = 8
        f = binpow(3, -7, order)
        g = TruncatedSeries([1, 2, -1, 0, 5, 0, -3, 0, 1])
        results = {
            "binpow": f,
            "binpow at alpha=0": binpow(0, 5, order),
            "mul": f * g,
            "exp": (g - TruncatedSeries.one(order)).exp(),
            "log": g.log(),
            "pow_int": g.pow_int(5),
            "inverse": g.inverse(),
            "inverse of -g": g.scale(-1).inverse(),
            "ode": g.ode(f),
            "times_exp": f.times_exp(-2),
            "times_exp at c = 1": g.times_exp(1),
        }
        for name, series in results.items():
            assert [type(a) for a in series._a] == [int] * (order + 1), name
