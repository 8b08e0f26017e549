from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from debell.bell import (
    _lambda1,
    _rescaled,
    bell_classic,
    bell_convolution,
    bell_convolution_nr,
    bell_egf,
    bell_general_closed,
    bell_lambda1,
    deranged_bell_classic,
    omega,
    omega_egf,
    omega_identity_check,
    omega_identity_rows,
    product_form_check,
    section_convolution,
)
from debell.enumeration import (
    ordered_partitions_count,
    r_deranged_partitions_enum,
)
from debell.exact import ParamSet, binomial, gen_falling, multinomial

_ZERO = Fraction(0)

weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def rational_points(draw):
    alpha, beta = draw(weights), draw(weights.filter(bool))
    gamma, x = draw(weights), draw(weights)
    return ParamSet.make(alpha, beta, gamma, x, draw(st.integers(0, 3)), draw(st.integers(0, 2)))


def _compositions(n: int, parts: int):
    """Weak compositions of n into `parts` ordered parts."""
    if parts == 1:
        yield (n,)
        return
    for bars in combinations(range(n + parts - 1), parts - 1):
        cuts = (-1,) + bars + (n + parts - 1,)
        yield tuple(cuts[i + 1] - cuts[i] - 1 for i in range(parts))


def _section_sum(n: int, total: int, params: ParamSet) -> Fraction:
    """Oracle for the section convolution: the explicit sum over weak
    compositions of `total` into lam+1 parts."""
    base = params.replace(lam=1, gamma=Fraction(0))
    out = _ZERO
    for comp in _compositions(total, params.lam + 1):
        tail = gen_falling(params.gamma, params.alpha, comp[-1])
        if tail == 0:
            continue
        prod = multinomial(total, comp) * tail
        for part in comp[:-1]:
            prod *= _lambda1(base.alpha, base.beta, base.gamma, base.x, base.r, part)
            if prod == 0:
                break
        out += prod
    return out


def small_grid(lambdas=(1,), rs=(0, 1, 2), gammas=(0, 1, 2, 4), xs=(1, 2)):
    for alpha, beta in [(0, 1), (0, 2), (0, 4), (1, 1), (1, 2), (1, 4), (2, 2), (2, 4)]:
        for gamma in gammas:
            if alpha and gamma % alpha:
                continue
            for x in xs:
                for r in rs:
                    for lam in lambdas:
                        yield ParamSet.make(alpha, beta, gamma, x, lam, r)


class TestEgfRoute:
    def test_lambda_zero_collapses_to_head(self):
        for p in small_grid(lambdas=(0,)):
            assert bell_egf(6, p) == [gen_falling(p.gamma, p.alpha, n) for n in range(7)]

    def test_vanishes_below_r_lam(self):
        for r, lam in [(1, 1), (1, 2), (2, 1), (2, 3)]:
            p = ParamSet.make(0, 1, 0, 1, lam, r)
            values = bell_egf(min(8, r * lam + 2), p)
            assert all(v == 0 for v in values[: r * lam])

    def test_deranged_partition_count(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 0)
        assert bell_egf(3, p)[3] == 5 == r_deranged_partitions_enum(3, 0)


class TestLambdaOneRoute:
    def test_matches_egf_on_grid(self):
        for p in small_grid():
            values = bell_egf(10, p)
            for n in range(11):
                assert values[n] == bell_lambda1(n, p), (p, n)

    def test_hand_values(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 0)
        assert bell_lambda1(3, p) == 5  # d2*S(3,2) + d3*S(3,3) = 3 + 2
        p11 = ParamSet.make(0, 1, 1, 1, 1, 1)
        assert bell_lambda1(1, p11) == 1
        assert bell_lambda1(0, p) == 1

    def test_requires_lam_one(self):
        with pytest.raises(ValueError):
            bell_lambda1(3, ParamSet.make(lam=2))


class TestGeneralClosedRoute:
    def test_reduces_to_lambda_one(self):
        for p in small_grid():
            for n in range(8):
                assert bell_general_closed(n, p) == bell_lambda1(n, p)

    def test_lambda_zero_convention(self):
        # the k = r = 0 term survives through binomial(-1, 0) = 1 when r = 0
        p = ParamSet.make(1, 2, 4, 1, 0, 0)
        for n in range(6):
            assert bell_general_closed(n, p) == gen_falling(4, 1, n)
        # and nothing survives when r >= 1
        p1 = ParamSet.make(1, 2, 4, 1, 0, 1)
        assert [bell_general_closed(n, p1) for n in range(6)] == [0] * 6

    def test_lambda_two_disagrees_with_egf_somewhere(self):
        # the binomially weighted sum overcounts for lam >= 2; the harness
        # records this, the module only pins that both routes stay computable
        p = ParamSet.make(0, 1, 0, 1, 2, 0)
        egf = bell_egf(5, p)
        closed = [bell_general_closed(n, p) for n in range(6)]
        assert closed != egf
        assert all(v.denominator == 1 for v in closed)


class TestConvolutionRoute:
    def test_matches_egf(self):
        for p in small_grid(lambdas=(1, 2, 3), rs=(0, 1), gammas=(0, 2), xs=(1,)):
            values = bell_egf(7, p)
            for n in range(8):
                assert values[n] == bell_convolution(n, p), (p, n)

    def test_lambda_one_is_a_binomial_convolution(self):
        p = ParamSet.make(1, 2, 2, 2, 1, 1)
        base = p.replace(gamma=Fraction(0))
        for n in range(7):
            expected = sum(
                binomial(n, i)
                * gen_falling(p.gamma, p.alpha, n - i)
                * bell_lambda1(i, base)
                for i in range(n + 1)
            )
            assert bell_convolution(n, p) == expected

    def test_empty_set_with_required_sections(self):
        for r, lam in [(1, 1), (2, 2)]:
            p = ParamSet.make(0, 1, 0, 1, lam, r)
            assert bell_convolution(0, p) == 0

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            bell_convolution(3, ParamSet.make(lam=0))
        with pytest.raises(ValueError):
            bell_convolution_nr(3, ParamSet.make(lam=0, r=1))
        with pytest.raises(ValueError):
            section_convolution(3, ParamSet.make(lam=0))

    def test_vector_matches_composition_oracle_on_integer_grid(self):
        for p in small_grid(lambdas=(1, 2, 3), rs=(0, 1, 2), gammas=(0, 2), xs=(1, 2)):
            for n in range(8):
                assert bell_convolution(n, p) == _section_sum(n, n, p), (p, n)
                assert bell_convolution_nr(n, p) == _section_sum(n, n + p.r, p), (p, n)

    @given(rational_points().filter(lambda p: p.lam >= 1), st.integers(0, 7))
    def test_vector_matches_composition_oracle_at_rational_points(self, p, n):
        assert bell_convolution(n, p) == _section_sum(n, n, p)
        assert bell_convolution_nr(n, p) == _section_sum(n, n + p.r, p)
        assert section_convolution(7, p)[n] == _section_sum(n, n, p)

    @given(rational_points().filter(lambda p: p.lam >= 1), st.integers(0, 7))
    def test_nr_variant_is_the_vector_at_n_plus_r(self, p, n):
        assert bell_convolution_nr(n, p) == bell_convolution(n + p.r, p)

    def test_nr_index_variant_differs_for_positive_r(self):
        p = ParamSet.make(0, 1, 0, 1, 2, 1)
        egf = bell_egf(6, p)
        shifted = [bell_convolution_nr(n, p) for n in range(7)]
        assert shifted != egf
        # and coincides for r = 0, where n + r is just n
        p0 = ParamSet.make(0, 1, 2, 1, 2, 0)
        for n in range(7):
            assert bell_convolution_nr(n, p0) == bell_convolution(n, p0)


class TestClassicSpecialization:
    def test_matches_enumeration(self):
        for r in range(3):
            for n in range(7 - r):
                assert deranged_bell_classic(n, r) == r_deranged_partitions_enum(n, r)

    def test_frozen_rows(self):
        assert [deranged_bell_classic(n, 0) for n in range(6)] == [1, 0, 1, 5, 28, 199]
        assert deranged_bell_classic(1, 1) == 1

    def test_vanishes_below_r(self):
        for r in (1, 2, 3):
            for n in range(r):
                assert deranged_bell_classic(n, r) == 0

    def test_equals_egf_specialization(self):
        for r in range(3):
            p = ParamSet.make(0, 1, r, 1, 1, r)
            values = bell_egf(8, p)
            for n in range(9):
                assert values[n] == deranged_bell_classic(n, r)


class TestBellValueDispatch:
    def test_routes_agree_where_defined(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 1)
        egf = bell_egf(4, p)[4]
        assert egf == bell_lambda1(4, p)
        assert egf == bell_general_closed(4, p)
        assert egf == bell_convolution(4, p)
        assert egf == bell_classic(4, p)

    def test_classic_route_guards_its_specialization(self):
        with pytest.raises(ValueError):
            bell_classic(3, ParamSet.make(0, 2, 0, 1, 1, 0))


class TestOmega:
    def test_fubini_values(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 0)
        assert [omega(n, p) for n in range(7)] == [1, 1, 3, 13, 75, 541, 4683]
        for n in range(7):
            assert omega(n, p) == ordered_partitions_count(n)

    def test_omega_zero_is_one(self):
        for p in small_grid(lambdas=(0, 1, 2)):
            assert omega(0, p) == 1

    def test_lambda_zero_collapses(self):
        p = ParamSet.make(2, 2, 4, 2, 0, 0)
        for n in range(7):
            assert omega(n, p) == gen_falling(4, 2, n)

    def test_two_routes_agree(self):
        for p in small_grid(lambdas=(0, 1, 2, 3), gammas=(0, 2), xs=(1, 2)):
            assert omega_egf(7, p) == [omega(n, p) for n in range(8)]


class TestOmegaIdentity:
    def test_holds_at_r_zero(self):
        for p in small_grid(lambdas=(0, 1, 2), rs=(0,), gammas=(0, 2)):
            for n in range(7):
                lhs, rhs = omega_identity_check(n, 0, p)
                assert lhs == rhs

    def test_lambda_zero_gives_head_on_both_sides(self):
        p = ParamSet.make(1, 2, 2, 1, 0, 0)
        lhs, rhs = omega_identity_check(4, 0, p)
        assert lhs == rhs == gen_falling(2, 1, 4)

    def test_rows_match_scalar_check(self):
        for p in small_grid(lambdas=(0, 1, 2, 3), rs=(0, 1, 2), gammas=(0, 2)):
            rows = omega_identity_rows(6, p)
            assert len(rows) == 7
            for n, row in enumerate(rows):
                assert row == omega_identity_check(n, p.r, p), (p, n)

    def test_scalar_check_overrides_r(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 0)
        assert omega_identity_check(1, 1, p) == omega_identity_rows(1, p.replace(r=1))[1]

    def test_smallest_positive_r_case_is_recorded_not_assumed(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 1)
        lhs, rhs = omega_identity_check(1, 1, p)
        # frozen observation from the first harness run: the sides differ
        assert (lhs, rhs) == (3, 5)


class TestProductForms:
    def test_single_factor_collapses(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 1)
        for row in product_form_check(6, p):
            assert row.literal == row.power == row.egf

    def test_power_reading_matches_egf(self):
        for lam in (1, 2, 3):
            p = ParamSet.make(0, 2, 2, 1, lam, 1)
            for row in product_form_check(6, p):
                assert row.power == row.egf

    def test_literal_reading_recorded_at_lam_two(self):
        p = ParamSet.make(0, 1, 0, 1, 2, 1)
        rows = product_form_check(6, p)
        assert [r.literal for r in rows] != [r.egf for r in rows]

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            product_form_check(4, ParamSet.make(lam=0))


class TestRegimeProperties:
    def test_integrality_and_nonnegativity(self):
        for p in small_grid(lambdas=(0, 1, 2, 3), gammas=(0, 2, 4)):
            assert p.combinatorial_regime
            for v in bell_egf(7, p):
                assert v.denominator == 1 and v >= 0
            for n in range(8):
                w = omega(n, p)
                assert w.denominator == 1 and w >= 0

    def test_monotone_in_lambda_at_r_zero(self):
        for p in small_grid(lambdas=(0,), rs=(0,), gammas=(0, 2, 4)):
            previous = bell_egf(7, p)
            for lam in (1, 2, 3):
                current = bell_egf(7, p.replace(lam=lam))
                assert all(a <= b for a, b in zip(previous, current))
                previous = current


class TestRationalRescaling:
    """The series routes read t -> S t so that rational weights run on integer
    numerators; these points reach S > 1, which the default grid never does."""

    @given(rational_points(), st.integers(0, 8))
    def test_series_routes_match_closed_sums(self, p, n_max):
        ns = range(n_max + 1)
        egf = bell_egf(n_max, p)
        if p.lam == 1:
            assert egf == [bell_lambda1(n, p) for n in ns]
        if p.lam >= 1:
            assert egf == [bell_convolution(n, p) for n in ns]
            assert [row.power for row in product_form_check(n_max, p)] == egf
        assert omega_egf(n_max, p) == [omega(n, p) for n in ns]

    @given(rational_points(), st.integers(0, 8))
    def test_rescaled_inputs_are_integral(self, p, order):
        s, head, xu = _rescaled(p, order)
        assert all((w * s).denominator == 1 for w in (p.alpha, p.beta, p.gamma))
        for series in (head, xu):
            assert all(series.egf_coeff(n).denominator == 1 for n in range(order + 1))
