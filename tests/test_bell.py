import importlib
import pkgutil
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import debell
from debell import asymptotics, bell, derangements, series, stirling, verify
from debell.asymptotics import (
    _excess_partitions,
    bell_asymptotic_estimate,
    expansion,
    w_explicit,
    w_from_base,
)
from debell.bell import (
    _bell_egf,
    _gamma_free,
    _product_factor,
    _unscale,
    _xu,
    _xu_and_log,
    bell_classic,
    bell_closed_lam,
    bell_convolution,
    bell_egf,
    bell_lambda1,
    deranged_bell_classic,
    fixed_block_sums,
    general_closed_sums,
    lambda1_sums,
    omega,
    omega_egf,
    omega_sums,
    product_literal,
    product_power,
    section_convolution,
)
from debell.derangements import r_derangement
from debell.enumeration import (
    FAMILIES,
    ordered_partitions_count,
    r_deranged_partitions_enum,
)
from debell.exact import ParamSet, binomial, gen_falling, narrow
from debell.series import TruncatedSeries, binpow
from debell.stirling import StirlingTable, stirling_rec
from debell.verify import _vs, claim_registry

_ZERO = Fraction(0)

weights = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def rational_points(draw):
    alpha, beta = draw(weights), draw(weights.filter(bool))
    gamma, x = draw(weights), draw(weights)
    return ParamSet.make(alpha, beta, gamma, x, draw(st.integers(0, 3)), draw(st.integers(0, 2)))


def _rescaled(p: ParamSet, order: int) -> tuple:
    """(S, head, x u): S = lcm(den alpha, den beta, den gamma) * den x, and the
    head (1+alpha t)^(gamma/alpha) and x u read at t -> S t."""
    s = lcm(p.alpha.denominator, p.beta.denominator, p.gamma.denominator) * p.x.denominator
    return s, binpow(p.alpha * s, p.gamma * s, order), _xu(p.alpha, p.beta, p.x, s, order)


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
    base = lambda1_sums(total, params.replace(gamma=Fraction(0)))
    out = _ZERO
    for comp in _compositions(total, params.lam + 1):
        tail = gen_falling(params.gamma, params.alpha, comp[-1])
        if tail == 0:
            continue
        term = factorial(total) // prod(map(factorial, comp)) * tail
        for part in comp[:-1]:
            term *= base[part]
            if term == 0:
                break
        out += term
    return out


def _general_closed_sum(n: int, params: ParamSet) -> Fraction:
    """Oracle for ``general_closed_sums``: its weighted Stirling sum at one n,
    term by term in Fractions."""
    a, b, g, x, lam, r = params.key
    return sum(binomial(k + r + lam - 1, k + r) * r_derangement(k, r) * (x * b) ** k
               * stirling_rec(n, k, a, b, g) for k in range(n + 1))


def _omega_id_sides(n_max: int, params: ParamSet) -> list:
    """OMEGA-ID's (omega, fixed-block) pairs at n = 0..n_max, each side read at n + r."""
    top, r = n_max + params.r, params.r
    return list(zip(omega_sums(top, params)[r:], fixed_block_sums(top, params)[r:]))


def _omega_identity_oracle(n: int, params: ParamSet) -> tuple:
    """Oracle for ``_omega_id_sides``: both sides of the fixed-block
    decomposition at r = params.r, summed term by term,

        omega[n+r] and sum_i C(n+r, i) B[i] sum_l (beta x lam)^l S(n+r-i, l; alpha, beta, 0).
    """
    top = n + params.r
    b = bell_egf(top, params)
    weight = params.beta * params.x * params.lam
    rhs = sum(
        binomial(top, i) * b[i]
        * sum(weight**l * stirling_rec(top - i, l, params.alpha, params.beta, 0)
              for l in range(top - i + 1))
        for i in range(top + 1)
    )
    return omega(top, params), rhs


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

    @pytest.mark.parametrize(
        "p", [ParamSet.make(lam=1), ParamSet.make(alpha="1/2", lam=1)], ids=["integer", "rational"]
    )
    def test_rejects_negative_n(self, p):
        bell_lambda1(5, p)  # grow the triangle past the rows a wrapped index would reach
        with pytest.raises(ValueError):
            bell_lambda1(-1, p)


class TestGeneralClosedRoute:
    def test_reduces_to_lambda_one(self):
        for p in small_grid():
            assert general_closed_sums(7, p) == [bell_lambda1(n, p) for n in range(8)]

    def test_lambda_zero_convention(self):
        # the k = r = 0 term survives through binomial(-1, 0) = 1 when r = 0
        p = ParamSet.make(1, 2, 4, 1, 0, 0)
        assert general_closed_sums(5, p) == [gen_falling(4, 1, n) for n in range(6)]
        # and nothing survives when r >= 1
        p1 = ParamSet.make(1, 2, 4, 1, 0, 1)
        assert general_closed_sums(5, p1) == [0] * 6

    def test_lambda_two_disagrees_with_egf_somewhere(self):
        # the binomially weighted sum overcounts for lam >= 2; the harness
        # records this, the module only pins that both routes stay computable
        p = ParamSet.make(0, 1, 0, 1, 2, 0)
        egf = bell_egf(5, p)
        closed = general_closed_sums(5, p)
        assert closed != egf
        assert all(type(v) is int for v in closed)


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
            section_convolution(3, ParamSet.make(lam=0))

    def test_vector_matches_composition_oracle_on_integer_grid(self):
        for p in small_grid(lambdas=(1, 2, 3), rs=(0, 1, 2), gammas=(0, 2), xs=(1, 2)):
            for n in range(8):
                assert bell_convolution(n, p) == _section_sum(n, n, p), (p, n)
                nr = section_convolution(n + p.r, p)[n + p.r]
                assert nr == _section_sum(n, n + p.r, p), (p, n)

    @given(rational_points().filter(lambda p: p.lam >= 1), st.integers(0, 7))
    def test_vector_matches_composition_oracle_at_rational_points(self, p, n):
        assert bell_convolution(n, p) == _section_sum(n, n, p)
        assert section_convolution(n + p.r, p)[n + p.r] == _section_sum(n, n + p.r, p)
        assert section_convolution(7, p)[n] == _section_sum(n, n, p)

    @given(rational_points().filter(lambda p: p.lam >= 1), st.integers(0, 7))
    def test_nr_variant_is_the_vector_at_n_plus_r(self, p, n):
        # the harness reads the n+r variant from one grid-sized vector
        assert section_convolution(7 + p.r, p)[n + p.r] == bell_convolution(n + p.r, p)

    def test_nr_index_variant_differs_for_positive_r(self):
        p = ParamSet.make(0, 1, 0, 1, 2, 1)
        egf = bell_egf(6, p)
        shifted = section_convolution(6 + p.r, p)[p.r:]
        assert shifted != egf
        # and coincides for r = 0, where n + r is just n
        p0 = ParamSet.make(0, 1, 2, 1, 2, 0)
        assert section_convolution(6, p0) == bell_egf(6, p0)


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

    @pytest.mark.parametrize("n, r", [(-1, 0), (2, -1)])
    def test_negative_rejected(self, n, r):
        with pytest.raises(ValueError, match="n and r must be nonnegative"):
            deranged_bell_classic(n, r)

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
        assert egf == general_closed_sums(4, p)[4]
        assert egf == bell_convolution(4, p)
        assert egf == bell_classic(4, p)

    def test_classic_route_guards_its_specialization(self):
        with pytest.raises(ValueError):
            bell_classic(3, ParamSet.make(0, 2, 0, 1, 1, 0))


class TestPublicTypes:
    """The closed sums run on ints inside, but the public scalar routes keep
    returning Fraction: an int reaching a caller that divides (by n!, say)
    would silently become a float."""

    @pytest.mark.parametrize(
        "p",
        [ParamSet.make(1, 2, 2, 2, 1, 1), ParamSet.make("1/2", "3/4", "-2/3", "3/2", 1, 2)],
        ids=["integer", "rational"],
    )
    def test_scalar_routes_return_fraction(self, p):
        tab = StirlingTable(p.alpha, p.beta, p.gamma)
        for n in range(6):
            values = [
                bell_lambda1(n, p),
                bell_convolution(n, p),
                omega(n, p),
                gen_falling(p.gamma, p.alpha, n),
            ]
            for k in range(n + 1):
                values += [stirling_rec(n, k, p.alpha, p.beta, p.gamma), tab.value(n, k)]
            assert all(type(v) is Fraction for v in values), (n, values)

    @pytest.mark.parametrize(
        "p",
        [ParamSet.make(1, 2, 2, 2, 2, 1), ParamSet.make("1/2", "3/4", "-2/3", "3/2", 2, 2)],
        ids=["integer", "rational"],
    )
    def test_vector_routes_hold_exact_values(self, p):
        """Vector entries are ints where integral and Fractions otherwise, never
        floats; a caller dividing one by n! must write Fraction(v, n!)."""
        for route in (bell_egf, omega_egf, product_literal, product_power, section_convolution,
                      lambda1_sums, bell_closed_lam, omega_sums, fixed_block_sums):
            values = route(7, p)
            assert all(
                type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values
            ), (route.__name__, values)
        base = lambda1_sums(7, p)  # the lam = 1 closed sums B[0..7], whatever p.lam is
        assert list(base) == [bell_lambda1(i, p.replace(lam=1)) for i in range(8)]
        assert all(
            type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in base
        ), base
        if p.combinatorial_regime:
            assert all(type(v) is int for v in base), base
        assert type(bell_asymptotic_estimate(3, 1, 10, p.replace(lam=1)).exact) is Fraction


@pytest.mark.parametrize(
    "route",
    [bell_egf, omega_egf, product_literal, product_power, fixed_block_sums,
     section_convolution, bell_convolution, lambda1_sums, bell_closed_lam, general_closed_sums,
     omega_sums],
    ids=lambda route: route.__name__,
)
def test_vector_routes_reject_a_negative_n_max(route):
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        route(-1, ParamSet.make(1, 2, 2, 2, 2, 1))


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
            for lhs, rhs in _omega_id_sides(6, p):
                assert lhs == rhs

    def test_lambda_zero_gives_head_on_both_sides(self):
        p = ParamSet.make(1, 2, 2, 1, 0, 0)
        lhs, rhs = _omega_id_sides(4, p)[4]
        assert lhs == rhs == gen_falling(2, 1, 4)

    def test_rows_match_scalar_check(self):
        for p in small_grid(lambdas=(0, 1, 2, 3), rs=(0, 1, 2), gammas=(0, 2)):
            rows = _omega_id_sides(6, p)
            assert len(rows) == 7
            for n, row in enumerate(rows):
                assert row == _omega_identity_oracle(n, p), (p, n)

    def test_smallest_positive_r_case_is_recorded_not_assumed(self):
        p = ParamSet.make(0, 1, 0, 1, 1, 1)
        lhs, rhs = _omega_id_sides(1, p)[1]
        # frozen observation from the first harness run: the sides differ
        assert (lhs, rhs) == (3, 5)


def _literal_product_oracle(n_max: int, params: ParamSet) -> list:
    """The product of the lam literal factors, each built from its own powers
    and exponentials: (x u)^(r i) exp(-i x u) / (1 - x u)^((r+1) i), i = 1..lam."""
    order = n_max + 1
    s, ser, xu = _rescaled(params, order)
    log_one_minus = (TruncatedSeries.one(order) - xu).log()
    r = params.r
    for i in range(1, params.lam + 1):
        ser = ser * xu.pow_int(r * i) * xu.scale(-i).exp()
        ser = ser * log_one_minus.scale(-(r + 1) * i).exp()
    return [narrow(Fraction(ser.egf_coeff(n), s**n)) for n in range(n_max + 1)]


class TestProductForms:
    @given(rational_points(), st.integers(1, 4), st.integers(0, 6))
    def test_literal_matches_factor_by_factor_oracle(self, p, lam, n_max):
        p = p.replace(lam=lam)
        assert product_literal(n_max, p) == _literal_product_oracle(n_max, p)

    def test_single_factor_collapses(self):
        p = ParamSet.make(0, 1, 1, 1, 1, 1)
        assert product_literal(6, p) == product_power(6, p) == bell_egf(6, p)

    def test_power_reading_matches_egf(self):
        for lam in (1, 2, 3):
            p = ParamSet.make(0, 2, 2, 1, lam, 1)
            assert product_power(6, p) == bell_egf(6, p)

    def test_literal_reading_recorded_at_lam_two(self):
        p = ParamSet.make(0, 1, 0, 1, 2, 1)
        assert product_literal(6, p) != bell_egf(6, p)

    def test_requires_positive_lambda(self):
        for route in (product_literal, product_power):
            with pytest.raises(ValueError):
                route(4, ParamSet.make(lam=0))


def _gamma_free_scale(p: ParamSet) -> int:
    """The S at which a cold ``bell_egf(3, p)`` memoizes p's gamma-free series:
    the one S whose ``_gamma_free`` read afterwards is a cache hit."""
    _bell_egf.cache_clear()
    _gamma_free.cache_clear()
    bell_egf(3, p)
    a, b, _, x, lam, r = p.key
    for s in range(1, 13):
        hits = _gamma_free.cache_info().hits
        _gamma_free(a, b, x, s, 3, r * lam, lam, (r + 1) * lam)
        if _gamma_free.cache_info().hits > hits:
            return s
    raise AssertionError("no cached S in 1..12")


class TestSharedWork:
    """bell_egf memoizes one B tuple per (n_max, ParamSet) and returns a copy of
    it; the product readings share one factor F per order and one power of it
    per exponent."""

    POINTS = [
        ParamSet.make(1, 2, 2, 2, 2, 1),
        ParamSet.make(Fraction(1, 3), 1, 0, Fraction(3, 2), 2, 1),  # S = 6
    ]

    @pytest.mark.parametrize("p", POINTS)
    def test_a_longer_build_has_the_same_head(self, p):
        """B[0..3] is the same, type for type, built cold, read off B[0..8] and
        served from the memo: the truncation order changes no entry."""
        _bell_egf.cache_clear()
        cold = _typed(bell_egf(3, p))
        grown = _typed(bell_egf(8, p)[:4])
        served = _typed(bell_egf(3, p))
        _bell_egf.cache_clear()
        assert served == grown == cold == _typed(bell_egf(3, p))

    def test_the_rational_point_is_rescaled(self):
        assert _gamma_free_scale(self.POINTS[1]) == 6

    def test_returned_vectors_are_copies(self):
        p = self.POINTS[0]
        first = bell_egf(5, p)
        want = list(first)
        first[2] = -1
        first.append(0)
        assert bell_egf(5, p) == want
        assert bell_egf(6, p)[:6] == want

    def test_one_vector_per_n_max_and_param_set(self):
        _bell_egf.cache_clear()
        for _ in range(2):
            for n_max in (3, 8, 5, 0):
                for p in self.POINTS:
                    bell_egf(n_max, p)
                    bell_egf(n_max, p.replace(lam=3))
        info = _bell_egf.cache_info()
        assert (info.currsize, info.misses, info.hits) == (16, 16, 16)

    @pytest.mark.parametrize("p", POINTS)
    def test_one_factor_per_order_for_every_lam(self, p):
        _product_factor.cache_clear()
        for n_max in (4, 6):
            for lam in (1, 2, 3):
                q = p.replace(lam=lam)
                literal, power = product_literal(n_max, q), product_power(n_max, q)
                assert literal == _literal_product_oracle(n_max, q)
                assert power == bell_egf(n_max, q)
                assert (literal == power) == (lam == 1)
        # per order: F and its powers 3, 2, 6 (literal and power at lam = 2, 3)
        # are built once; the other 5 of the 9 reads (each power reads F) hit
        info = _product_factor.cache_info()
        assert (info.currsize, info.misses, info.hits) == (8, 8, 10)


class TestGammaSharing:
    """gamma enters B only through the head (1+alpha t)^(gamma/alpha), so the
    gamma-free series are memoized once per S = lcm(dens) * den x; at x = 3/2
    the gammas 1/2, 1/3, 2 give S = 4, 6, 2, and gamma = 4 shares S = 2."""

    GAMMAS = (Fraction(1, 2), Fraction(1, 3), 2, 4)

    @staticmethod
    def points(lam):
        return [ParamSet.make(1, 2, g, Fraction(3, 2), lam, 1) for g in TestGammaSharing.GAMMAS]

    def test_the_gammas_give_distinct_scales(self):
        assert [_gamma_free_scale(p) for p in self.points(1)] == [4, 6, 2, 2]

    @pytest.mark.parametrize("lam", [1, 2, 3])
    def test_routes_match_cold_oracles_with_one_entry_per_scale(self, lam):
        for cache in (_bell_egf, _gamma_free, _product_factor):
            cache.cache_clear()
        types = set()
        for p in self.points(lam):
            b, _ = _chain_vectors(8, p)
            assert _typed(bell_egf(8, p)) == _typed(b)
            assert _typed(product_power(8, p)) == _typed(b)
            assert _typed(product_literal(8, p)) == _typed(_literal_product_oracle(8, p))
            types |= set(map(type, b))
        assert types == {int, Fraction}
        assert _gamma_free.cache_info().currsize == 3
        # per S: F and each distinct power of it, lam and lam (lam + 1) / 2
        assert _product_factor.cache_info().currsize == 3 * len({1, lam, lam * (lam + 1) // 2})
        for p in self.points(lam):
            _, w = _chain_vectors(8, p)
            assert _typed(omega_egf(8, p)) == _typed(w)
        assert _gamma_free.cache_info().currsize == 3 + 3  # omega's factor, one per S


class TestSharedLog:
    """X = x u and log(1 - X) are free of p, e and c, so at a transcendental X, B at
    any lam and r and omega read one ``_xu_and_log`` entry per (alpha, beta, x, S, order)."""

    def test_bell_then_omega_build_one_log(self):
        """At alpha = 0 (S = 2, n = 200) cold B builds the log and omega reads it."""
        p = ParamSet.make(0, 1, 0, Fraction(3, 2), 1, 2)
        for cache in (_bell_egf, _gamma_free, _xu_and_log):
            cache.cache_clear()
        bell_egf(200, p)
        omega_egf(200, p)
        info = _xu_and_log.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _gamma_free.cache_info().misses == 2

    def test_points_that_differ_in_lam_and_r_share_the_log(self):
        for cache in (_bell_egf, _gamma_free, _xu_and_log):
            cache.cache_clear()
        for lam, r in ((1, 0), (2, 1), (3, 2)):
            p = ParamSet.make(0, 1, 0, 1, lam, r)
            bell_egf(8, p)
            omega_egf(8, p)
        assert _gamma_free.cache_info().misses == 3 + 3  # B's per (lam, r), omega's per lam
        info = _xu_and_log.cache_info()
        assert (info.misses, info.hits) == (1, 5)


# every memoized builder in debell: the functions with ``cache_info``, each once
MEMOS = list({id(value): value
              for info in pkgutil.iter_modules(debell.__path__)
              for value in vars(importlib.import_module(f"debell.{info.name}")).values()
              if hasattr(value, "cache_info")}.values())


def _reached(call, *args) -> set:
    """The code of every Python function that call(*args) runs from cleared
    caches; a memo is seen through its wrapped function, which runs on a miss."""
    for memo in MEMOS:
        if memo is not claim_registry:  # no route builds claims; keep the registry tests hold
            memo.cache_clear()
    stirling._TABLES.clear()
    codes, previous = set(), sys.getprofile()

    def probe(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(probe)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return codes


class TestRouteIndependence:
    """A route checked against the series route must share none of its machinery:
    B and omega read ``_gamma_free``, the product readings ``_product_factor``,
    and neither side reaches the other's builder or the B memo."""

    ROUTES = {  # route: (the builder it reads, what it must never reach)
        bell_egf: (_gamma_free, (_product_factor,)),
        omega_egf: (_gamma_free, (_product_factor,)),
        product_power: (_product_factor, (_gamma_free, _bell_egf)),
        product_literal: (_product_factor, (_gamma_free, _bell_egf)),
    }

    # the closed sums and the convolution read the Stirling triangle alone
    CLOSED = [bell_lambda1, lambda1_sums, bell_closed_lam, general_closed_sums, omega,
              omega_sums, section_convolution, deranged_bell_classic]
    POINTS = [
        ParamSet.make(1, 2, 2, 2, 2, 1),
        ParamSet.make(Fraction(1, 3), 1, 0, Fraction(3, 2), 3, 2),  # S = 6
    ]

    @pytest.mark.parametrize("route", list(ROUTES), ids=lambda route: route.__name__)
    @pytest.mark.parametrize("p", POINTS, ids=["integer", "rational"])
    def test_route_reaches_its_builder_and_nothing_forbidden(self, route, p):
        own, forbidden = self.ROUTES[route]
        reached = _reached(route, 6, p)
        assert own.__wrapped__.__code__ in reached
        assert [memo.__name__ for memo in forbidden if memo.__wrapped__.__code__ in reached] == []

    @pytest.mark.parametrize("route", CLOSED, ids=lambda route: route.__name__)
    @pytest.mark.parametrize("p", POINTS, ids=["integer", "rational"])
    def test_closed_route_reaches_no_series_machinery(self, route, p):
        if route is bell_lambda1:
            p = p.replace(lam=1)  # its only point
        reached = _reached(route, 6, p.r if route is deranged_bell_classic else p)
        assert StirlingTable._grow.__code__ in reached
        series_file = binpow.__code__.co_filename  # every TruncatedSeries method's file too
        assert sorted(code.co_name for code in reached if code.co_filename == series_file) == []
        memos = (_gamma_free, _product_factor, _bell_egf)
        assert [memo.__name__ for memo in memos if memo.__wrapped__.__code__ in reached] == []

    @pytest.mark.parametrize("p", POINTS, ids=["integer", "rational"])
    def test_closed_routes_read_one_weight_table_at_lam_one(self, p):
        # the CLI's closed and lambda1 routes: d_1(k, r) is the canonical d_{k,r}
        p = p.replace(lam=1)
        for n in range(13):
            assert _typed(bell_closed_lam(n, p)) == _typed(lambda1_sums(n, p)), n

    @pytest.mark.parametrize("p", POINTS, ids=["integer", "rational"])
    def test_repeated_closed_sum_only_hits_the_weight_table(self, p):
        p = p.replace(lam=2)
        r_derangement.cache_clear()
        bell_closed_lam(10, p)
        before = r_derangement.cache_info()
        bell_closed_lam(10, p)
        after = r_derangement.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize) == (11, 11)
        assert after.hits - before.hits == 11

    def test_every_closed_sum_keys_one_weight_per_value(self):
        # d_{k,r} and d_1(k, r) are one number under one memo key, whichever route asks
        p = self.POINTS[0].replace(lam=1)
        r_derangement.cache_clear()
        for route in (lambda1_sums, bell_closed_lam, bell_lambda1, general_closed_sums):
            route(10, p)
        assert r_derangement.cache_info().currsize == 11

    # every claim the default evaluator runs, read off the registry: the memoized
    # builders its two sides reach share nothing, so neither side is the other
    VS_CLAIMS = sorted(cid for cid, claim in claim_registry().items()
                       if getattr(claim.values, "func", claim.values) is _vs)

    @pytest.mark.parametrize("cid", VS_CLAIMS)
    @pytest.mark.parametrize("p", POINTS, ids=["integer", "rational"])
    def test_claim_sides_share_no_memoized_builder(self, cid, p):
        claim = claim_registry()[cid]
        reached = [_reached(getattr(bell, side), 6, p) for side in (claim.lhs, claim.rhs)]
        lhs, rhs = ({memo.__name__ for memo in MEMOS if memo.__wrapped__.__code__ in codes}
                    for codes in reached)
        assert lhs | rhs and lhs & rhs == set(), (lhs, rhs)

    @pytest.mark.parametrize("cid", sorted(claim_registry()))
    def test_claim_sides_name_functions(self, cid):
        claim = claim_registry()[cid]
        for side in (claim.lhs, claim.rhs):
            assert [m for m in (bell, asymptotics, verify) if callable(getattr(m, side, None))]

    # the generic W and the expansion sum over the partitions of the excess, the
    # expanded W over its fixed forms: no series arithmetic, and neither W reaches
    # the other's machinery
    ASYMPTOTIC = {  # route: (a call at the base c, what it must reach, what it must never)
        w_from_base: (lambda c: [w_from_base(c, 6, f) for f in range(6)],
                      _excess_partitions.__wrapped__, (w_explicit,)),
        expansion: (lambda c: expansion(c, 100, 6, 5),
                    _excess_partitions.__wrapped__, (w_explicit,)),
        w_explicit: (lambda c: [w_explicit(c, 6, f) for f in range(6)],
                     w_explicit, (_excess_partitions.__wrapped__, w_from_base)),
    }

    @pytest.mark.parametrize("route", list(ASYMPTOTIC), ids=lambda route: route.__name__)
    @pytest.mark.parametrize("p", POINTS, ids=["integer", "rational"])
    def test_asymptotic_route_reaches_no_series_and_not_the_other_w(self, route, p):
        call, own, forbidden = self.ASYMPTOTIC[route]
        reached = _reached(call, lambda1_sums(6, p))
        assert own.__code__ in reached
        assert sorted(code.co_name for code in reached if code.co_filename == series.__file__) == []
        assert [fn.__name__ for fn in forbidden if fn.__code__ in reached] == []

    # each brute-force counter and lister at a small point; the oracles share
    # nothing with the formula modules
    FAMILY_POINTS = {"set-partitions": (5, 2), "r-stirling": (4, 2, 1), "ordered": (4,),
                     "barred": (4, 2), "r-derangements": (3, 2), "r-deranged-partitions": (4, 1)}
    FORMULA_FILES = {module.__file__
                     for module in (bell, stirling, series, derangements, asymptotics)}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_enumerator_reaches_no_formula_module(self, family):
        spec, args = FAMILIES[family], self.FAMILY_POINTS[family]
        for call in (spec.count, lambda *point: list(spec.lines(*point))):
            reached = _reached(call, *args)
            assert call.__code__ in reached
            formula = sorted(code.co_name for code in reached
                             if code.co_filename in self.FORMULA_FILES)
            assert formula == [], (family, formula)


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
        assert _typed(bell_closed_lam(n_max, p)) == _typed(egf)  # every lam
        if p.lam == 1:
            assert egf == [bell_lambda1(n, p) for n in ns]
        if p.lam >= 1:
            assert egf == [bell_convolution(n, p) for n in ns]
            assert product_power(n_max, p) == egf
        omegas = omega_sums(n_max, p)
        assert omega_egf(n_max, p) == omegas == [omega(n, p) for n in ns]
        closed = general_closed_sums(n_max, p)
        assert closed == [_general_closed_sum(n, p) for n in ns]
        for values in (closed, omegas):
            assert _typed(values) == _typed(map(narrow, values))

    @given(rational_points().filter(lambda p: _rescaled(p, 0)[0] > 1),
           st.integers(0, 8), st.integers(1, 3))
    def test_truncation_changes_no_entry(self, p, n_max, j):
        """Each series route builds at order n_max; reading entries 0..n_max off
        a longer build gives the same values, type for type."""
        routes = [bell_egf, omega_egf]
        if p.lam >= 1:
            routes += [product_literal, product_power]
        for route in routes:
            want = _typed(route(n_max + j, p)[: n_max + 1])
            assert _typed(route(n_max, p)) == want, route.__name__

    @given(rational_points().filter(lambda p: StirlingTable(p.alpha, p.beta, p.gamma).scale > 1),
           st.integers(0, 8))
    def test_lambda1_vector_matches_its_scalar(self, p, n_max):
        # any lam: the vector reads lam = 1 whatever p.lam is
        want = [narrow(bell_lambda1(n, p.replace(lam=1))) for n in range(n_max + 1)]
        assert _typed(lambda1_sums(n_max, p)) == _typed(want)

    @given(rational_points(), st.integers(0, 8))
    def test_rescaled_inputs_are_integral(self, p, order):
        s, head, xu = _rescaled(p, order)
        assert all((w * s).denominator == 1 for w in (p.alpha, p.beta, p.gamma))
        for series in (head, xu):
            assert all(series.egf_coeff(n).denominator == 1 for n in range(order + 1))


class TestMetamorphicIdentities:
    """Two identities of the defining EGF at rational points, where the series
    routes rescale (S > 1): the EGF at (c alpha, c beta, c gamma) is the EGF
    read at c t, and the head is multiplicative in gamma while the rest is a
    lam-th power.  The memos are not cleared between examples, so a memo key
    that loses part of its point shows up as a mismatch."""

    @settings(derandomize=True, max_examples=60)
    @given(rational_points(), weights.filter(bool), st.integers(0, 7))
    def test_homogeneity(self, p, c, n_max):
        scaled = p.replace(alpha=p.alpha * c, beta=p.beta * c, gamma=p.gamma * c)
        for route in (bell_egf, omega_egf):
            assert route(n_max, scaled) == [c**n * v for n, v in enumerate(route(n_max, p))]

    @settings(derandomize=True, max_examples=60)
    @given(rational_points(), st.integers(0, 3), weights, st.integers(0, 7))
    def test_additivity(self, p, lam, gamma, n_max):
        other = p.replace(lam=lam, gamma=gamma)
        both = p.replace(lam=p.lam + lam, gamma=p.gamma + gamma)
        for route in (bell_egf, omega_egf):
            a, b = route(n_max, p), route(n_max, other)
            convolution = [sum(comb(m, k) * a[k] * b[m - k] for k in range(m + 1))
                           for m in range(n_max + 1)]
            assert route(n_max, both) == convolution


def _chain_section(xu, e, c):
    """exp(-e X) / (1 - X)^c at X = xu as two exponentials and a product: the
    oracle for ``_gamma_free``, which takes one exponential of the summed logarithm."""
    one = TruncatedSeries.one(xu.order)
    return xu.scale(-e).exp() * (one - xu).log().scale(-c).exp()


def _chain_vectors(n_max, p):
    """B[0..n_max] and omega[0..n_max] read off the chained section factors."""
    s, head, xu = _rescaled(p, n_max + 1)
    lam, r = p.lam, p.r
    b = head * xu.pow_int(r * lam) * _chain_section(xu, lam, (r + 1) * lam)
    w = head * _chain_section(xu, 0, lam)
    return _unscale(b, s, n_max), _unscale(w, s, n_max)


def _typed(values):
    return [(type(v), v) for v in values]


_F = Fraction
POLYNOMIAL_U_POINTS = {  # beta/alpha = d, a nonnegative integer: u has degree d
    "d0": ParamSet.make(_F(1, 2), 0, _F(1, 3), _F(-3, 2), 2, 0),
    "d1": ParamSet.make(_F(1, 3), _F(1, 3), _F(-2, 5), -2, 2, 1),
    "d2": ParamSet.make(_F(-1, 2), -1, _F(7, 3), _F(3, 2), 3, 0),
    "d3": ParamSet.make(_F(2, 3), 2, _F(1, 2), _F(-1, 3), 1, 2),
    "d3-int": ParamSet.make(-2, -6, 3, _F(1, 2), 2, 1),
    "d4": ParamSet.make(_F(1, 4), 1, -1, _F(-5, 4), 2, 1),  # past the order at n_max 3
}
TRANSCENDENTAL_U_POINTS = {
    "alpha0": ParamSet.make(0, _F(2, 3), _F(-1, 2), _F(-3, 2), 2, 1),
    "d3/2": ParamSet.make(_F(1, 3), _F(1, 2), _F(-5, 7), 2, 2, 1),
    "d-6": ParamSet.make(_F(-1, 2), 3, _F(7, 3), _F(-1, 3), 1, 2),
}
SECTION_EDGE_POINTS = [
    ParamSet.make(0, 1, 0, 1, 0, 1),  # lam = 0
    ParamSet.make(1, 2, 2, 0, 2, 1),  # x = 0
    ParamSet.make(1, 1, 0, _F(-3, 2), 2, 1),  # negative x
    ParamSet.make(1, 0, 1, 2, 1, 0),  # beta = 0
    ParamSet.make(0, 1, _F(-2, 5), 1, 2, 2),  # gamma != 0
    ParamSet.make(_F(1, 3), 1, 1, 1, 1, 1),  # fractional alpha
    ParamSet.make(_F(-1, 2), _F(2, 3), _F(-2, 5), _F(-3, 2), 3, 2),
    *POLYNOMIAL_U_POINTS.values(),
    *TRANSCENDENTAL_U_POINTS.values(),
    # alpha = 0, where X^p F is read by p shift passes
    ParamSet.make(0, 2, 1, 0, 2, 1),  # x = 0
    ParamSet.make(0, 0, 1, 2, 2, 1),  # beta = 0
    ParamSet.make(0, _F(-3, 2), _F(1, 2), 1, 2, 1),  # beta < 0
    ParamSet.make(0, _F(1, 2), 1, _F(-5, 3), 1, 2),  # x = -5/3
    ParamSet.make(0, _F(2, 3), _F(1, 2), _F(3, 2), 3, 2),  # p = 6, gamma != 0
]


class TestSectionFactor:
    """Where u is a polynomial the section factor is read off its differential
    equation, elsewhere it is one exp of -c log(1 - xu) - e xu, and at alpha = 0
    X^p times it is p shift passes; the chained form with two exps, ``pow_int``
    and products is the oracle for all three."""

    @pytest.mark.parametrize("p", SECTION_EDGE_POINTS)
    def test_matches_chained_factors(self, p):
        for order in (0, 1, 3, 9):
            s, _, xu = _rescaled(p, order)
            for e, c in ((p.lam, (p.r + 1) * p.lam), (0, p.lam)):
                got = _gamma_free(p.alpha, p.beta, p.x, s, order, 0, e, c)
                want = _chain_section(xu, e, c)
                assert _typed(got._a) == _typed(want._a)

    @pytest.mark.parametrize("p", SECTION_EDGE_POINTS)
    def test_vectors_match_chained_route(self, p):
        for n_max in (0, 1, 3, 4, 7, 60):
            b, w = _chain_vectors(n_max, p)
            assert _typed(bell_egf(n_max, p)) == _typed(b)
            assert _typed(omega_egf(n_max, p)) == _typed(w)

    @pytest.mark.parametrize(
        "alpha, beta, gamma, x",
        [(1, 2, 2, 2), (_F(1, 3), _F(1, 2), 1, _F(3, 2))],
        ids=["polynomial-u", "dense-u"],
    )
    def test_depth_sixty_matches_closed_sums(self, alpha, beta, gamma, x):
        n_max, ns = 60, range(61)
        p1 = ParamSet.make(alpha, beta, gamma, x, 1, 1)
        p2 = p1.replace(lam=2)
        assert bell_egf(n_max, p1) == [bell_lambda1(n, p1) for n in ns]
        assert bell_egf(n_max, p2) == section_convolution(n_max, p2)
        assert omega_egf(n_max, p2) == [omega(n, p2) for n in ns]


class TestSectionFactorRoutes:
    """Where u = (1+alpha t)^(beta/alpha) - 1 is a polynomial, ``_gamma_free`` builds
    no log and no exp; elsewhere B and omega share one log and take one exp each."""

    @staticmethod
    def _counted_transcendentals(monkeypatch, p) -> dict:
        calls = {"exp": 0, "log": 0}
        for name in calls:
            method = getattr(TruncatedSeries, name)

            def counted(self, method=method, name=name):
                calls[name] += 1
                return method(self)

            monkeypatch.setattr(TruncatedSeries, name, counted)
        for cache in (_bell_egf, _gamma_free, _xu_and_log):
            cache.cache_clear()
        bell_egf(20, p)
        omega_egf(20, p)
        return calls

    @pytest.mark.parametrize("p", POLYNOMIAL_U_POINTS.values(), ids=list(POLYNOMIAL_U_POINTS))
    def test_polynomial_x_builds_no_exp_or_log(self, monkeypatch, p):
        assert self._counted_transcendentals(monkeypatch, p) == {"exp": 0, "log": 0}
        assert _xu_and_log.cache_info().currsize == 0

    @pytest.mark.parametrize("p", TRANSCENDENTAL_U_POINTS.values(), ids=list(TRANSCENDENTAL_U_POINTS))
    def test_transcendental_x_shares_one_log(self, monkeypatch, p):
        assert self._counted_transcendentals(monkeypatch, p) == {"exp": 2, "log": 1}
