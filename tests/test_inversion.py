"""Stirling inversion: every closed sum V[n] = sum_k S(n,k; alpha,beta,gamma) c_k is turned
back into its weights c_m by the dual triangle, sum_n S(m,n; beta,alpha,-gamma) V[n] = c_m
(Hsu and Shiue, "A unified approach to generalized Stirling numbers", Adv. Appl. Math. 20
(1998) 366-384).  Read off ``bell_egf``, that checks the defining series route against the
derangement weights d_lam(k, r) (x beta)^k with no series code and no forward Stirling table
on the other side, at a polynomial u, where the section factor comes from its differential
equation, and at a transcendental u, where it is an exp of a log."""

from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import pytest

from debell.bell import (
    _bell_egf,
    _gamma_free,
    _xu_and_log,
    bell_egf,
    general_closed_sums,
    omega_egf,
)
from debell.derangements import r_derangement
from debell.exact import ParamSet
from debell.stirling import stirling_rec

TOP = 12

TRIPLES = {  # (alpha, beta, gamma) -> how u = (1+alpha t)^(beta/alpha) - 1 is read
    (F(1, 3), F(1, 2), F(-5, 7)): "transcendental",  # beta/alpha = 3/2
    (F(-1, 2), 3, F(7, 3)): "transcendental",  # beta/alpha = -6
    (2, 0, 1): "polynomial",  # u = 0
    (0, 0, 3): "transcendental",  # alpha = 0, u = 0
    (F(1, 3), 1, F(-1, 2)): "polynomial",  # degree 3
    (-1, -2, F(1, 2)): "polynomial",  # degree 2
    (0, F(2, 3), -1): "transcendental",  # u = e^(2t/3) - 1
}


def dual_triangle(alpha, beta, gamma, top: int = TOP) -> list:
    """Rows 0..top of S(n,k; beta,alpha,-gamma) from the triangle recurrence with the weights
    swapped and gamma negated, S(n+1,k) = S(n,k-1) + (k alpha - n beta - gamma) S(n,k), in
    Fractions: the inverse of the (alpha, beta, gamma) triangle."""
    rows = [[F(1)]]
    for n in range(top):
        prev = rows[-1] + [F(0)]
        rows.append([(prev[k - 1] if k else 0) + (k * alpha - n * beta - gamma) * prev[k]
                     for k in range(n + 2)])
    return rows


def invert(dual: list, values: list) -> list:
    """c_m = sum_n S(m,n; beta,alpha,-gamma) V[n] for m = 0..len(values)-1."""
    return [sum(s * v for s, v in zip(dual[m], values)) for m in range(len(values))]


@pytest.mark.parametrize("triple", TRIPLES, ids=str)
def test_hsu_shiue_orthogonality(triple):
    """Both products of the triangle and its dual are the identity for n <= 12."""
    dual = dual_triangle(*triple)
    forward = [[stirling_rec(n, k, *triple) for k in range(n + 1)] for n in range(TOP + 1)]
    for n, m in product(range(TOP + 1), repeat=2):
        unit = int(n == m)
        assert sum(forward[n][k] * dual[k][m] for k in range(m, n + 1)) == unit, (n, m)
        assert sum(dual[n][k] * forward[k][m] for k in range(m, n + 1)) == unit, (n, m)


def test_the_triples_reach_both_section_routes():
    """A cold B build reads a log of 1 - x u only where u is not a polynomial."""
    assert set(TRIPLES.values()) == {"polynomial", "transcendental"}
    for triple, route in TRIPLES.items():
        for cache in (_bell_egf, _gamma_free, _xu_and_log):
            cache.cache_clear()
        bell_egf(TOP, ParamSet.make(*triple, 1, 1, 1))
        assert _xu_and_log.cache_info().currsize == (route == "transcendental"), triple


@pytest.mark.parametrize("triple", TRIPLES, ids=str)
def test_bell_egf_inverts_to_the_derangement_weights(triple):
    dual = dual_triangle(*triple)
    beta = triple[1]
    for x, lam, r in product((1, 2, F(3, 2), F(-1, 3)), range(4), range(3)):
        b = bell_egf(TOP, ParamSet.make(*triple, x, lam, r))
        want = [r_derangement(k, r, lam) * (x * beta) ** k for k in range(TOP + 1)]
        assert invert(dual, b) == want, (x, lam, r)


@pytest.mark.parametrize("triple", TRIPLES, ids=str)
def test_omega_egf_inverts_to_its_weights(triple):
    dual = dual_triangle(*triple)
    beta = triple[1]
    for x, lam in product((1, F(-3, 2)), range(4)):
        w = omega_egf(TOP, ParamSet.make(*triple, x, lam, 0))
        want = [comb(k + lam - 1, k) * factorial(k) * (x * beta) ** k if lam else int(k == 0)
                for k in range(TOP + 1)]
        assert invert(dual, w) == want, (x, lam)


def test_general_closed_sums_invert_to_their_binomial_weights():
    """T33's sums keep their weights C(k+r+lam-1, k+r) d(k,r) (x beta)^k; at lam = 2 they
    differ from B's d_2(k, r) (x beta)^k, and the inversion shows at which k."""
    triple = (F(1, 3), 1, F(-1, 2))
    dual = dual_triangle(*triple)
    x, lam, r = 2, 2, 1
    p = ParamSet.make(*triple, x, lam, r)
    got = invert(dual, general_closed_sums(TOP, p))
    assert got == [comb(k + r + lam - 1, k + r) * r_derangement(k, r) * x**k for k in range(TOP + 1)]
    b = invert(dual, bell_egf(TOP, p))
    assert [k for k in range(TOP + 1) if got[k] != b[k]][:2] == [1, 2]
