"""Every closed route equals the series route at every parameter point, for n <= 4.

At fixed (n, lam, r) each route's entry n is a polynomial in (alpha, beta, gamma, x)
of degree at most n in each variable:

- ``bell_egf``, ``omega_egf`` and ``product_power`` read n! [t^n] of the head
  (1 + alpha t)^(gamma/alpha) times a power series in X = x u, with
  u = (1 + alpha t)^(beta/alpha) - 1.  The head's numerators (gamma|alpha)_j have
  degree j in gamma and j - 1 in alpha; u's numerators (beta|alpha)_j, j >= 1, have
  degree j in beta and j - 1 in alpha; X^m starts at t^m and carries x^m.  The t^n
  numerator sums products whose indices add to n, so each degree is at most n.
- The closed sums ``bell_closed_lam``, ``lambda1_sums``, ``bell_lambda1``, ``omega_sums``
  and ``omega`` are sum_k w_k (x beta)^k S(n, k).  By the triangle recurrence S(n, k)
  sums products of n - k linear factors k beta - m alpha + gamma, so its degree is at
  most n - k in alpha, beta and gamma, and (x beta)^k adds k in x and beta.
- ``section_convolution`` sums multinomial multiples of (gamma|alpha)_(i_0) times
  B_1[i_1] ... B_1[i_lam] over i_0 + ... + i_lam = n, where B_1[i] is a lam = 1 closed
  sum of degree at most i.
- ``fixed_block_sums`` sums C(n, i) B[i] times a closed sum at n - i, of degrees at
  most i and n - i; it equals omega at r = 0.

A polynomial of degree at most n in each of its variables that vanishes on a grid
S^4 with |S| = n + 1 vanishes everywhere (Alon, "Combinatorial Nullstellensatz",
Combin. Probab. Comput. 8 (1999), Lemma 2.1).  So two routes that agree on that grid
agree at every complex (alpha, beta, gamma, x), at that n, lam and r.  The axis
S = (0, 1, 1/2, -2, -1/3)[:n + 1] reaches alpha = 0 and both integral and
non-integral beta/alpha, so both branches of the gamma-free factor are read.
``tests/oracle_sweep.py`` runs the same checks at n = 5 and 6 on seven axis values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from debell.bell import (
    bell_closed_lam,
    bell_egf,
    bell_lambda1,
    fixed_block_sums,
    lambda1_sums,
    omega,
    omega_egf,
    omega_sums,
    product_power,
    section_convolution,
)
from debell.exact import ParamSet

AXIS = (0, 1, Fraction(1, 2), -2, Fraction(-1, 3), 2, Fraction(-3, 2))


def identity_checks(n: int):
    """(route, point, its entry n, the series route's entry n) for every route pair,
    at every point of AXIS[:n + 1]^4 and every lam, r in 0..2; omega reads no r, so
    its routes are checked at r = 0."""
    for lam, r, (a, b, g, x) in product(range(3), range(3), product(AXIS[: n + 1], repeat=4)):
        p = ParamSet.make(a, b, g, x, lam, r)
        bell_n = bell_egf(n, p)[n]
        yield "bell_closed_lam", p, bell_closed_lam(n, p)[n], bell_n
        if lam == 1:
            yield "lambda1_sums", p, lambda1_sums(n, p)[n], bell_n
            yield "bell_lambda1", p, bell_lambda1(n, p), bell_n
        if lam >= 1:
            yield "section_convolution", p, section_convolution(n, p)[n], bell_n
            yield "product_power", p, product_power(n, p)[n], bell_n
        if r == 0:
            omega_n = omega_egf(n, p)[n]
            yield "omega_sums", p, omega_sums(n, p)[n], omega_n
            yield "omega", p, omega(n, p), omega_n
            yield "fixed_block_sums", p, fixed_block_sums(n, p)[n], omega_n


@pytest.mark.parametrize("n", range(5))
def test_closed_routes_equal_the_series_route_on_the_grid(n):
    mismatches = [(route, p) for route, p, got, want in identity_checks(n) if got != want]
    assert mismatches == []
