"""Generalized Stirling numbers S(n, k; alpha, beta, gamma) by two routes.

The triangle route grows rows with the recurrence

    S(n+1, k) = S(n, k-1) + (k*beta - n*alpha + gamma) * S(n, k),   S(0, 0) = 1,

derived from the factorial-polynomial connection the family is defined by.
The series route extracts the same numbers from

    ((1+alpha t)^(beta/alpha) - 1)^k / beta^k * (1+alpha t)^(gamma/alpha)
        = k! * sum_n S(n, k) t^n / n!

which needs beta != 0; when beta = 0 the triangle is the only route.  The
two routes are cross-checked by the test suite rather than assumed equal.
Specializations: (0,1,0) gives the classical second-kind numbers, (0,1,r)
the r-Stirling numbers S(n+r, k+r) with 1..r separated, (0,beta,r) the
r-Whitney numbers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .exact import as_rat
from .series import TruncatedSeries, binpow

_ZERO = Fraction(0)
_ONE = Fraction(1)


class StirlingTable:
    """Memoized triangle of S(n, k) for one weight triple, grown on demand."""

    def __init__(self, alpha, beta, gamma):
        self.alpha = as_rat(alpha)
        self.beta = as_rat(beta)
        self.gamma = as_rat(gamma)
        self._rows = [(_ONE,)]

    def value(self, n: int, k: int) -> Fraction:
        if n < 0 or k < 0 or k > n:
            return _ZERO
        while len(self._rows) <= n:
            self._grow()
        return self._rows[n][k]

    def _grow(self):
        n = len(self._rows) - 1
        prev = self._rows[-1]
        a, b, g = self.alpha, self.beta, self.gamma
        nxt = []
        for k in range(n + 2):
            term = prev[k - 1] if 1 <= k <= n + 1 else _ZERO
            if k <= n:
                term += (k * b - n * a + g) * prev[k]
            nxt.append(term)
        self._rows.append(tuple(nxt))


_TABLES: dict = {}


def table(alpha, beta, gamma) -> StirlingTable:
    key = (as_rat(alpha), as_rat(beta), as_rat(gamma))
    tab = _TABLES.get(key)
    if tab is None:
        tab = _TABLES[key] = StirlingTable(*key)
    return tab


def stirling_rec(n: int, k: int, alpha, beta, gamma) -> Fraction:
    """Triangle-route value; out-of-triangle indices give 0."""
    return table(alpha, beta, gamma).value(n, k)


def stirling_egf(n: int, k: int, alpha, beta, gamma) -> Fraction:
    """Series-route value: n!/k! times the t^n coefficient of
    (u/beta)^k (1+alpha t)^(gamma/alpha) with u = (1+alpha t)^(beta/alpha) - 1."""
    alpha, beta, gamma = as_rat(alpha), as_rat(beta), as_rat(gamma)
    if beta == 0:
        raise ValueError("the series route divides by beta^k; use stirling_rec at beta = 0")
    # Read the series at t -> S t, S = lcm of the weight denominators, so every
    # EGF numerator is an integer; the t^n numerator then carries S^n.
    s = lcm(alpha.denominator, beta.denominator, gamma.denominator)
    work = n + 1  # one spare position past anything read
    u = binpow(alpha * s, beta * s, work) - TruncatedSeries.one(work)
    numer = u.pow_int(k) * binpow(alpha * s, gamma * s, work)
    return numer.egf_coeff(n) / (s**n * beta**k * factorial(k))

