"""Derangement numbers d_n and r-derangement numbers d_{k,r}.

d_{k,r} counts derangements of [k+r] whose first r elements lie in pairwise
distinct cycles.  Three independent routes are provided: the classical
closed form (for the r = 0 row), extraction from the generating function
t^r e^{-t} / (1-t)^{r+1}, and the pivot recurrence

    d_{k,r} = sum_{j=s}^{k} C(j-1, s-1) * k!/(k-j)! * d_{k-j, r-s}

valid for every pivot s in 1..r, with the r = 0 base row supplied by the
classical numbers (d_{k,0} = d_k, d_{0,0} = 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact import binomial
from .series import TruncatedSeries, binpow


def derangement(n: int) -> int:
    """d_n = n! * sum_{i<=n} (-1)^i / i!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = factorial(n) * sum(Fraction((-1) ** i, factorial(i)) for i in range(n + 1))
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"derangement({n}) not a nonnegative integer: {total}")
    return int(total)


def r_derangement_egf(k: int, r: int) -> int:
    """k! times the t^k coefficient of t^r e^{-t} / (1-t)^{r+1}."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    work = k + 1
    if r > work:
        return 0
    one_minus_t = TruncatedSeries.one(work) - TruncatedSeries.monomial(1, 1, work)
    ser = one_minus_t.inverse().pow_int(r + 1) * binpow(0, -1, work)
    if r:
        ser = ser * TruncatedSeries.monomial(1, r, work)
    value = ser.egf_coeff(k)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"d_({k},{r}) not a nonnegative integer: {value}")
    return int(value)


@lru_cache(maxsize=None)
def r_derangement(k: int, r: int) -> int:
    """Canonical d_{k,r}: the classical closed form for r = 0, otherwise the
    pivot recurrence at s = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r == 0:
        return derangement(k)
    return r_derangement_rec(k, r, 1)


def r_derangement_rec(k: int, r: int, s: int) -> int:
    """Pivot-s recurrence value; sub-values come from the canonical table."""
    if not 1 <= s <= r:
        raise ValueError(f"pivot s={s} outside 1..{r}")
    total = 0
    fk = factorial(k)
    for j in range(s, k + 1):
        total += binomial(j - 1, s - 1) * (fk // factorial(k - j)) * r_derangement(k - j, r - s)
    return total
