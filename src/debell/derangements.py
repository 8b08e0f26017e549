"""r-derangement numbers d_{k,r} and their higher-order form d_lam(k, r).

d_{k,r} counts derangements of [k+r] whose first r elements lie in pairwise
distinct cycles (r = 0 gives the classical derangement numbers d_k).  One
memoized table, ``r_derangement(k, r, lam)``, holds the finite sum for d_lam(k, r)
at every (k, r, lam); its lam = 1 entries are d_{k,r}.  Two routes independent
of it check those: extraction from the generating function
t^r e^{-t} / (1-t)^{r+1}, and the pivot recurrence

    d_{k,r} = sum_{j=s}^{k} C(j-1, s-1) * k!/(k-j)! * d_{k-j, r-s}

valid for every pivot s in 1..r, whose sub-values it reads from the table.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm

from .exact import binomial
from .series import binpow


def r_derangement_egf(k: int, r: int) -> int:
    """k! times the t^k coefficient of t^r e^{-t} / (1-t)^{r+1}: with
    g = e^{-t} / (1-t)^{r+1} read at order k - r, that is k!/(k-r)! g_(k-r).  The
    polynomial (1-t)^{r+1} = ``binpow(-1, -(r+1))`` is inverted in O(N r) products,
    and the factor e^{-t} taken by ``times_exp(-1)``'s shift passes."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    if r > k:
        return 0
    order = k - r
    g = binpow(-1, -(r + 1), order).inverse().times_exp(-1)
    value = perm(k, r) * g.egf_coeff(order)
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"d_({k},{r}) not a nonnegative integer: {value}")
    return int(value)


@lru_cache(maxsize=None)
def r_derangement(k: int, r: int, lam: int = 1) -> int:
    """Canonical d_lam(k, r) = k! [t^k] (t^r e^{-t} / (1-t)^{r+1})^lam, memoized; lam = 1
    gives d_{k,r}.  It is the lam-fold binomial convolution of d_{., r}: with m = k - r lam
    and c = (r+1) lam, the sum over i = 0..m of C(i+c-1, i) (-lam)^(m-i) k!/(m-i)!, in
    ints (0 when m < 0)."""
    if k < 0 or r < 0 or lam < 0:
        raise ValueError("k, r and lam must be nonnegative")
    m, c = k - r * lam, (r + 1) * lam
    return sum(binomial(i + c - 1, i) * (-lam) ** (m - i) * perm(k, k - m + i)
               for i in range(m + 1))


def r_derangement_rec(k: int, r: int, s: int) -> int:
    """Pivot-s recurrence value; sub-values come from the canonical table."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not 1 <= s <= r:
        raise ValueError(f"pivot s={s} outside 1..{r}")
    return sum(binomial(j - 1, s - 1) * perm(k, j) * r_derangement(k - j, r - s, 1)
               for j in range(s, k + 1))
