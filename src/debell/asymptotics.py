"""Large-exponent behaviour of series-power coefficients.

For a base EGF Omega(t) = sum c_n t^n / n! with c_0 = 1 and an exponent
delta, the coefficient [t^n] Omega^delta expands as

    a(delta, n) / (delta)_n = sum_{f=0}^{m} W(n, f) / (delta-n+f)_f + remainder,

where W(n, f) = B_{n,n-f}(c_1, c_2, ...) / n!, the partial Bell polynomial
over the numerators (Comtet, Advanced Combinatorics, 1974, 3.3), a sum over
the partitions of its excess f.  The f-th term is O(delta^-f), so for fixed n
the remainder after order m is O(delta^-(m+1)).  At the full order m = n-1
the remainder is zero: expanding (1 + sum_i c_i t^i / i!)^delta gives
[t^n] = sum_{f=0}^{n-1} (delta)_{n-f} W(n, f) exactly.  ``expansion``
computes this weighted-sum form, (delta)_n times the partial sum above, since
(delta)_n / (delta-n+f)_f = (delta)_{n-f}.

Applied to the deranged-Bell family the base is c_i = B[i at lam=1], the
memoized vector ``bell.lambda1_sums``; the exact side, ``scaled_bell``, is B
at lam = delta with gamma scaled by delta.  Everything is evaluated in exact
rational arithmetic at finite delta.  For r >= 1 the base has c_0 = 0, which
breaks the Omega(0) = 1 premise; such runs are diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .bell import bell_egf, lambda1_sums
from .exact import ParamSet, falling


@lru_cache(maxsize=None)
def _excess_partitions(f: int, most: int) -> tuple:
    """The partitions of f into parts of at most ``most``, each exactly once, as
    tuples of (part, multiplicity) pairs with the parts descending."""
    if f == 0:
        return ((),)
    return tuple(((part, k),) + rest for part in range(min(f, most), 0, -1)
                 for k in range(1, f // part + 1)
                 for rest in _excess_partitions(f - part * k, part - 1))


def _check_base(c, f: int) -> None:
    """W(n, f) reads c_0..c_(f+1): a block of excess at most f has at most f+1 elements."""
    if len(c) < f + 2:
        raise ValueError(f"base sequence too short for f={f}: needs c_0..c_{f + 1}")


def w_from_base(c, n: int, f: int) -> Fraction:
    """W(n, f) = B_{n,n-f}(c) / n! by type: in a set partition of [n] into n-f
    blocks, the excesses |B| - 1 of the blocks of size >= 2 form a partition of
    f, k_j of them j, and the other ones = n-f-sum k_j blocks are singletons.
    The type counts n! / (ones! prod (j+1)!^{k_j} k_j!) set partitions of weight
    c_1^ones prod c_{j+1}^{k_j}, so the sum is an int wherever the c_i are."""
    if not 0 <= f <= n - 1:
        raise ValueError(f"f must satisfy 0 <= f <= n-1, got f={f}, n={n}")
    _check_base(c, f)
    total = 0
    for excess in _excess_partitions(f, f):
        ones = n - f - sum(k for _, k in excess)
        if ones < 0:
            continue
        count, prod = factorial(n) // factorial(ones), c[1] ** ones
        for j, k in excess:
            count //= factorial(j + 1) ** k * factorial(k)
            prod *= c[j + 1] ** k
        total += count * prod
    return Fraction(total, factorial(n))


def w_explicit(c, n: int, f: int) -> Fraction:
    """Fixed expanded forms of W(n, f) for f <= 5 over the numerators
    c_0..c_(f+1), evaluated literally, one term per partition of f (marked
    below), the index set of ``w_from_base``.  Each term b1^(n-g) prod b_i /
    (head! (n-g)!), with b_i = c_i / i! and g the elements outside singletons,
    is summed as an integer multiple of c1^(n-g) prod c_i, and the sum is
    divided once by the lcm of the term denominators.

    The f = 4 and f = 5 forms deviate from the generic partition sum in
    specific terms (marked below); they exist so the harness can record
    exactly where, and must not be "corrected"."""
    if f > 5:
        raise ValueError("expanded forms exist only for f <= 5")
    if f < 0 or n < 0:
        raise ValueError("n and f must be nonnegative")
    _check_base(c, f)
    terms = []  # (denominator, numerator)

    def term(head: int, g: int, parts=(), over: int = 1) -> None:
        # b1^(n-g) * prod(b_i for i in parts) / (head! * (n-g)! * over), dropped when n < g
        if n - g < 0:
            return
        den, num = factorial(head) * factorial(n - g) * over, c[1] ** (n - g)
        for i in parts:
            den *= factorial(i)
            num *= c[i]
        terms.append((den, num))

    if f == 0:
        term(0, 0)  # the empty partition
    elif f == 1:
        term(0, 2, (2,))  # 1
    elif f == 2:
        term(0, 3, (3,))  # 2
        term(2, 4, (2, 2))  # 1+1
    elif f == 3:
        term(0, 4, (4,))  # 3
        term(0, 5, (2, 3))  # 2+1
        term(3, 6, (2, 2, 2))  # 1+1+1
    elif f == 4:
        term(0, 5, (5,))  # 4
        term(2, 6, (3, 3))  # 2+2
        term(2, 7, (2, 2, 1), over=6)  # 2+1+1, variant term: b1, not b3, over 3!
        term(4, 8, (2, 2, 2, 2))  # 1+1+1+1
        term(2, 6, (2, 4))  # 3+1, variant term: carries an extra 1/2!
    else:
        term(0, 6, (6,))  # 5
        term(0, 7, (2, 5))  # 4+1
        term(0, 7, (4, 3))  # 3+2
        term(2, 8, (2, 2))  # 3+1+1, variant term: the b4 factor is absent
        term(2, 8, (2, 3, 3))  # 2+2+1
        term(3, 9, (2, 2, 2, 3))  # 2+1+1+1
        term(5, 10, (2, 2, 2, 2, 2))  # 1+1+1+1+1
    common = lcm(*(den for den, _ in terms))
    return Fraction(sum(common // den * num for den, num in terms), common)


def expansion(c, delta, n: int, m: int) -> Fraction:
    """sum_{f=0}^{m} (delta)_{n-f} W(n, f) over the numerators c_0, c_1, ..., c_n.

    For fixed n it differs from a(delta, n) = [t^n] Omega^delta by a relative
    O(delta^-(m+1)), and by nothing at m = n-1.  The sum itself is exact.
    """
    if not 0 <= m <= n - 1:
        raise ValueError(f"m must satisfy 0 <= m <= n-1, got m={m}, n={n}")
    if len(c) <= n:
        raise ValueError(f"base sequence too short for n={n}")
    return sum((falling(delta, n - f) * w_from_base(c, n, f) for f in range(m + 1)), Fraction(0))


@dataclass(frozen=True)
class AsymptoticComparison:
    delta: int
    estimate: Fraction
    exact: Fraction
    rel_error: Fraction | None
    status: str  # "ok" or "exact-zero"


def scaled_bell(n_max: int, delta: int, params: ParamSet) -> list:
    """The exact side: B[0..n_max] at lam = delta with gamma scaled to gamma*delta."""
    return bell_egf(n_max, params.replace(lam=delta, gamma=params.gamma * delta))


def bell_asymptotic_estimate(n: int, m: int, delta: int, params: ParamSet) -> AsymptoticComparison:
    """Compare the truncated expansion with the family's exact value.

    estimate = sum_{f=0}^{m} (delta)_{n-f} W(n, f) over c = lambda1_sums(n, params);
    exact    = scaled_bell(n, delta, params)[n] / n!.

    For fixed n and c_1 != 0, rel_error is O(delta^-(m+1)): each tenfold
    step in delta cuts it by about 10^(m+1).  At m = n-1 the sum is exact
    and rel_error is 0 at every delta.

    delta must be an integer >= n (the exact side needs an integer exponent
    and (delta)_n must not vanish).  A zero exact value is reported as the
    distinct status "exact-zero" instead of dividing.
    """
    if not isinstance(delta, int) or delta < n:
        raise ValueError("delta must be an integer >= n")
    estimate = expansion(lambda1_sums(n, params), delta, n, m)
    exact = Fraction(scaled_bell(n, delta, params)[n], factorial(n))
    if exact == 0:
        return AsymptoticComparison(delta, estimate, exact, None, "exact-zero")
    return AsymptoticComparison(delta, estimate, exact, abs(estimate / exact - 1), "ok")
