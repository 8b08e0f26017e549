"""Large-exponent behaviour of series-power coefficients.

For a base EGF Omega(t) = sum c_n t^n / n! with c_0 = 1 and an exponent
delta, the coefficient [t^n] Omega^delta expands as

    a(delta, n) / (delta)_n = sum_{f=0}^{m} W(n, f) / (delta-n+f)_f + remainder,

where W(n, f) = B_{n,n-f}(c_1, c_2, ...) / n!, the partial Bell polynomial
over the numerators (Comtet, Advanced Combinatorics, 1974, 3.3).  The f-th
term is O(delta^-f), so for fixed n the remainder after order m is
O(delta^-(m+1)).  At the full order m = n-1 the remainder is zero: expanding
(1 + sum_i c_i t^i / i!)^delta gives [t^n] = sum_{f=0}^{n-1} (delta)_{n-f}
W(n, f) exactly.  ``expansion`` computes this weighted-sum form, (delta)_n
times the partial sum above, since (delta)_n / (delta-n+f)_f = (delta)_{n-f}.

Applied to the deranged-Bell family the base is c_i = B[i at lam=1], the
memoized vector ``bell.lambda1_sums``; the exact side is B[n] at lam = delta
with gamma scaled by delta, and everything is evaluated in exact rational
arithmetic at finite delta.  For r >= 1 the base has c_0 = 0, which breaks
the Omega(0) = 1 premise; such runs are diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .bell import bell_egf, lambda1_sums
from .exact import ParamSet, falling

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def partitions_with_parts(n: int, k: int) -> tuple:
    """All partitions of n with exactly k parts, each exactly once, as
    multiplicity tuples: mult[i-1] copies of the part i."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")

    results = []

    def rec(remaining, parts_left, max_part, acc):
        if parts_left == 0:
            if remaining == 0:
                mult = [0] * n
                for p in acc:
                    mult[p - 1] += 1
                results.append(tuple(mult))
            return
        # each remaining part is at least 1 and at most max_part
        lo = -(-remaining // parts_left)  # ceil: parts are nonincreasing
        hi = min(max_part, remaining - (parts_left - 1))
        for p in range(hi, lo - 1, -1):
            rec(remaining - p, parts_left - 1, p, acc + [p])

    if n == 0 and k == 0:
        return ((),)
    rec(n, k, n, [])
    return tuple(results)


def _check_base(c, f: int) -> None:
    """W(n, f) reads c_0..c_(f+1): parts of n into n-f parts are at most f+1."""
    if len(c) < f + 2:
        raise ValueError(f"base sequence too short for f={f}: needs c_0..c_{f + 1}")


def w_from_base(c, n: int, f: int) -> Fraction:
    """W(n, f) = B_{n,n-f}(c) / n!, the partial Bell polynomial summed over the
    partitions of n with n-f parts as sum n!/prod(i!^{k_i} k_i!) prod c_i^{k_i}:
    each coefficient counts the set partitions of that type, so the sum is an
    int wherever the c_i are."""
    if not 0 <= f <= n - 1:
        raise ValueError(f"f must satisfy 0 <= f <= n-1, got f={f}, n={n}")
    _check_base(c, f)
    total = 0
    for mult in partitions_with_parts(n, n - f):
        count, prod = factorial(n), 1
        for i, k in enumerate(mult[: f + 1], 1):
            if k:
                count //= factorial(i) ** k * factorial(k)
                prod *= c[i] ** k
        total += count * prod
    return Fraction(total, factorial(n))


def w_explicit(c, n: int, f: int) -> Fraction:
    """Fixed expanded forms of W(n, f) for f <= 5 over the numerators
    c_0..c_(f+1), evaluated literally.

    Each term b1^(n-excess) prod b_i / (head! (n-excess)!), with b_i = c_i / i!,
    is summed as an integer multiple of c1^(n-excess) prod c_i, and the sum is
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

    def term(head: int, excess: int, parts=(), over: int = 1) -> None:
        # b1^(n-excess) * prod(b_i for i in parts) / (head! * (n-excess)! * over),
        # dropped when n < excess
        if n - excess < 0:
            return
        den, num = factorial(head) * factorial(n - excess) * over, c[1] ** (n - excess)
        for i in parts:
            den *= factorial(i)
            num *= c[i]
        terms.append((den, num))

    if f == 0:
        term(0, 0)
    elif f == 1:
        term(0, 2, (2,))
    elif f == 2:
        term(0, 3, (3,))
        term(2, 4, (2, 2))
    elif f == 3:
        term(0, 4, (4,))
        term(0, 5, (2, 3))
        term(3, 6, (2, 2, 2))
    elif f == 4:
        term(0, 5, (5,))
        term(2, 6, (3, 3))
        term(2, 7, (2, 2, 1), over=6)  # variant term: b1, not b3, over 3!
        term(4, 8, (2, 2, 2, 2))
        term(2, 6, (2, 4))  # variant term: carries an extra 1/2!
    else:
        term(0, 6, (6,))
        term(0, 7, (2, 5))
        term(0, 7, (4, 3))
        term(2, 8, (2, 2))  # variant term: the b4 factor is absent
        term(2, 8, (2, 3, 3))
        term(3, 9, (2, 2, 2, 3))
        term(5, 10, (2, 2, 2, 2, 2))
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
    return sum((falling(delta, n - f) * w_from_base(c, n, f) for f in range(m + 1)), _ZERO)


@dataclass(frozen=True)
class AsymptoticComparison:
    delta: int
    estimate: Fraction
    exact: Fraction
    rel_error: Fraction | None
    status: str  # "ok" or "exact-zero"


def bell_asymptotic_estimate(n: int, m: int, delta: int, params: ParamSet) -> AsymptoticComparison:
    """Compare the truncated expansion with the family's exact value.

    estimate = sum_{f=0}^{m} (delta)_{n-f} W(n, f) over c = lambda1_sums(n, params);
    exact    = B[n] at lam = delta with gamma scaled to gamma*delta, over n!.

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
    scaled = params.replace(lam=delta, gamma=params.gamma * delta)
    exact = Fraction(bell_egf(n, scaled)[n], factorial(n))
    if exact == 0:
        return AsymptoticComparison(delta, estimate, exact, None, "exact-zero")
    return AsymptoticComparison(delta, estimate, exact, abs(estimate / exact - 1), "ok")
