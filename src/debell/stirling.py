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

The triangle is stored as ``int``s, with ``Fraction`` only at the public
boundary (``value``, ``stirling_rec``).  With S the lcm of the weight
denominators, the same recurrence at the integer weights (S alpha, S beta,
S gamma) yields T(n, k) = S^(n-k) S(n, k); row n of the table holds those
scaled values, which are S(n, k) itself when S = 1.

The closed sums sum_k w_k c^k S(n, k) read the scaled rows against the ladder
w_k (c S)^k in ``weighted_sums``, which builds the ladder once, to the last row of
its range of rows, grows the table once to that row and reads its range of rows as
one slice of the stored rows, each row one dot product; a scalar is one row.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul

from .exact import as_rat, narrow
from .series import TruncatedSeries, binpow

_ZERO = Fraction(0)


class StirlingTable:
    """Memoized triangle of S(n, k) for one weight triple, grown on demand
    and stored scaled: row n holds the ints T(n, k) = S^(n-k) S(n, k)."""

    def __init__(self, alpha, beta, gamma):
        weights = (as_rat(alpha), as_rat(beta), as_rat(gamma))
        self.scale = lcm(*(w.denominator for w in weights))
        self._weights = tuple(int(w * self.scale) for w in weights)
        self._rows = [(1,)]

    def row(self, n: int) -> tuple:
        """T(n, k) = S^(n-k) S(n, k) for k = 0..n, as ints."""
        if n < 0:
            raise ValueError(f"row index must be nonnegative, got {n}")
        while len(self._rows) <= n:
            self._grow()
        return self._rows[n]

    def value(self, n: int, k: int) -> Fraction:
        if n < 0 or k < 0 or k > n:
            return _ZERO
        return Fraction(self.row(n)[k], self.scale ** (n - k))

    def weighted_sums(self, rows: range, c, weights) -> list:
        """sum_k weights[k] c^k S(n, k) at each n of the ascending ``rows`` (range(n_max + 1)
        for a vector, range(n, n + 1) for a scalar), read off the scaled row as S^-n sum_k
        weights[k] (c S)^k T(n, k) against one ladder built to the last row; ints where
        integral.  ``weights`` yields the k-th weight at k = 0, 1, ..."""
        if not rows or rows[0] < 0 or rows.step < 0:
            raise ValueError(f"rows must be a nonempty ascending range of rows >= 0, got {rows}")
        ladder, denominator = self._ladder(rows[-1], c, weights)
        self.row(rows[-1])  # grows the table through the last row, once
        sums, scale = [], self.scale
        for n, row in zip(rows, self._rows[rows.start:rows.stop:rows.step]):
            total = sum(map(mul, ladder, row))
            scaled = denominator * scale**n
            sums.append(narrow(total if scaled == 1 else Fraction(total, scaled)))
        return sums

    def _ladder(self, n_max: int, c, weights) -> tuple:
        """q^n_max weights[k] (c S)^k = weights[k] p^k q^(n_max-k) for k = 0..n_max with
        c S = p/q, so ints (for int weights) whatever c is, and q^n_max to divide by."""
        p, q = (c * self.scale).as_integer_ratio()
        ladder, power = [], 1
        for k, w in zip(range(n_max + 1), weights):
            ladder.append(w * power * q ** (n_max - k))
            power *= p
        return ladder, q**n_max

    def _grow(self):
        n = len(self._rows) - 1
        prev = self._rows[-1]
        a, b, g = self._weights
        nxt = [0] * (n + 2)
        for k, t in enumerate(prev):
            nxt[k] += (k * b - n * a + g) * t
            nxt[k + 1] += t
        self._rows.append(tuple(nxt))


_TABLES: dict = {}


def table(alpha, beta, gamma) -> StirlingTable:
    key = (narrow(alpha), narrow(beta), narrow(gamma))  # ints hash fast
    tab = _TABLES.get(key)
    if tab is None:
        tab = _TABLES[key] = StirlingTable(*key)
    return tab


def stirling_rec(n: int, k: int, alpha, beta, gamma) -> Fraction:
    """Triangle-route value; out-of-triangle indices give 0."""
    return table(alpha, beta, gamma).value(n, k)


def stirling_egf(n: int, k: int, alpha, beta, gamma) -> Fraction:
    """Series-route value: n!/k! times the t^n coefficient of
    (u/beta)^k (1+alpha t)^(gamma/alpha) with u = (1+alpha t)^(beta/alpha) - 1;
    out-of-triangle indices give 0, as on the triangle route."""
    alpha, beta, gamma = as_rat(alpha), as_rat(beta), as_rat(gamma)
    if beta == 0:
        raise ValueError("the series route divides by beta^k; use stirling_rec at beta = 0")
    if n < 0 or k < 0:
        return _ZERO
    # Read the series at t -> S t, S = lcm of the weight denominators, so every
    # EGF numerator is an integer; built at order n, the series ends at the t^n
    # numerator, which carries S^n.
    s = lcm(alpha.denominator, beta.denominator, gamma.denominator)
    u = binpow(alpha * s, beta * s, n) - TruncatedSeries.one(n)
    numer = u.pow_int(k) * binpow(alpha * s, gamma * s, n)
    return numer.egf_coeff(n) / (s**n * beta**k * factorial(k))

