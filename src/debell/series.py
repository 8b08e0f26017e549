"""Truncated formal power series, stored as EGF numerators.

A series sum_n c_n t^n of order N is held as a_n = n! c_n, n = 0..N, and the
constructor takes these numerators a_0..a_N.  Every operation truncates at
that order, and binary operations require equal orders.  A product is the
binomial convolution (fg)_n = sum_k C(n,k) f_k g_{n-k}; exp and log use the
EGF forms of the O(N^2) differential recurrences, and exp sums the terms k and
m-k of its recurrence as one pair under their common binomial C(m,k) =
C(m,m-k), which halves its binomial products and lets it grow only the half
Pascal row C(m, 0..m/2) it reads.  A product sums only up to the degree d (the
last nonzero numerator) of its lower-degree operand, and log only up to the
degree of its argument, so with a degree-d polynomial each costs O(N d)
coefficient products rather than O(N^2); a product of polynomials stops at the
sum of their degrees, and a constant operand, the unit series included, makes
the product one scaling pass of N + 1 products.  ``times_exp(c)`` multiplies
by exp(c t), c an int, with no binomial: h_n = ((E + c)^n f)_0, E the index
shift, is N passes of additions and products by c.  ``ode`` solves a G' = b G,
G(0) = 1, for a with constant term 1 by the EGF form of the same recurrence,
its sums stopping at the degrees of a and b: with polynomial a and b of degree
at most d it costs O(N d) products, where exp costs O(N^2).  ``inverse`` is a
reader of ``ode`` (1/f solves f h' = -f' h), O(N^2) only for a dense f, and
divides only in scaling f to constant term 1 and back, so integer numerators
at constant term +-1 stay ``int`` and no gcd is paid; other entries are
``Fraction``s.  There is deliberately no asymptotically fast multiplication.
Reading a series at t -> S t multiplies a_n by S^n; the family routes in
``bell`` use this to make rational weights integral.  ``egf_coeff(n)``
reads a_n back (an ``int`` where integral), ``egf_coeffs`` every a_n at once,
and ``coeffs`` gives the ordinary coefficients c_n as ``Fraction``s.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial
from operator import add, mul, sub
from typing import Iterable

from .exact import as_rat, narrow


def _next_row(row: list) -> list:
    """Row n+1 of Pascal's triangle from row n."""
    return [1, *map(add, row, row[1:]), 1]


def _degree(nums) -> int:
    """Index of the last nonzero entry of ``nums``, or -1 if there is none."""
    d = len(nums) - 1
    while d >= 0 and nums[d] == 0:
        d -= 1
    return d


def _check_order(order: int) -> None:
    """A series of order N holds N + 1 numerators, so N must be nonnegative."""
    if order < 0:
        raise ValueError(f"a series order must be nonnegative, got {order}")


def _dot3(xs, ys, zs):
    """sum_i xs[i] ys[i] zs[i] over the shortest of the three."""
    return sum(map(mul, map(mul, xs, ys), zs))


class TruncatedSeries:
    __slots__ = ("_a",)

    def __init__(self, nums: Iterable):
        """The series with EGF numerators ``nums``: a_n = n! c_n, n = 0..order."""
        self._a = tuple(nums)
        if not self._a:
            raise ValueError("a series needs at least the constant coefficient")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        _check_order(order)
        return cls([1] + [0] * order)

    # -- basic protocol -------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The ordinary coefficients c_n = a_n / n!."""
        return tuple(as_rat(a) / factorial(n) for n, a in enumerate(self._a))

    @property
    def order(self) -> int:
        return len(self._a) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self._a == other._a

    def __repr__(self):
        head = ", ".join(map(str, self._a[:6]))
        tail = ", ..." if self.order > 5 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def _same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    # -- ring operations ------------------------------------------------------

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        return TruncatedSeries(a - b for a, b in zip(self._a, other._a))

    def scale(self, c) -> "TruncatedSeries":
        c = narrow(c)
        return TruncatedSeries(narrow(c * a) for a in self._a)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Binomial convolution.  The sum stops at the degree d (the last
        nonzero numerator) of the lower-degree operand: O(N d) products, and
        it runs only up to index deg a + deg b (0 for a zero operand), past
        which every numerator is an ``int`` 0.  At d = 0 that operand is a
        constant c, and the product is the scaling c b_n in one pass,
        unnarrowed like the convolution's single term."""
        self._same_order(other)
        a, b = self._a, other._a
        da, db = _degree(a), _degree(b)
        top = min(self.order, da + db) if min(da, db) >= 0 else 0  # the last index summed
        if da > db:
            a, b, da = b, a, db
        if da == 0:
            return TruncatedSeries(map(mul, repeat(a[0]), b))
        a = a[: da + 1]
        width = len(a)
        out, row = [], [1]
        for n in range(top + 1):
            window = b[n::-1] if n < width else b[n : n - width : -1]  # b_n down to b_(n-d)
            out.append(_dot3(row, a, window))
            row = _next_row(row)[:width]
        return TruncatedSeries(out + [0] * (self.order - top))

    def times_exp(self, c: int) -> "TruncatedSeries":
        """This series times exp(c t), c an int.  Its numerators are
        h_n = ((E + c)^n f)_0, E the index shift, so each h_n is one pass
        v_i <- v_(i+1) + c v_i over the numerators: additions and products by c
        (none at c = +-1), no binomial, and ints stay ints."""
        step = {1: add, -1: sub}.get(c)  # v_(i+1) +- v_i
        v = list(self._a)
        out = [v[0]]
        for _ in range(self.order):
            v = list(map(step, v[1:], v) if step else map(add, v[1:], map(mul, repeat(c), v)))
            out.append(v[0])
        return TruncatedSeries(out)

    # -- multiplicative transcendentals ---------------------------------------

    def inverse(self) -> "TruncatedSeries":
        """Reciprocal series; requires a nonzero constant term.
        h = 1/f solves f h' = -f' h, so with u = f/f_0 (constant term 1) it is u.ode(-u')
        scaled by 1/f_0, u' being u's numerators shifted down one index.  Those two
        scalings are its only division; O(N d) products for f of degree d, O(N^2) dense."""
        if self._a[0] == 0:
            raise ValueError("inverse requires a nonzero constant term")
        inv0 = 1 / as_rat(self._a[0])
        u = self.scale(inv0)
        minus_slope = TruncatedSeries([*(-a for a in u._a[1:]), 0])  # -u', padded to u's order
        return u.ode(minus_slope).scale(inv0)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; requires constant term 0.
        h = exp(g): h_{m+1} = sum_{k=0}^m C(m,k) g_{k+1} h_{m-k}.  As C(m,k) = C(m,m-k),
        the terms k and m-k share one binomial: k < m/2 sums C(m,k) (g_{k+1} h_{m-k}
        + g_{m-k+1} h_k), and an even m adds its middle term C(m,m/2) g_{m/2+1} h_{m/2}."""
        g = self._a
        if g[0] != 0:
            raise ValueError("exp requires constant term 0")
        tail = g[1:]
        out, row = [1], [1]  # row: the half row C(m, 0..m//2)
        for m in range(len(tail)):
            half = (m + 1) // 2  # the pairs k = 0..half-1; map stops at row[:half]
            pairs = map(add, map(mul, tail, reversed(out)), map(mul, tail[m::-1], out))
            total = sum(map(mul, row[:half], pairs))
            if not m & 1:
                total += row[half] * tail[half] * out[half]
            out.append(total)
            row = [1, *map(add, row, row[1:])] + ([2 * row[-1]] if m & 1 else [])
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant term 1.
        g = log(f) from f' = g'f: g_{m+1} = f_{m+1} - sum_{j=1}^{min(m,d)} C(m,j) f_j g_{m+1-j},
        d the degree of f, so a polynomial f costs O(N d) products."""
        f = self._a
        if f[0] != 1:
            raise ValueError("log requires constant term 1")
        d = _degree(f)
        tail = f[1 : d + 1]
        out, row = [0], [1]
        for m in range(len(f) - 1):
            out.append(f[m + 1] - _dot3(row[1:], tail, out[m : max(m - d, 0) : -1]))
            row = _next_row(row)[: d + 1]
        return TruncatedSeries(out)

    def ode(self, b: "TruncatedSeries") -> "TruncatedSeries":
        """The G with G(0) = 1 and a G' = b G, a this series; requires a's constant term 1.
        G_{m+1} = sum_k C(m,k) b_k G_{m-k} - sum_{k>=1} C(m,k) a_k G_{m+1-k}, read as one
        dot product sum_j (C(m,j) b_j - C(m,j+1) a_{j+1}) G_{m-j} that stops at
        j = max(deg b, deg a - 1); neither a_N nor b_N is read.  Division-free, and with
        polynomial a and b of degree at most d it costs O(N d) coefficient products."""
        self._same_order(b)
        a = self._a
        if a[0] != 1:
            raise ValueError("ode requires a constant term 1")
        bs, a_tail = b._a[:-1], a[1:]
        width = max(_degree(bs), _degree(a_tail)) + 1  # the terms j = 0..width-1
        bs, a_tail = bs[:width], a_tail[:width]
        out, row = [1], [1] + [0] * width  # C(m, 0..width), zero past m
        for m in range(len(a) - 1):
            window = out[m::-1] if m < width else out[m : m - width : -1]  # G_m down to G_(m-j)
            weights = map(sub, map(mul, row, bs), map(mul, row[1:], a_tail))
            out.append(sum(map(mul, weights, window)))
            row = _next_row(row)[: width + 1]
        return TruncatedSeries(out)

    def pow_int(self, m: int) -> "TruncatedSeries":
        """Nonnegative integer power, squared and multiplied from the unit series."""
        if m < 0:
            raise ValueError("pow_int needs a nonnegative exponent")
        result, base = TruncatedSeries.one(self.order), self
        while m:
            if m & 1:
                result = result * base
            m >>= 1
            if m:
                base = base * base
        return result

    # -- coefficient extraction -----------------------------------------------

    def egf_coeff(self, n: int):
        """n! times the t^n coefficient (the value an EGF encodes at index n),
        an ``int`` where integral."""
        if not 0 <= n <= self.order:
            raise ValueError(f"index {n} outside 0..{self.order}")
        return narrow(self._a[n])

    @property
    def egf_coeffs(self) -> list:
        """egf_coeff(n) for every n = 0..order, in one pass."""
        return list(map(narrow, self._a))


def binpow(alpha, c, order: int) -> TruncatedSeries:
    """The series (1 + alpha t)^(c/alpha); at alpha = 0 the limit exp(c t).

    Its EGF numerators are (c|alpha)_n = c (c - alpha) ... (c - (n-1) alpha),
    one running product for every alpha, the degenerate alpha = 0 included.
    """
    _check_order(order)
    alpha, c = narrow(alpha), narrow(c)
    nums = [1]
    for n in range(order):
        nums.append(nums[-1] * (c - n * alpha))
    return TruncatedSeries(nums)
