"""Exact scalar arithmetic and the elementary combinatorial coefficients.

Every quantity in this package is a Python ``int`` (arbitrary precision) or a
``fractions.Fraction``; nothing here ever touches floating point.  Rationals
serialize as the canonical string ``"p/q"`` (just ``"p"`` when the denominator
is 1), with the sign carried by the numerator.

Convention: ``int`` inside; ``Fraction`` only from the scalar routes.  Inner
sums, series numerators and every vector route (``bell_egf``, ``omega_egf``,
the product forms, the section convolution, ``general_closed_sums``,
``bell_closed_lam``, ``omega_sums``, ``fixed_block_sums``, ``lambda1_sums``)
hold an integral value as an ``int`` (``narrow``), which multiplies, adds and
hashes far faster than a ``Fraction``; the public scalar routes (``bell_lambda1``,
``bell_convolution``, ``omega``, ``w_from_base``, ...) return ``Fraction``.
Mixing the two is exact except for ``/``: an ``int / int`` is a float, so
code that divides a vector entry writes ``Fraction(p, q)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


def as_rat(value) -> Fraction:
    """Coerce an int, Fraction, or string to a Fraction; a string is read as Fraction
    reads it, so "p/q" and the decimal and exponent forms ("0.5", "1e3") are exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def narrow(value):
    """An exact rational as an ``int`` when it is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    q = as_rat(value)
    return q.numerator if q.denominator == 1 else q


def format_rat(value) -> str:
    """Canonical text form: "p/q", or "p" when the denominator is 1."""
    if type(value) is int:
        return str(value)
    q = as_rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_point(pairs, sep: str = ";") -> str:
    """A point's (key, value) pairs joined by ``sep``: the CSV cell "alpha=0;beta=1;..."."""
    return sep.join(f"{k}={v}" for k, v in pairs)


def csv_lines(header, rows) -> Iterator[str]:
    """``header``, then each of the iterable ``rows``, as CSV lines made as they
    are read: standard quoting, "\\n" line ends, None as an empty cell."""
    import csv  # loaded on the first call, so a command that writes no CSV never loads it
    from types import SimpleNamespace
    # writerow returns what the file's write returns: here, the line itself
    writer = csv.writer(SimpleNamespace(write=lambda line: line), lineterminator="\n")
    yield writer.writerow(header)
    yield from map(writer.writerow, rows)


def binomial(n: int, k: int) -> int:
    """Extended binomial coefficient.

    Zero for k < 0; the usual value for n >= 0 (zero when k > n); for n < 0
    the product formula prod_{i=0}^{k-1}(n-i)/k!, which by upper negation is
    (-1)^k C(k-n-1, k), so binomial(-1, 0) == 1 and binomial(-1, k) == (-1)**k.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    return (-1) ** k * math.comb(k - n - 1, k)


def gen_falling(t, alpha, n: int) -> Fraction:
    """Generalized falling factorial t (t - alpha) (t - 2 alpha) ... with n factors."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t, alpha = narrow(t), narrow(alpha)  # ints where integral, so the loop multiplies ints
    out = 1
    for i in range(n):
        out *= t - i * alpha
        if out == 0:
            break
    return Fraction(out)


def falling(c, n: int) -> Fraction:
    """Ordinary falling factorial (c)_n = c (c-1) ... (c-n+1)."""
    return gen_falling(c, 1, n)


@dataclass(frozen=True)
class ParamSet:
    """The free parameters of the deranged-Bell family.

    ``alpha``, ``beta``, ``gamma`` are the factorial-polynomial weights,
    ``x`` the number of block colors, ``lam`` the section/bar exponent, and
    ``r`` the number of distinguished singletons.  ``key`` is the six values
    with integral weights narrowed to ``int``; equality compares it, and the
    hash and the text form ``as_pairs()`` are computed from it once per instance.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    x: Fraction
    lam: int
    r: int

    def __post_init__(self):
        alpha, beta, gamma, x = map(as_rat, (self.alpha, self.beta, self.gamma, self.x))
        if not isinstance(self.lam, int) or self.lam < 0:
            raise ValueError("lam must be a nonnegative integer")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError("r must be a nonnegative integer")
        key = (narrow(alpha), narrow(beta), narrow(gamma), narrow(x), self.lam, self.r)
        pairs = tuple(zip(("alpha", "beta", "gamma", "x", "lam", "r"), map(format_rat, key)))
        # written past the frozen __setattr__ in one update, as its own __init__ writes past it
        self.__dict__.update(alpha=alpha, beta=beta, gamma=gamma, x=x, key=key, _hash=hash(key),
                             _pairs=pairs)

    def __eq__(self, other):
        return self.key == other.key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, alpha=0, beta=1, gamma=0, x=1, lam=1, r=0) -> "ParamSet":
        return cls(alpha, beta, gamma, x, lam, r)

    def replace(self, **changes) -> "ParamSet":
        return dataclasses.replace(self, **changes)

    @property
    def combinatorial_regime(self) -> bool:
        """True when the parameters admit the block/compartment counting model:
        alpha, beta, gamma nonnegative integers with alpha dividing beta and
        gamma (alpha = 0 allowed as the degenerate limit), x a positive integer.
        """
        weights = (self.alpha, self.beta, self.gamma)
        if any(w.denominator != 1 or w < 0 for w in weights):
            return False
        if self.x.denominator != 1 or self.x < 1:
            return False
        if self.alpha != 0:
            if self.beta % self.alpha != 0 or self.gamma % self.alpha != 0:
                return False
        return True

    def as_pairs(self) -> tuple:
        return self._pairs
