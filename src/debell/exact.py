"""Exact scalar arithmetic and the elementary combinatorial coefficients.

Every quantity in this package is a Python ``int`` (arbitrary precision) or a
``fractions.Fraction``; nothing here ever touches floating point.  Rationals
serialize as the canonical string ``"p/q"`` (just ``"p"`` when the denominator
is 1), with the sign carried by the numerator.

Convention: ``int`` inside; ``Fraction`` only from the scalar routes.  Inner
sums, series numerators and every vector route (``bell_egf``, ``omega_egf``,
the product forms, the section convolution, the omega-identity rows) hold an
integral value as an ``int`` (``narrow``), which multiplies, adds and hashes
far faster than a ``Fraction``; the public scalar routes (the closed sums,
``omega``, ``w_from_base``, ``bell_base``, ...) return ``Fraction``.  Mixing the
two is exact except for ``/``: an ``int / int`` is a float, so code that
divides a vector entry writes ``Fraction(p, q)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction


def as_rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction."""
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


def format_point(pairs) -> str:
    """A point's (key, value) pairs as one CSV cell: "alpha=0;beta=1;..."."""
    return ";".join(f"{k}={v}" for k, v in pairs)


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
    t = as_rat(t)
    alpha = as_rat(alpha)
    out = Fraction(1)
    for i in range(n):
        out *= t - i * alpha
        if out == 0:
            break
    return out


def falling(c, n: int) -> Fraction:
    """Ordinary falling factorial (c)_n = c (c-1) ... (c-n+1)."""
    return gen_falling(c, 1, n)


@dataclass(frozen=True)
class ParamSet:
    """The free parameters of the deranged-Bell family.

    ``alpha``, ``beta``, ``gamma`` are the factorial-polynomial weights,
    ``x`` the number of block colors, ``lam`` the section/bar exponent, and
    ``r`` the number of distinguished singletons.  ``key`` is the six values
    with integral weights narrowed to ``int``; the hash and the text form
    ``as_pairs()`` are computed from it once per instance.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    x: Fraction
    lam: int
    r: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "x"):
            object.__setattr__(self, name, as_rat(getattr(self, name)))
        if not isinstance(self.lam, int) or self.lam < 0:
            raise ValueError("lam must be a nonnegative integer")
        if not isinstance(self.r, int) or self.r < 0:
            raise ValueError("r must be a nonnegative integer")
        key = tuple(narrow(getattr(self, name)) for name in ("alpha", "beta", "gamma", "x"))
        key += (self.lam, self.r)
        pairs = tuple(zip(("alpha", "beta", "gamma", "x", "lam", "r"), map(format_rat, key)))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_pairs", pairs)

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, alpha=0, beta=1, gamma=0, x=1, lam=1, r=0) -> "ParamSet":
        return cls(as_rat(alpha), as_rat(beta), as_rat(gamma), as_rat(x), lam, r)

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
