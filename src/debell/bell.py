"""Higher-order r-deranged Bell numbers and barred-arrangement polynomials.

Write u = (1+alpha t)^(beta/alpha) - 1 (at alpha = 0 this degenerates to
e^(beta t) - 1).  The defining route for the family B[n] is coefficient
extraction from the exponential generating function

    (1+alpha t)^(gamma/alpha) * (x u)^(r lam) * exp(-lam x u)
        / (1 - x u)^((r+1) lam),

and it is the single source of truth here.  Every alternative expression --
the lam = 1 closed sum over r-derangements and generalized Stirling numbers,
the binomially weighted closed sum for general lam, the section convolution,
the classical specialization, and the omega identities -- is computed
independently so that agreement can be adjudicated point by point instead of
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import stirling
from .derangements import r_derangement
from .exact import ParamSet, binomial, gen_falling
from .series import TruncatedSeries, binpow

_ZERO = Fraction(0)


def _rescaled(params: ParamSet, order: int) -> tuple:
    """(S, head, x u): (1+alpha t)^(gamma/alpha) and x u read at t -> S t with
    S = lcm(den alpha, den beta, den gamma) * den x.  Their EGF numerators
    (gamma S|alpha S)_n and x (beta S|alpha S)_n = x (den x)^n (...)_n are
    integers, so is every series built from them; ``_unscale`` divides S^n out."""
    a, b, g, x = params.alpha, params.beta, params.gamma, params.x
    s = lcm(a.denominator, b.denominator, g.denominator) * x.denominator
    head = binpow(a * s, g * s, order)
    u = binpow(a * s, b * s, order) - TruncatedSeries.one(order)
    return s, head, u.scale(x)


def _unscale(ser: TruncatedSeries, s: int, n_max: int) -> tuple:
    return tuple(Fraction(ser.egf_coeff(n), s**n) for n in range(n_max + 1))


@lru_cache(maxsize=None)
def _bell_egf(params: ParamSet, n_max: int) -> tuple:
    order = n_max + 1  # spare position past anything read
    s, head, xu = _rescaled(params, order)
    lam, r = params.lam, params.r
    ser = head * xu.pow_int(r * lam)
    ser = ser * xu.scale(-lam).exp()
    one = TruncatedSeries.one(order)
    ser = ser * (one - xu).log().scale(-(r + 1) * lam).exp()
    return _unscale(ser, s, n_max)


def bell_egf(n_max: int, params: ParamSet) -> list:
    """B[0..n_max] from the defining generating function."""
    return list(_bell_egf(params, n_max))


@lru_cache(maxsize=None)
def _lambda1(alpha, beta, gamma, x, r: int, n: int) -> Fraction:
    tab = stirling.table(alpha, beta, gamma)
    total = _ZERO
    for k in range(n + 1):
        d = r_derangement(k, r)
        if d:
            total += d * x**k * beta**k * tab.value(n, k)
    return total


def bell_lambda1(n: int, params: ParamSet) -> Fraction:
    """Closed sum sum_k d_{k,r} x^k beta^k S(n,k); only defined at lam = 1."""
    if params.lam != 1:
        raise ValueError("the lambda-1 route requires lam == 1")
    return _lambda1(params.alpha, params.beta, params.gamma, params.x, params.r, n)


def bell_general_closed(n: int, params: ParamSet) -> Fraction:
    """The binomially weighted closed sum

        sum_k C(k+r+lam-1, k+r) d_{k,r} x^k beta^k S(n,k).

    Its agreement with the generating-function route is a recorded claim, not
    a postcondition, except at lam = 1 where the weight is 1.
    """
    tab = stirling.table(params.alpha, params.beta, params.gamma)
    total = _ZERO
    for k in range(n + 1):
        w = binomial(k + params.r + params.lam - 1, k + params.r)
        if w == 0:
            continue
        d = r_derangement(k, params.r)
        if d:
            total += w * d * params.x**k * params.beta**k * tab.value(n, k)
    return total


def _binomial_convolution(a: list, b: list) -> list:
    """EGF product of two coefficient vectors: c[m] = sum_k C(m, k) a[k] b[m-k]."""
    return [sum(comb(m, k) * a[k] * b[m - k] for k in range(m + 1)) for m in range(len(a))]


@lru_cache(maxsize=None)
def _section_convolution(params: ParamSet, n_max: int) -> tuple:
    a, b, x, r = params.alpha, params.beta, params.x, params.r
    acc = [gen_falling(params.gamma, a, i) for i in range(n_max + 1)]
    base = [_lambda1(a, b, _ZERO, x, r, i) for i in range(n_max + 1)]
    for _ in range(params.lam):
        acc = _binomial_convolution(acc, base)
    return tuple(acc)


def section_convolution(n_max: int, params: ParamSet) -> list:
    """The section convolution at totals 0..n_max: (gamma|alpha)_i convolved
    lam times with the lam = 1, gamma = 0 closed sums B[i] (binomial
    convolution, the EGF product).  Built from ``gen_falling`` and the closed
    sums alone, so it stays independent of the series route."""
    if params.lam < 1:
        raise ValueError("the convolution route requires lam >= 1")
    return list(_section_convolution(params, n_max))


def bell_convolution(n: int, params: ParamSet) -> Fraction:
    """Section convolution over compositions of n into lam+1 parts:

        sum multinomial(n; i_1..i_{lam+1}) (gamma|alpha)_{i_{lam+1}}
            prod_s B[i_s] at (lam=1, gamma=0),

    computed as lam binomial convolutions of the vector (gamma|alpha)_i with
    the vector B[i] at (lam=1, gamma=0) and read at index n.  This reproduces
    the generating-function route exactly (the product structure of the EGF).
    """
    return section_convolution(n, params)[n]


def bell_convolution_nr(n: int, params: ParamSet) -> Fraction:
    """Variant index convention: compositions of n+r with multinomial(n+r; ...),
    i.e. the same convolution vector read at index n+r.  Kept only so the
    harness can record how this convention compares."""
    return section_convolution(n + params.r, params)[n + params.r]


def deranged_bell_classic(n: int, r: int) -> int:
    """Classical r-deranged Bell number: sum_i d_{i,r} times the r-Stirling
    count of partitions of [n+r] into i+r blocks with 1..r separated."""
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    total = _ZERO
    for i in range(n + 1):
        d = r_derangement(i, r)
        if d:
            total += d * stirling.stirling_rec(n, i, 0, 1, r)
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"classic deranged Bell value not integral: {total}")
    return int(total)


def bell_classic(n: int, params: ParamSet) -> int:
    """deranged_bell_classic at the one point of the family it specializes."""
    if params != ParamSet.make(alpha=0, beta=1, gamma=params.r, x=1, lam=1, r=params.r):
        raise ValueError(
            "the classic route is the specialization alpha=0, beta=1, gamma=r, x=1, lam=1"
        )
    return deranged_bell_classic(n, params.r)


# -- barred-arrangement polynomials --------------------------------------------


def omega(n: int, params: ParamSet) -> Fraction:
    """Closed sum sum_k C(k+lam-1, k) x^k k! beta^k S(n,k)."""
    tab = stirling.table(params.alpha, params.beta, params.gamma)
    xb = params.x * params.beta
    total = _ZERO
    weight = Fraction(1)  # k! (x beta)^k
    for k in range(n + 1):
        if k:
            weight *= k * xb
        w = binomial(k + params.lam - 1, k)
        if w:
            total += w * weight * tab.value(n, k)
    return total


@lru_cache(maxsize=None)
def _omega_egf(params: ParamSet, n_max: int) -> tuple:
    order = n_max + 1
    s, head, xu = _rescaled(params, order)
    one = TruncatedSeries.one(order)
    ser = head * (one - xu).log().scale(-params.lam).exp()
    return _unscale(ser, s, n_max)


def omega_egf(n_max: int, params: ParamSet) -> list:
    """omega[0..n_max] from (1+alpha t)^(gamma/alpha) / (1 - x u)^lam."""
    return list(_omega_egf(params, n_max))


@lru_cache(maxsize=None)
def _omega_identity(params: ParamSet, n_max: int) -> tuple:
    r = params.r
    top = n_max + r
    zero_gamma = stirling.table(params.alpha, params.beta, 0)
    powers = [Fraction(1)]  # (beta x lam)^l
    for _ in range(top):
        powers.append(powers[-1] * params.beta * params.x * params.lam)
    inner = [sum(powers[l] * zero_gamma.value(j, l) for l in range(j + 1)) for j in range(top + 1)]
    rhs = _binomial_convolution(bell_egf(top, params), inner)
    return tuple((omega(n + r, params), rhs[n + r]) for n in range(n_max + 1))


def omega_identity_rows(n_max: int, params: ParamSet) -> list:
    """(lhs, rhs) of ``omega_identity_check`` at r = params.r for n = 0..n_max,
    from one B[0..n_max+r] vector and one binomial convolution."""
    return list(_omega_identity(params, n_max))


def omega_identity_check(n: int, r: int, params: ParamSet) -> tuple:
    """Both sides of the fixed-block decomposition

        omega[n+r] =? sum_i C(n+r, i) B[i]
                      * sum_l beta^l S(n+r-i, l; alpha, beta, 0) x^l lam^l

    returned without asserting equality; the harness records the comparison.
    """
    return omega_identity_rows(n, params.replace(r=r))[n]


@dataclass(frozen=True)
class ProductFormRow:
    n: int
    egf: Fraction
    literal: Fraction
    power: Fraction


@lru_cache(maxsize=None)
def _product_forms(params: ParamSet, n_max: int) -> tuple:
    order = n_max + 1
    s, head, xu = _rescaled(params, order)
    one = TruncatedSeries.one(order)
    log_one_minus = (one - xu).log()
    r, lam = params.r, params.lam

    single = xu.pow_int(r) * xu.scale(-1).exp() * log_one_minus.scale(-(r + 1)).exp()

    literal = head
    for i in range(1, lam + 1):
        factor = xu.pow_int(r * i) * xu.scale(-i).exp() * log_one_minus.scale(-(r + 1) * i).exp()
        literal = literal * factor
    power = head * single.pow_int(lam)
    return _unscale(literal, s, n_max), _unscale(power, s, n_max)


def product_form_check(n_max: int, params: ParamSet) -> list:
    """Coefficients of the per-section product read two ways.

    ``literal`` multiplies factors whose exponents grow with the factor index
    i (r*i, -i, (r+1)*i); ``power`` raises the single lam = 1 factor to the
    lam-th power.  Both are compared against the defining route per index.
    """
    if params.lam < 1:
        raise ValueError("the product forms require lam >= 1")
    literal, power = _product_forms(params, n_max)
    egf = bell_egf(n_max, params)
    return [
        ProductFormRow(n=n, egf=egf[n], literal=literal[n], power=power[n])
        for n in range(n_max + 1)
    ]
