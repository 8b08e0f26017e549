"""Higher-order r-deranged Bell numbers and barred-arrangement polynomials.

Write u = (1+alpha t)^(beta/alpha) - 1 (at alpha = 0 this degenerates to
e^(beta t) - 1).  The defining route for the family B[n] is coefficient
extraction from the exponential generating function

    (1+alpha t)^(gamma/alpha) * (x u)^(r lam) * exp(-lam x u)
        / (1 - x u)^((r+1) lam),

and it is the single source of truth here.  Every alternative expression --
the closed sums over (higher-order) r-derangements and generalized Stirling
numbers, the binomially weighted closed sum, the section convolution,
the classical specialization, and the omega identities -- is computed
independently so that agreement can be adjudicated point by point instead of
assumed.

Every vector route returns entries 0..n_max and builds nothing past them: a
series route works at order n_max, and a memoized vector is a tuple keyed on
(n_max, point) (``_bell_egf`` for B, ``_lambda1`` for the lam = 1 closed sums,
``_section_convolution`` for the section convolution at each level lam, grown from
level lam - 1 by one binomial convolution, so the lams at a point share their prefix).
A series route is the head (1+alpha t)^(gamma/alpha) times a gamma-free factor
from ``_gamma_free`` (B and omega) or ``_product_factor`` (the product
readings), each keyed on the order and the rescale S of ``_with_head``, so the
gammas that share S share one build.  Where u is a polynomial (alpha != 0 and
beta/alpha a nonnegative integer) ``_gamma_free`` reads its section factor off
the first-order differential equation the factor satisfies, with no log or exp,
and builds that equation's right side from two ``binpow`` series in closed form,
with no product; at a transcendental X = x u every ``_gamma_free`` series, B's at
any lam and r and omega's, reads X and log(1 - X) from one ``_xu_and_log`` entry.
At alpha = 0, where X = x (e^(beta t) - 1), ``_gamma_free`` takes X^p times the
factor as p shift passes (``TruncatedSeries.times_exp``) instead of a power and a
product; elsewhere X^p is ``pow_int``.  X = x u itself is built in ints
(``_xu``), with no ``Fraction`` multiply.  The product readings build their own
log, exps and ``pow_int``, so EQ40 checks the differential-equation route against
the log and exp kernel, and at alpha = 0 the shift passes against the product
kernel.  The closed sums read every n off one Stirling ladder; the scalars
``bell_lambda1`` and ``omega`` pass the same reader the range of their one row,
one dot product each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, lcm
from operator import mul

from . import stirling
from .derangements import r_derangement
from .exact import ParamSet, binomial, narrow
from .series import TruncatedSeries, binpow


def _check_n_max(n_max: int) -> None:
    """Every vector route's guard: entries 0..n_max need n_max >= 0."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")


def _xu(alpha, beta, x, s: int, order: int) -> TruncatedSeries:
    """x u read at t -> S t, in ints: its numerators are x (beta S|alpha S)_n for n >= 1,
    and each (beta S|alpha S)_n there has the factor beta S, which den x divides (S
    carries den x), so each is (num x) (beta S|alpha S)_n exactly divided by den x."""
    num, den = x.numerator, x.denominator
    u = binpow(alpha * s, beta * s, order).egf_coeffs
    return TruncatedSeries([0, *(num * v // den for v in u[1:])])


def _with_head(params: ParamSet, n_max: int, rest, *args) -> list:
    """Entries 0..n_max of the head (1+alpha t)^(gamma/alpha) times an EGF's gamma-free
    rest(alpha, beta, x, S, order, *args), read at t -> S t, S = lcm(den alpha, den beta,
    den gamma) * den x: every numerator is then an integer, and ``_unscale`` divides S^n out."""
    a, b, g, x, _, _ = params.key
    s = lcm(a.denominator, b.denominator, g.denominator) * x.denominator
    return _unscale(binpow(a * s, g * s, n_max) * rest(a, b, x, s, n_max, *args), s, n_max)


def _unscale(ser: TruncatedSeries, s: int, n_max: int) -> list:
    """a_n / S^n for n = 0..n_max, held as an int where integral (a_n itself at S = 1);
    S^n is a running power."""
    nums = ser.egf_coeffs[: n_max + 1]
    if s == 1:
        return nums
    powers = accumulate(repeat(s, n_max), mul, initial=1)
    return [narrow(Fraction(a, q)) for a, q in zip(nums, powers)]


@lru_cache(maxsize=None)
def _xu_and_log(alpha, beta, x, s: int, order: int) -> tuple:
    """X = x u and log(1 - X) at a transcendental X, keyed on (alpha, beta, x, S, order):
    both are free of p, e and c, so every ``_gamma_free`` series at one such X, B's at
    any lam and r and omega's, reads one X and one log.  A polynomial X needs no log."""
    xu = _xu(alpha, beta, x, s, order)
    return xu, (TruncatedSeries.one(order) - xu).log()


@lru_cache(maxsize=None)
def _gamma_free(alpha, beta, x, s: int, order: int, p: int, e: int, c: int) -> TruncatedSeries:
    """X^p exp(-e X) / (1 - X)^c at X = x u, keyed on (alpha, beta, x, S, order,
    p, e, c), the order being its reader's n_max; gamma-free as gamma enters only
    the head.  F = exp(-e X) / (1 - X)^c solves (1 - X) F' = X' (c - e + e X) F, and
    where u is a polynomial of degree d = beta/alpha (alpha != 0, d a nonnegative
    integer) F is read off that equation by ``TruncatedSeries.ode`` in O(N d) products,
    with no log or exp.  Its right side needs no product: read at t -> S t, with
    V_j = (1 + alpha S t)^(j beta/alpha - 1) = ``binpow(alpha S, j beta S - alpha S)``,
    X' = x beta S V_1 and X' X = x^2 beta S (V_2 - V_1), as V_1 (1 + u) = V_2.  Each
    numerator of both is an int, den x dividing beta S and den x^2 dividing
    beta S (V_2 - V_1)_n (V_2 - V_1 = V_1 u, and beta S divides every numerator of
    u).  At a transcendental X, F is one exponential exp(-c log(1 - X) - e X), X and
    log(1 - X) coming from ``_xu_and_log``, shared by every (p, e, c).  X^p is
    ``pow_int`` times F, except at alpha = 0: there X = x (exp(beta S t) - 1) read at
    t -> S t, beta S an int, and X^p F is p shift passes F <- F exp(beta S t) - F
    (``times_exp``, no binomial) and one scaling of each numerator by (num x)^p exactly
    divided by (den x)^p, as (beta S)^p divides every numerator of
    (exp(beta S t) - 1)^p F and den x divides beta S.  Every route keeps ints as ints."""
    d = Fraction(beta) / alpha if alpha else -1  # u's degree, where it is a polynomial
    if d >= 0 and d.denominator == 1:
        xu, sa, sb = _xu(alpha, beta, x, s, order), narrow(alpha * s), narrow(beta * s)
        v1 = binpow(sa, sb - sa, order).egf_coeffs
        v2 = binpow(sa, 2 * sb - sa, order).egf_coeffs
        num, den = x.numerator, x.denominator
        # (c - e) X' = lin V_1 and e X' X = quad (V_2 - V_1) / den^2
        lin, quad = (c - e) * num * (sb // den), e * num * num * sb
        rhs = TruncatedSeries(lin * w1 + quad * (w2 - w1) // den**2 for w1, w2 in zip(v1, v2))
        factor = (TruncatedSeries.one(order) - xu).ode(rhs)
    else:
        xu, log_one_minus = _xu_and_log(alpha, beta, x, s, order)
        factor = (log_one_minus.scale(-c) - xu.scale(e)).exp()
    if alpha:
        return xu.pow_int(p) * factor
    sb = narrow(beta * s)
    for _ in range(p):  # factor <- (exp(beta S t) - 1) factor
        factor = factor.times_exp(sb) - factor
    num, den = x.numerator**p, x.denominator**p
    return TruncatedSeries(num * v // den for v in factor.egf_coeffs)


@lru_cache(maxsize=None)
def _bell_egf(n_max: int, params: ParamSet) -> tuple:
    """``bell_egf``'s memo: B[0..n_max] at ``params``, one tuple per (n_max, params)."""
    lam, r = params.lam, params.r
    return tuple(_with_head(params, n_max, _gamma_free, r * lam, lam, (r + 1) * lam))


def bell_egf(n_max: int, params: ParamSet) -> list:
    """B[0..n_max] from the defining generating function: the head times
    ``_gamma_free`` at (p, e, c) = (r lam, lam, (r+1) lam), built at order n_max
    and memoized per (n_max, params); each call returns its own copy."""
    _check_n_max(n_max)
    return list(_bell_egf(n_max, params))


@lru_cache(maxsize=None)
def _lambda1(n_max: int, alpha, beta, gamma, x, r: int) -> tuple:
    """sum_k d_{k,r} (x beta)^k S(n,k) for n = 0..n_max, one ladder for every n;
    ints where integral, in a tuple its readers share."""
    d = (r_derangement(k, r, 1) for k in range(n_max + 1))
    return tuple(stirling.table(alpha, beta, gamma).weighted_sums(range(n_max + 1), x * beta, d))


def lambda1_sums(n_max: int, params: ParamSet) -> tuple:
    """The lam = 1 closed sums B[0..n_max], whatever ``params.lam`` is (memoized)."""
    _check_n_max(n_max)
    a, b, g, x, _, r = params.key
    return _lambda1(n_max, a, b, g, x, r)


def bell_lambda1(n: int, params: ParamSet) -> Fraction:
    """Closed sum sum_k d_{k,r} x^k beta^k S(n,k); only defined at lam = 1."""
    if params.lam != 1:
        raise ValueError("the lambda-1 route requires lam == 1")
    a, b, g, x, _, r = params.key
    d = (r_derangement(k, r, 1) for k in range(n + 1))
    return Fraction(stirling.table(a, b, g).weighted_sums(range(n, n + 1), x * b, d)[0])


def bell_closed_lam(n_max: int, params: ParamSet) -> list:
    """B[0..n_max] as the closed sums sum_k d_lam(k, r) x^k beta^k S(n,k) over the
    higher-order r-derangement numbers, held as ints where integral; every lam."""
    _check_n_max(n_max)
    a, b, g, x, lam, r = params.key
    weights = (r_derangement(k, r, lam) for k in range(n_max + 1))
    return stirling.table(a, b, g).weighted_sums(range(n_max + 1), x * b, weights)


def general_closed_sums(n_max: int, params: ParamSet) -> list:
    """T33's binomially weighted closed sums sum_k C(k+r+lam-1, k+r) d_{k,r} x^k beta^k
    S(n,k) at n = 0..n_max, ints where integral.  They equal B[n] at lam = 1, where the
    weight is 1; elsewhere their agreement is a recorded claim, not a postcondition."""
    _check_n_max(n_max)
    a, b, g, x, lam, r = params.key
    weights = (binomial(k + r + lam - 1, k + r) * r_derangement(k, r, 1)
               for k in range(n_max + 1))
    return stirling.table(a, b, g).weighted_sums(range(n_max + 1), x * b, weights)


def _binomial_convolution(a: list, b: list) -> list:
    """EGF product of two coefficient vectors, c[m] = sum_k C(m, k) a[k] b[m-k], narrowed."""
    return [narrow(sum(comb(m, k) * a[k] * b[m - k] for k in range(m + 1)))
            for m in range(len(a))]


@lru_cache(maxsize=None)
def _section_convolution(n_max: int, alpha, beta, gamma, x, r: int, lam: int) -> tuple:
    """The section convolution at level lam, entries 0..n_max: level 0 is (gamma|alpha)_i,
    and level lam is level lam - 1 convolved once with the lam = 1, gamma = 0 closed sums,
    so the levels below lam are shared with every lam that passes through them."""
    if lam == 0:
        acc = [1]  # (gamma|alpha)_i
        for i in range(n_max):
            acc.append(acc[-1] * (gamma - i * alpha))
        return tuple(acc)
    below = _section_convolution(n_max, alpha, beta, gamma, x, r, lam - 1)
    return tuple(_binomial_convolution(below, _lambda1(n_max, alpha, beta, 0, x, r)))


def section_convolution(n_max: int, params: ParamSet) -> list:
    """The section convolution at totals 0..n_max: (gamma|alpha)_i convolved
    lam times with the lam = 1, gamma = 0 closed sums B[i] (binomial
    convolution, the EGF product), each level memoized per (n_max, point) on
    the one below.  Built from the falling factorials and the closed sums
    alone, so it stays independent of the series route.  Entries are exact
    rationals, held as ints where integral; each call returns its own copy."""
    if params.lam < 1:
        raise ValueError("the convolution route requires lam >= 1")
    _check_n_max(n_max)
    a, b, g, x, lam, r = params.key
    for level in range(lam + 1):  # upward: a level's miss reads the memoized level below
        acc = _section_convolution(n_max, a, b, g, x, r, level)
    return list(acc)


def bell_convolution(n: int, params: ParamSet) -> Fraction:
    """Section convolution over compositions of n into lam+1 parts:

        sum multinomial(n; i_1..i_{lam+1}) (gamma|alpha)_{i_{lam+1}}
            prod_s B[i_s] at (lam=1, gamma=0),

    computed as lam binomial convolutions of the vector (gamma|alpha)_i with
    the vector B[i] at (lam=1, gamma=0) and read at index n.  This reproduces
    the generating-function route exactly (the product structure of the EGF).
    """
    return Fraction(section_convolution(n, params)[n])


def deranged_bell_classic(n: int, r: int) -> int:
    """Classical r-deranged Bell number: sum_i d_{i,r} times the r-Stirling
    count of partitions of [n+r] into i+r blocks with 1..r separated."""
    if n < 0 or r < 0:
        raise ValueError("n and r must be nonnegative")
    return int(bell_lambda1(n, ParamSet.make(0, 1, r, 1, 1, r)))


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
    a, b, g, x, lam, _ = params.key
    weights = _omega_weights(lam, n)
    return Fraction(stirling.table(a, b, g).weighted_sums(range(n, n + 1), x * b, weights)[0])


def omega_sums(n_max: int, params: ParamSet) -> list:
    """``omega`` at n = 0..n_max, held as ints where integral."""
    _check_n_max(n_max)
    a, b, g, x, lam, _ = params.key
    weights = _omega_weights(lam, n_max)
    return stirling.table(a, b, g).weighted_sums(range(n_max + 1), x * b, weights)


def _omega_weights(lam: int, n: int) -> list:
    """C(k+lam-1, k) k! for k = 0..n."""
    return [binomial(k + lam - 1, k) * factorial(k) for k in range(n + 1)]


def omega_egf(n_max: int, params: ParamSet) -> list:
    """omega[0..n_max] from (1+alpha t)^(gamma/alpha) / (1 - x u)^lam: the
    head times ``_gamma_free`` at (p, e, c) = (0, 0, lam)."""
    _check_n_max(n_max)
    return _with_head(params, n_max, _gamma_free, 0, 0, params.lam)


def fixed_block_sums(n_max: int, params: ParamSet) -> list:
    """The fixed-block sums sum_i C(n, i) B[i] sum_l beta^l S(n-i, l; alpha, beta, 0) x^l lam^l
    at n = 0..n_max, OMEGA-ID's side against ``omega_sums``: one B[0..n_max] vector, the inner
    sums of one ``weighted_sums`` call and one binomial convolution; ints where integral."""
    _check_n_max(n_max)
    a, b, _, x, lam, _ = params.key
    inner = stirling.table(a, b, 0).weighted_sums(range(n_max + 1), b * x * lam, [1] * (n_max + 1))
    return _binomial_convolution(bell_egf(n_max, params), inner)


# -- the per-section product, read two ways ------------------------------------


@lru_cache(maxsize=None)
def _product_factor(alpha, beta, x, s: int, order: int, r: int, k: int) -> TruncatedSeries:
    """F^k, keyed on (alpha, beta, x, S, order, r, k), F the lam-free single-section
    factor (x u)^r exp(-x u) / (1 - x u)^(r+1); gamma enters only the head, so F
    is built once per order for every gamma that shares S, and raised to each k.
    Its own builder, not ``_gamma_free(..., r, 1, r + 1)``: at lam = 1 that is B's
    key, and EQ40-power would compare B with itself."""
    if k != 1:
        return _product_factor(alpha, beta, x, s, order, r, 1).pow_int(k)
    xu = _xu(alpha, beta, x, s, order)
    log_one_minus = (TruncatedSeries.one(order) - xu).log()
    return xu.pow_int(r) * xu.scale(-1).exp() * log_one_minus.scale(-(r + 1)).exp()


def _product(n_max: int, params: ParamSet, k: int) -> list:
    if params.lam < 1:
        raise ValueError("the product forms require lam >= 1")
    _check_n_max(n_max)
    return _with_head(params, n_max, _product_factor, params.r, k)


def product_literal(n_max: int, params: ParamSet) -> list:
    """B[0..n_max] read off the product of lam factors whose exponents grow
    with the factor index i: (x u)^(r i) exp(-i x u) / (1 - x u)^((r+1) i).
    Factor i is F^i, so the product of factors 1..lam is F^(1 + 2 + ... + lam)."""
    return _product(n_max, params, params.lam * (params.lam + 1) // 2)


def product_power(n_max: int, params: ParamSet) -> list:
    """B[0..n_max] read off the single lam = 1 factor raised to the lam-th power."""
    return _product(n_max, params, params.lam)
