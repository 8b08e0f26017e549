"""Exhaustive desk-scale enumerators for the counted families.

Everything here is deliberately brute force: these are the oracles the
formula routes are judged against, so they share no machinery with the
series or closed-sum modules.  Every structure is generated explicitly and
visited once; no count comes from a recurrence or a closed form.

Set partitions come from two independent generators.  ``_partitions_raw``
builds the blocks recursively, starting with 1..r already in their own
blocks when asked for separated partitions and opening only k blocks when
asked for a block count; it feeds the listings and
``r_deranged_partitions_enum``.  ``_growth_strings`` walks restricted
growth strings iteratively, one list updated in place, and feeds the count
tallies, one walk per size for every r: a partition's block count is its
running maximum plus one, and 1..r lie in distinct blocks exactly when the
string starts 0, 1, ..., r-1, as the walk's last strings do.
``r_deranged_partitions_enum`` checks the two generators against each other
at every block count.  Derangements come from two generators too: the
listers filter ``itertools.permutations``, dropping fixed points in C; the
counters build each by cycle insertion, with 1..r each opening a cycle.

A family is a counter plus one lister: ``FAMILIES`` states each family's
point fields, hard size cap, counter and the function that checks the sizes
and returns the text lines; exceeding a cap raises rather than silently
truncating.  The ``DEBELL_MAX_ENUM`` environment variable, when set to a
nonnegative integer, replaces every cap.  A negative size raises
``ValueError`` before the cap is checked.
"""

from __future__ import annotations

import os
from functools import cache, lru_cache
from itertools import combinations_with_replacement, pairwise, permutations
from math import factorial
from operator import eq
from typing import Callable, Iterator, NamedTuple

from .exact import binomial


class EnumerationCapError(ValueError):
    """The requested size exceeds the family's enumeration cap."""


def _check(family: str, size: int, **sizes) -> None:
    """Reject a negative entry of ``sizes``, then a ``size`` past the family's cap."""
    for name, value in sizes.items():
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    cap = FAMILIES[family].cap
    override = os.environ.get("DEBELL_MAX_ENUM")
    if override is not None:
        if not override.isdecimal():
            raise ValueError(f"DEBELL_MAX_ENUM must be a nonnegative integer, got {override!r}")
        cap = int(override)
    if size > cap:
        raise EnumerationCapError(f"{family}: size {size} exceeds cap {cap}")


def format_blocks(blocks) -> str:
    return "".join("{" + ",".join(str(e) for e in b) + "}" for b in blocks)


def format_sections(sections) -> str:
    return "|".join(format_blocks(b) for b in sections)


def format_cycles(perm) -> str:
    """One-line cycle form of a permutation given as a tuple (1-indexed images)."""
    seen = set()
    parts = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt - 1]
        parts.append("(" + " ".join(str(e) for e in cyc) + ")")
    return "".join(parts) if parts else "()"


# -- set partitions -----------------------------------------------------------


def _partitions_raw(n: int, k: int | None = None, r: int = 0):
    """All partitions of [n] with 1..r in distinct blocks, as tuples of
    tuples in standard form; only those with exactly k blocks when k is given.

    The walk starts from the blocks [1], ..., [r] and inserts r+1..n in
    increasing order, so blocks are born sorted and the block list is
    automatically ordered by minima; no arrangement is ever produced twice.
    An element opens its own block after trying every existing one, so the
    separated partitions are exactly the unbounded walk's branch where each
    of 1..r opened a block, and they come in that walk's order.  With k, no
    block is opened past the k-th, and an element joins an existing block
    only if the elements after it can still open the blocks missing; so every
    branch walked ends in a k-block partition.
    """
    most, least = (n, r) if k is None else (k, k)
    if not r <= least <= most <= n:
        return
    blocks = [[e] for e in range(1, r + 1)]

    def rec(i):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        if n - i >= least - len(blocks):
            for b in blocks:
                b.append(i)
                yield from rec(i + 1)
                b.pop()
        if len(blocks) < most:
            blocks.append([i])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(r + 1)


def _growth_strings(n: int):
    """Every restricted growth string of length n, in lexicographic order.

    a[i] is the block of element i+1 (blocks numbered by their minima) and
    top[i] = max(a[:i+1]).  Yields the same (a, top) pair each time, updated
    in place; read it before advancing.
    """
    a = [0] * n
    top = [0] * n
    state = (a, top)
    if n < 2:
        yield state
        return
    last = n - 1
    while True:
        yield state
        # the rightmost position that can still grow: a[i] <= top[i-1]
        i = last
        while a[i] > top[i - 1]:
            i -= 1
            if i == 0:
                return
        a[i] += 1
        t = top[i] = max(top[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            top[j] = t


def set_partitions_count(n: int, k: int) -> int:
    """Number of partitions of [n] into exactly k nonempty blocks, by generation."""
    _check("set-partitions", n, n=n)
    return _r_stirling_tally(n, 0).get(k, 0)


def _r_stirling_tally(total: int, r: int) -> dict:
    """Block-count tally of the partitions of [total] with 1..r in distinct
    blocks: the levels of ``_tally_by_run`` from r up."""
    return {k: c for k, c in enumerate(map(sum, zip(*_tally_by_run(total)[r:]))) if c}


@lru_cache(maxsize=None)
def _tally_by_run(total: int) -> tuple:
    """Entry [s][k]: the partitions of [total] into k blocks whose growth
    string starts with exactly 0..s-1, walked one at a time.  Those starting
    0..r-1 end the walk for every r, so s never falls: one test a string."""
    levels = [[0] * (total + 1) for _ in range(total + 1)]
    s = 0
    for _, top in _growth_strings(total):
        if s < total and top[s] == s:
            s += 1
        levels[s][top[-1] + 1 if top else 0] += 1
    return tuple(map(tuple, levels))


def r_stirling_count(n: int, k: int, r: int) -> int:
    """Partitions of [n+r] into k+r blocks with 1..r in pairwise distinct blocks."""
    _check("r-stirling", n + r, n=n, r=r)
    return _r_stirling_tally(n + r, r).get(k + r, 0)


# -- ordered and barred arrangements ------------------------------------------


def ordered_partitions_count(n: int) -> int:
    """Number of ordered set partitions of [n]: each generated partition
    contributes one arrangement per permutation of its blocks."""
    _check("ordered", n, n=n)
    return sum(factorial(k) * c for k, c in sorted(_r_stirling_tally(n, 0).items()))


def barred_count(n: int, lam: int) -> int:
    """Ordered partitions of [n] with lam-1 identical bars inserted between
    blocks (lam sections); the bar placements contribute C(k+lam-1, lam-1)."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    _check("barred", n, n=n)
    return sum(
        binomial(k + lam - 1, lam - 1) * factorial(k) * c
        for k, c in sorted(_r_stirling_tally(n, 0).items())
    )


# -- derangements -------------------------------------------------------------


def _derangements(m: int, r: int):
    """Derangements of 0..m-1 (tuples of images) with 0..r-1 in distinct
    cycles, in the lexicographic order of ``permutations``."""
    points = range(m)
    for sigma in permutations(points):
        if any(map(eq, sigma, points)):
            continue
        if r >= 2 and not _cycles_apart(sigma, r):
            continue
        yield sigma


def _cycles_apart(sigma, r: int) -> bool:
    """Whether 0..r-1 lie in pairwise distinct cycles of sigma: the walk
    round the cycle of each s < r-1 meets no other element below r."""
    for s in range(r - 1):
        e = sigma[s]
        while e >= r:
            e = sigma[e]
        if e != s:
            return False
    return True


def _derangement_count(m: int, r: int) -> int:
    """How many ``_derangements(m, r)`` yields, counted one at a time as they
    are built by cycle insertion: element j follows one of 0..j-1 in its cycle
    or opens a cycle, so each permutation is built once and j opens one exactly
    when it is its cycle's least, which each j < r must be.  A branch stops
    once its fixed points outnumber the elements still to place."""
    fixed = [False] * m

    def grow(j, f):
        if f > m - j:
            return 0
        if j == m:  # a leaf: one derangement
            return 1
        count = 0
        for i in range(0 if j >= r else j, j + 1):  # i = j: j opens a cycle, a fixed point
            was = fixed[i]
            fixed[i] = i == j
            count += grow(j + 1, f - was + fixed[i])
            fixed[i] = was
        return count

    return grow(0, 0)


def r_derangements_enum(k: int, r: int) -> int:
    """Permutations of [k+r] with no fixed point and 1..r in pairwise
    distinct cycles, counted by explicit generation."""
    _check("r-derangements", k + r, k=k, r=r)
    return _derangement_count(k + r, r)


# -- deranged partitions ------------------------------------------------------


def r_deranged_partitions_enum(n: int, r: int) -> int:
    """Deranged partitions of [n+r]: partitions with 1..r in distinct blocks
    whose standard-form block sequence is permuted with no fixed position and
    the r distinguished blocks in distinct cycles.

    For each block count k the separated k-block partitions are walked and
    their number must equal the growth-string tally of k-block partitions;
    each is then counted once per derangement of its k blocks, built once per
    k by cycle insertion since their number depends on k and r alone.
    """
    _check("r-deranged-partitions", n + r, n=n, r=r)
    total = n + r
    tally = _r_stirling_tally(total, r)
    count = 0
    for k in range(r, total + 1):
        walked = sum(1 for _ in _partitions_raw(total, k, r))
        if walked != tally.get(k, 0):
            raise RuntimeError(
                f"partition walkers disagree at (n={n}, r={r}), k={k}: "
                f"block walk {walked} vs growth strings {tally.get(k, 0)}"
            )
        count += walked * _derangement_count(k, r)
    return count


# -- the family table ---------------------------------------------------------


def _set_partition_lines(n: int, k: int):
    _check("set-partitions", n, n=n)
    return map(format_blocks, _partitions_raw(n, k))


def _r_stirling_lines(n: int, k: int, r: int):
    _check("r-stirling", n + r, n=n, r=r)
    return map(format_blocks, _partitions_raw(n + r, k + r, r))


def _ordered_lines(n: int):
    _check("ordered", n, n=n)
    return (format_blocks(arranged) for p in _partitions_raw(n) for arranged in permutations(p))


def _barred_lines(n: int, lam: int):
    """Each arrangement as its lam sections: a multiset of lam-1 bar slots
    among the k+1 gaps of an ordered k-block partition fixes the sections."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    _check("barred", n, n=n)
    return (
        format_sections(arranged[i:j] for i, j in pairwise((0, *slots, len(p))))
        for p in _partitions_raw(n)
        for arranged in permutations(p)
        for slots in combinations_with_replacement(range(len(p) + 1), lam - 1)
    )


def _r_derangement_lines(k: int, r: int):
    _check("r-derangements", k + r, k=k, r=r)
    return (format_cycles([e + 1 for e in sigma]) for sigma in _derangements(k + r, r))


def _r_deranged_partition_lines(n: int, r: int):
    """Each deranged arrangement as the permuted block sequence."""
    _check("r-deranged-partitions", n + r, n=n, r=r)
    derangements = cache(lambda k: tuple(_derangements(k, r)))  # one set per block count
    return (
        format_blocks(p[s] for s in sigma)
        for p in _partitions_raw(n + r, r=r)
        for sigma in derangements(len(p))
    )


class Family(NamedTuple):
    """A counted family.  ``count`` and ``lines`` take the point ``fields``
    in this order; ``cap`` bounds the family's size (n, n+r or k+r)."""

    fields: tuple
    cap: int
    count: Callable[..., int]
    lines: Callable[..., Iterator[str]]


FAMILIES = {
    "set-partitions": Family(("n", "k"), 10, set_partitions_count, _set_partition_lines),
    "r-stirling": Family(("n", "k", "r"), 10, r_stirling_count, _r_stirling_lines),
    "ordered": Family(("n",), 9, ordered_partitions_count, _ordered_lines),
    "barred": Family(("n", "lam"), 9, barred_count, _barred_lines),
    "r-derangements": Family(("k", "r"), 9, r_derangements_enum, _r_derangement_lines),
    "r-deranged-partitions": Family(
        ("n", "r"), 8, r_deranged_partitions_enum, _r_deranged_partition_lines
    ),
}
