"""Every brute-force enumerator at its full default cap against its formula route,
and every closed route against the series route on the n = 5 and 6 grids.

Run from the repository root:

    PYTHONPATH=src python tests/oracle_sweep.py

It makes 133,587 checks.  The first 495 check every counter against its formula route (set
partitions for n <= 10; r-Stirling for n+r <= 10 with r <= 3; ordered and
barred arrangements, lam 1..3, for n <= 9; r-derangements for k+r <= 9 with
r <= 3; deranged partitions for n+r <= 8 with r <= 3), then every family's
listing length against its counter (set partitions at n = 10 and every k;
r-Stirling at n+r = 9 with r <= 2; ordered for n <= 7; barred for n <= 6,
lam 1..3; r-derangements for k+r <= 8 with r <= 3; deranged partitions for
n+r <= 6 with r <= 2), then the cycle-insertion derangement counter against
the permutation filter at 9 elements with r <= 3, then the block walker's
count at each block count against the growth-string tally at 10 elements
with r <= 3.  Last come the checks of ``tests/test_polynomial_identity.py`` at
n = 5 and 6, on the axes of its first 6 and 7 values: 133,092 checks at 33,273
points, which by that module's degree lemma prove every closed route equal to
the series route for all parameters at those n.  It prints every mismatch
and exits 1 if there is any.  pytest does not collect this file: the full
sweep is too slow for tier-1.
"""

from __future__ import annotations

import sys
import time

from debell import bell, derangements, enumeration, stirling
from debell.exact import ParamSet
from test_polynomial_identity import identity_checks


def sweep():
    """Yield (label, enumerated count, reference value) for every point: the
    formula value for a count, the count for a listing's length."""
    for n in range(11):
        for k in range(n + 1):
            yield (f"set_partitions_count({n}, {k})", enumeration.set_partitions_count(n, k),
                   stirling.stirling_rec(n, k, 0, 1, 0))
    for r in range(4):
        for n in range(11 - r):
            for k in range(n + 1):
                yield (f"r_stirling_count({n}, {k}, {r})", enumeration.r_stirling_count(n, k, r),
                       stirling.stirling_rec(n, k, 0, 1, r))
    for n in range(10):
        yield (f"ordered_partitions_count({n})", enumeration.ordered_partitions_count(n),
               bell.omega(n, ParamSet.make(lam=1)))
        for lam in (1, 2, 3):
            yield (f"barred_count({n}, {lam})", enumeration.barred_count(n, lam),
                   bell.omega(n, ParamSet.make(lam=lam)))
    for r in range(4):
        for k in range(10 - r):
            yield (f"r_derangements_enum({k}, {r})", enumeration.r_derangements_enum(k, r),
                   derangements.r_derangement(k, r))
    for r in range(4):
        for n in range(9 - r):
            yield (f"r_deranged_partitions_enum({n}, {r})",
                   enumeration.r_deranged_partitions_enum(n, r),
                   bell.deranged_bell_classic(n, r))
    for k in range(11):
        yield listed("set-partitions", 10, k)
    for r in range(3):
        for k in range(10 - r):
            yield listed("r-stirling", 9 - r, k, r)
    for n in range(8):
        yield listed("ordered", n)
    for n in range(7):
        for lam in (1, 2, 3):
            yield listed("barred", n, lam)
    for r in range(4):
        for k in range(9 - r):
            yield listed("r-derangements", k, r)
    for r in range(3):
        for n in range(7 - r):
            yield listed("r-deranged-partitions", n, r)
    for r in range(4):  # the counters' generator against the listers', at the cap
        yield (f"_derangement_count(9, {r})", enumeration._derangement_count(9, r),
               sum(1 for _ in enumeration._derangements(9, r)))
    for r in range(4):  # the block walker against the growth-string tally, k = 0..10
        tally = enumeration._r_stirling_tally(10, r)
        yield (f"_partitions_raw(10, k, {r}) per k",
               [sum(1 for _ in enumeration._partitions_raw(10, k, r)) for k in range(11)],
               [tally.get(k, 0) for k in range(11)])
    for n in (5, 6):  # the closed routes against the series route past tier-1's n <= 4
        for route, p, value, series_value in identity_checks(n):
            yield f"{route}({n}) at {p}", value, series_value


def listed(family: str, *point):
    """(label, length of the family's listing, its counter) at one point."""
    spec = enumeration.FAMILIES[family]
    at = ", ".join(f"{field}={v}" for field, v in zip(spec.fields, point))
    return f"len({family} listing, {at})", sum(1 for _ in spec.lines(*point)), spec.count(*point)

def main() -> int:
    t0 = time.perf_counter()
    checked = mismatched = 0
    for label, count, formula in sweep():
        checked += 1
        if count != formula:
            mismatched += 1
            print(f"MISMATCH {label}: enumerated {count}, reference {formula}")
    elapsed = time.perf_counter() - t0
    print(f"{checked} checks, {mismatched} mismatches, {elapsed:.1f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
