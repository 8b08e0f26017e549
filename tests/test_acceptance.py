"""Acceptance suite: every exit criterion at its stated size and tolerance.

All comparisons are exact (tolerance zero); there is no floating point
anywhere.  Each test prints one [C#] PASS/FAIL line (run with ``-s`` to see
them live).  The full-grid claim report is produced once per session and
shared by the harness criteria.
"""

import dataclasses
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from debell import asymptotics, bell, enumeration, verify
from debell.derangements import derangement, r_derangement_egf, r_derangement_rec
from debell.exact import ParamSet
from debell.stirling import stirling_egf, stirling_rec

FIXTURE = Path(__file__).parent / "fixtures" / "claim_outcomes.json"

ALL_CLAIM_IDS = [
    "T5",
    "T33",
    "T3-n",
    "T3-nr",
    "OMEGA-ID",
    "EQ40-literal",
    "EQ40-power",
    "EX-B1x2",
    "EX-B2x4",
    "EX-B2x6",
    "W4-explicit",
    "W5-explicit",
    "ASYMP-r0",
]

RECORDED_ONLY_CLAIMS = [
    "T33",
    "T3-nr",
    "EQ40-literal",
    "EX-B1x2",
    "EX-B2x4",
    "EX-B2x6",
    "W4-explicit",
    "W5-explicit",
]


@contextmanager
def crit(cid, title):
    try:
        yield
    except BaseException:
        print(f"[{cid}] {title}: FAIL")
        raise
    print(f"[{cid}] {title}: PASS")


@pytest.fixture(scope="module")
def grid():
    return verify.GridSpec.default()


@pytest.fixture(scope="module")
def full_report():
    return verify.run_claims()


def test_c01_stirling_route_equality(grid):
    with crit("C1", "stirling triangle route == series route, n <= 12, default grid"):
        for alpha, beta, gamma in grid.triples():
            for n in range(13):
                for k in range(n + 1):
                    assert stirling_rec(n, k, alpha, beta, gamma) == stirling_egf(
                        n, k, alpha, beta, gamma
                    ), (alpha, beta, gamma, n, k)


def test_c02_stirling_oracles():
    with crit("C2", "stirling specializations match exhaustive enumeration"):
        for n in range(9):
            for k in range(n + 1):
                assert stirling_rec(n, k, 0, 1, 0) == enumeration.set_partitions_count(n, k)
        for r in range(4):
            for n in range(10 - r):
                for k in range(n + 1):
                    assert stirling_rec(n, k, 0, 1, r) == enumeration.r_stirling_count(n, k, r)


def test_c03_derangement_triple_equality():
    with crit("C3", "derangement routes and enumeration agree for k+r <= 8"):
        for r in range(9):
            for k in range(9 - r):
                reference = r_derangement_egf(k, r)
                assert reference == enumeration.r_derangements_enum(k, r)
                if r == 0:
                    assert reference == derangement(k)
                for s in range(1, r + 1):
                    assert reference == r_derangement_rec(k, r, s), (k, r, s)


def test_c04_bell_lambda1_chain():
    with crit("C4", "series route == closed sum == classic == enumeration, n+r <= 8"):
        for r in range(3):
            params = ParamSet.make(0, 1, r, 1, 1, r)
            values = bell.bell_egf(8 - r, params)
            for n in range(9 - r):
                classic = bell.deranged_bell_classic(n, r)
                assert values[n] == bell.bell_lambda1(n, params)
                assert values[n] == classic
                assert classic == enumeration.r_deranged_partitions_enum(n, r)


def test_c05_convolution_route(grid):
    with crit("C5", "section convolution == series route for lam <= 3, n <= 8"):
        for params in dataclasses.replace(grid, lambdas=(1, 2, 3)).param_sets():
            values = bell.bell_egf(8, params)
            for n in range(9):
                assert values[n] == bell.bell_convolution(n, params), (params, n)


def test_c06_omega_consistency(grid):
    with crit("C6", "omega closed sum == series route; Fubini enumeration for n <= 7"):
        for params in grid.param_sets():
            assert bell.omega_egf(8, params) == [bell.omega(n, params) for n in range(9)]
        fubini = ParamSet.make(0, 1, 0, 1, 1, 0)
        prefix = [bell.omega(n, fubini) for n in range(5)]
        assert prefix == [1, 1, 3, 13, 75]
        for n in range(8):
            assert bell.omega(n, fubini) == enumeration.ordered_partitions_count(n)


def test_c07_integrality(grid):
    with crit("C7", "every B and omega value on the combinatorial grid is in Z >= 0"):
        for params in grid.param_sets():
            assert params.combinatorial_regime
            for v in bell.bell_egf(8, params):
                assert v.denominator == 1 and v >= 0, (params, v)
            for n in range(9):
                w = bell.omega(n, params)
                assert w.denominator == 1 and w >= 0, (params, n, w)


def test_c08_w_coefficients(grid, full_report):
    with crit("C8", "generic W(n,f) == expanded forms for f <= 3; f in {4,5} recorded"):
        for alpha, beta, gamma in grid.triples():
            for x in grid.xs:
                for r in grid.rs:
                    params = ParamSet.make(alpha, beta, gamma, x, 1, r)
                    b = asymptotics.bell_base(params, 12)
                    for f in range(4):
                        for n in range(f + 1, 13):
                            assert asymptotics.w_from_base(b, n, f) == (
                                asymptotics.w_explicit(b, n, f)
                            ), (params, f, n)
        counts = full_report.counts()
        assert counts["W4-explicit"]["EQUAL"] + counts["W4-explicit"]["UNEQUAL"] > 0
        assert counts["W5-explicit"]["EQUAL"] + counts["W5-explicit"]["UNEQUAL"] > 0


def test_c09a_asymptotic_first_order_exact():
    with crit("C9a", "n=1, m=0 estimate is exact (rel_error 0)"):
        params = ParamSet.make(0, 1, 1, 1, 1, 0)
        for delta in (100, 1000, 10000):
            cmp = asymptotics.bell_asymptotic_estimate(1, 0, delta, params)
            assert cmp.rel_error == 0


def test_c09b_asymptotic_error_strictly_decreases():
    """At n=4, every truncated order m in {0, 1, 2} converges: over delta in
    {100, 1000, 10000} the rel_error is positive, strictly decreasing, and
    shrinks by at least 10^(m+1)/2 per tenfold step in delta.

    The first omitted term is O(delta^-(m+1)), so each step of 10x in delta
    should cut the error by about 10^(m+1) (measured: 9.56/9.96 at m=0,
    94.8/99.5 at m=1, 947/995 at m=2).  A wrong W(4, f) for some f <= m
    would leave an O(delta^-f) error and miss the rate.  The full order
    m = n-1 = 3 is a terminating identity with error exactly 0 at every
    delta; those zeros are pinned in test_c09c.
    """
    with crit("C9b", "n=4, m=0..2 rel_error decreasing at rate delta^-(m+1)"):
        params = ParamSet.make(0, 1, 1, 1, 1, 0)
        for m in range(3):
            cmps = [
                asymptotics.bell_asymptotic_estimate(4, m, delta, params)
                for delta in (100, 1000, 10000)
            ]
            assert all(cmp.status == "ok" for cmp in cmps), (m, cmps)
            errors = [cmp.rel_error for cmp in cmps]
            assert all(err > 0 for err in errors), (m, errors)
            assert errors[0] > errors[1] > errors[2], (m, errors)
            for larger, smaller in zip(errors, errors[1:]):
                assert 2 * larger >= 10 ** (m + 1) * smaller, (
                    f"m={m}: error ratio {float(larger / smaller):.3g} is below "
                    f"10^{m + 1}/2 per tenfold step in delta"
                )


def test_c09c_asymptotic_error_regression():
    with crit("C9c", "final-delta error bound pinned from the first oracle run"):
        params = ParamSet.make(0, 1, 1, 1, 1, 0)
        errors = [
            asymptotics.bell_asymptotic_estimate(4, 3, delta, params).rel_error
            for delta in (100, 1000, 10000)
        ]
        assert errors == [Fraction(0), Fraction(0), Fraction(0)]


def test_c10_geometric_base_check():
    with crit("C10", "geometric base full-order expansion is exact for n <= 6"):
        from debell.exact import binomial

        base = (1,) * 9  # 1/(1-t)
        for n in range(1, 7):
            for delta in (7, 19, 101, 1000):
                # [t^n] 1/(1-t)^delta is C(delta+n-1, n), by stars and bars
                expected = binomial(delta + n - 1, n)
                assert asymptotics.expansion(base, delta, n, n - 1) == expected


def test_c11_harness_completeness_and_determinism(full_report):
    with crit("C11", "full registry terminates, covers every claim, and is deterministic"):
        assert sorted(verify.claim_registry()) == sorted(ALL_CLAIM_IDS)
        seen = {row.claim for row in full_report.rows}
        assert seen == set(ALL_CLAIM_IDS)
        first = verify.emit_report(full_report, "json")
        second = verify.emit_report(verify.run_claims(), "json")
        assert first == second


def test_c12_claim_adjudication_regression(full_report):
    with crit("C12", "required claims EQUAL; recorded outcomes match the fixture"):
        assert full_report.all_required_equal, full_report.required_failures()[:5]
        counts = full_report.counts()
        for cid in ("T5", "T3-n", "EQ40-power", "ASYMP-r0"):
            assert counts[cid]["UNEQUAL"] == 0
        for row in full_report.rows:
            if row.claim == "OMEGA-ID" and dict(row.point)["r"] == "0":
                assert row.status == "EQUAL"
        expected = json.loads(FIXTURE.read_text())
        assert verify.fixture_summary(full_report) == expected
        for cid in RECORDED_ONLY_CLAIMS:
            assert cid in expected
