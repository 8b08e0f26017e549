"""Oracles from sympy, which shares no code with debell, past the enumeration
caps (n up to 30).  sympy is a test-only dependency; without it these skip."""

import pytest

from debell.bell import omega
from debell.derangements import r_derangement
from debell.exact import ParamSet
from debell.stirling import stirling_rec

sympy = pytest.importorskip("sympy")
numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
stirling = numbers.stirling

N_MAX = 30


def test_second_kind_numbers():
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            assert stirling_rec(n, k, 0, 1, 0) == int(stirling(n, k)), (n, k)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_r_stirling_numbers(r):
    # S(n, k; 0, 1, r) = sum_j C(n, j) S(j, k) r^(n-j), the r-Stirling number
    for n in range(N_MAX + 1):
        for k in range(n + 1):
            expected = sum(
                sympy.binomial(n, j) * stirling(j, k) * r ** (n - j) for j in range(k, n + 1)
            )
            assert stirling_rec(n, k, 0, 1, r) == int(expected), (n, k, r)


def test_derangements():
    for k in range(N_MAX + 1):
        assert r_derangement(k, 0) == int(sympy.subfactorial(k)), k


def test_fubini_numbers():
    # omega at lam = x = 1 on the classical weights counts ordered set partitions
    p = ParamSet.make(0, 1, 0, 1, 1, 0)
    for n in range(N_MAX + 1):
        expected = sum(sympy.factorial(k) * stirling(n, k) for k in range(n + 1))
        assert omega(n, p) == int(expected), n
