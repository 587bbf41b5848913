"""Differential checks against sympy's independent number theory.

sympy is a test-only dependency; without it this module is skipped.
"""

import pytest
from conftest import oracle_primes

from etaquad import QuadForm, find_rep, kronecker, representations, sigma

pytest.importorskip("sympy")

from sympy.functions.combinatorial.numbers import divisor_sigma, kronecker_symbol  # noqa: E402
from sympy.solvers.diophantine.diophantine import cornacchia  # noqa: E402


def test_sigma_matches_sympy():
    assert [sigma(n) for n in range(1, 3000)] == [divisor_sigma(n) for n in range(1, 3000)]


def test_kronecker_matches_sympy():
    for a in range(-30, 31):
        for n in (*range(-60, 0), *range(1, 61)):
            assert kronecker(a, n) == kronecker_symbol(a, n), (a, n)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (3, 5), (1, 15)])
def test_prime_representations_match_cornacchia(a, b):
    for p in oracle_primes(5000):
        if a % p == 0:
            continue  # Cornacchia needs gcd(a, p) = 1
        pairs = representations(QuadForm(a, 0, b), p).pairs
        ours = {(x, y) for x, y in pairs if x >= 0 and y >= 0}
        theirs = cornacchia(a, b, p)
        if a == b:  # sympy lists one of (x, y) and (y, x)
            theirs |= {(y, x) for x, y in theirs}
        assert ours == theirs, p
        assert find_rep(a, b, p) == min(ours, default=None), p
