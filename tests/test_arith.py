"""Divisor sums, sieves and residue symbols, and conftest's oracles: the
divisor sums and the two classical single-prime constructions."""

import tracemalloc
from math import comb, gcd, isqrt

import numpy as np
import pytest
from conftest import (
    coprime_pairs,
    gauss_doubling,
    jacobsthal,
    oracle_primes,
    oracle_sigma,
    sigma,
    sigma_scaled,
    weighted_sigma,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from etaquad import ResourceLimitError, divisor_sums, is_prime, kronecker, sieve_primes
from etaquad.arith import _strong_lucas_probable_prime


@pytest.mark.parametrize("n,expected", [(1, 1), (6, 12), (13, 14), (4, 7), (36, 91)])
def test_sigma_examples(n, expected):
    assert sigma(n) == expected


def test_sigma_matches_enumeration():
    for n in range(1, 500):
        assert sigma(n) == oracle_sigma(n)


@pytest.mark.parametrize("n", [0, -1, -6])
def test_sigma_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        sigma(n)


@pytest.mark.parametrize("n,d,expected", [(6, 3, 3), (5, 3, 0), (4, 1, 7), (12, 4, 4)])
def test_sigma_scaled_examples(n, d, expected):
    assert sigma_scaled(n, d) == expected


def test_sigma_scaled_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_scaled(0, 1)
    with pytest.raises(ValueError):
        sigma_scaled(5, 0)


@pytest.mark.parametrize("a,b,n,expected", [(1, 1, 1, 2), (1, 5, 5, 11), (3, 5, 4, 0)])
def test_weighted_sigma_examples(a, b, n, expected):
    assert weighted_sigma(a, b, n) == expected


def test_weighted_sigma_rejects_zero():
    with pytest.raises(ValueError):
        weighted_sigma(0, 1, 1)


def test_sigma_table_basics():
    table = divisor_sums(2000)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert len(table) == 2001 and table[0] == 0 and table[1] == 1
    for p in oracle_primes(2000):
        assert table[p] == p + 1
    for n in range(1, 2001):
        assert table[n] == sigma(n)
    assert divisor_sums(0).tolist() == [0]
    with pytest.raises(ValueError):
        divisor_sums(-1)


def test_sigma_multiplicative_on_coprime_pairs():
    bound = 10**4
    table = divisor_sums(bound).tolist()
    for m, n in coprime_pairs(100):
        if m * n <= bound:
            assert table[m * n] == table[m] * table[n]
    # the full exhaustive sweep mn <= 10^4
    for m in range(1, bound + 1):
        for n in range(1, bound // m + 1):
            if gcd(m, n) == 1:
                assert table[m * n] == table[m] * table[n]


def test_sieve_examples():
    assert sieve_primes(10).tolist() == [2, 3, 5, 7]
    assert len(sieve_primes(30)) == 10
    assert len(sieve_primes(1000)) == 168
    assert sieve_primes(1000).tolist() == oracle_primes(1000)


def test_sieve_flags_and_errors():
    primes = sieve_primes(100)
    assert len(primes) == 25 and 97 in primes and 91 not in primes
    with pytest.raises(ValueError):
        sieve_primes(1)
    with pytest.raises(ResourceLimitError):
        sieve_primes(2**40)


def test_sieve_flag_array():
    primes = sieve_primes(1000)
    assert not primes.flags.writeable and primes.dtype == np.int64
    assert primes.tolist() == oracle_primes(1000)
    with pytest.raises(ValueError, match="read-only"):
        primes[0] = 3


def test_sieve_every_small_limit():
    # every limit to 200, odd and even, squares of primes included: slot 0 holds 2
    for limit in range(2, 201):
        primes = sieve_primes(limit)
        assert not primes.flags.writeable and primes.dtype == np.int64
        assert primes.tolist() == oracle_primes(limit)


def test_sieve_budget_counts_odd_integers(monkeypatch):
    import etaquad.arith as arith

    # one byte per odd integer: 199 fits 100 bytes and 201 does not
    monkeypatch.setattr(arith, "SIEVE_BUDGET_BYTES", 100)
    primes = sieve_primes(199)
    assert len(primes) == 46 and primes[-1] == 199
    with pytest.raises(ResourceLimitError, match="^sieve to 201 needs 101 bytes, budget is 100$"):
        sieve_primes(201)


def test_sieve_holds_one_flag_array():
    # one byte per odd integer, sieved in place, and the primes read off it in
    # place: 5 MB of flags and 8 bytes per prime at 1e7, with no third array
    tracemalloc.start()
    try:
        primes = sieve_primes(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 664579
    assert peak < 5e6 + 8 * 664579 + 0.25e6


def test_is_prime_against_sieve():
    primes = set(sieve_primes(2000).tolist())
    for n in range(2001):
        assert is_prime(n) == (n in primes)


def test_strong_lucas_meets_a_factor_of_d(monkeypatch):
    import etaquad.arith as arith

    # 43679791 = 53 * 824147 has no prime factor to 47; Selfridge's search
    # passes D = 5, -7, ..., -51 with (D|n) = 1 and stops at D = 53 with
    # (D|n) = 0, so n is composite and the Lucas chain never starts.  (The
    # chain would fail too: modulo 53, which divides D, U_k = k / 2^(k-1)
    # and V_k = 2 / 2^k, neither 0 at k | n + 1 since 53 does not divide n + 1.)
    n = 43679791
    assert n == 53 * 824147 and all(n % p for p in range(2, 48))
    assert [kronecker((-1) ** k * (2 * k + 5), n) for k in range(25)] == [1] * 24 + [0]

    def no_chain(m):
        raise AssertionError(f"Lucas chain over the bits of {m} started")

    monkeypatch.setattr(arith, "bin", no_chain, raising=False)
    assert not _strong_lucas_probable_prime(n)


@pytest.mark.parametrize("a,n,expected", [(1, 7, 1), (3, 5, -1), (10, 5, 0)])
def test_kronecker_examples(a, n, expected):
    assert kronecker(a, n) == expected


# values frozen from an independent symbol implementation
@pytest.mark.parametrize(
    "a,n,expected",
    [
        (2, 15, 1),
        (-1, 5, 1),
        (-1, 3, -1),
        (7, 2, 1),
        (3, 2, -1),
        (5, 2, -1),
        (-2, 7, -1),
        (6, 35, -1),
        (-7, -9, -1),
        (4, -14, 0),
        (9, 16, 1),
        (22, 41, -1),
        (-30, 53, -1),
        (15, -4, 1),
    ],
)
def test_kronecker_extended_values(a, n, expected):
    assert kronecker(a, n) == expected


def test_kronecker_rejects_zero_modulus():
    with pytest.raises(ValueError):
        kronecker(3, 0)


def test_kronecker_euler_criterion(primes_500):
    # (a|p) = a^((p-1)/2) mod p for odd primes
    for p in primes_500:
        if p == 2:
            continue
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            assert kronecker(a, p) == (1 if e == 1 else -1 if e == p - 1 else 0)


@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-100, max_value=100).filter(lambda n: n != 0),
    st.integers(min_value=-100, max_value=100).filter(lambda n: n != 0),
)
@settings(max_examples=300, deadline=None)
def test_kronecker_multiplicative_in_modulus(a, n1, n2):
    assert kronecker(a, n1 * n2) == kronecker(a, n1) * kronecker(a, n2)


def test_kronecker_large_prime_modulus():
    p = 10**9 + 7
    for a in (2, 3, 5, 10**8 + 37, p - 1):
        e = pow(a, (p - 1) // 2, p)
        assert kronecker(a, p) == (1 if e == 1 else -1)


@pytest.mark.parametrize("p,expected", [(5, 2), (13, 7), (17, 2)])
def test_gauss_doubling_examples(p, expected):
    assert gauss_doubling(p) == expected


def test_gauss_doubling_matches_exact_binomial(primes_500):
    for p in primes_500:
        if p % 4 == 1:
            assert gauss_doubling(p) == comb((p - 1) // 2, (p - 1) // 4) % p


@pytest.mark.parametrize("p", [2, 7, 9, 15, 21])
def test_gauss_doubling_rejects_bad_input(p):
    with pytest.raises(ValueError):
        gauss_doubling(p)


@pytest.mark.parametrize("p,expected", [(5, -2), (13, 6), (17, -2)])
def test_jacobsthal_examples(p, expected):
    assert jacobsthal(p) == expected


@pytest.mark.parametrize("p", [2, 7, 9, 25])
def test_jacobsthal_rejects_bad_input(p):
    with pytest.raises(ValueError):
        jacobsthal(p)


def test_classical_constructions_concord(primes_500):
    # both encode the same odd x of p = x^2 + y^2, x = 1 (mod 4)
    for p in primes_500:
        if p % 4 != 1:
            continue
        j = jacobsthal(p)
        assert j % 2 == 0
        assert (-j) % p == gauss_doubling(p)
        x = -j // 2
        assert x % 4 == 1
        rest = p - x * x
        assert rest >= 0 and isqrt(rest) ** 2 == rest
