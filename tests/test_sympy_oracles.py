"""Differential checks against sympy's independent number theory.

sympy is a test-only dependency; without it this module is skipped.
"""

import random

import pytest
from conftest import oracle_primes, sigma

from etaquad import (
    QuadForm,
    ResourceLimitError,
    divisor_sums,
    find_rep,
    is_prime,
    kronecker,
    representations,
)
from etaquad.arith import (
    _MR_BASES,
    _SMALL_PRIMES,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
)

pytest.importorskip("sympy")

from sympy import isprime, nextprime, prevprime  # noqa: E402
from sympy.functions.combinatorial.numbers import divisor_sigma, kronecker_symbol  # noqa: E402
from sympy.ntheory.primetest import is_strong_lucas_prp  # noqa: E402
from sympy.solvers.diophantine.diophantine import cornacchia  # noqa: E402


def test_sigma_matches_sympy():
    want = [divisor_sigma(n) for n in range(1, 3000)]
    assert divisor_sums(2999)[1:].tolist() == want
    assert [sigma(n) for n in range(1, 3000)] == want


def test_is_prime_matches_sympy():
    rng = random.Random(11)
    last_bound = _MR_BASES[-1][0]
    for _ in range(4000):
        n = rng.randrange(-2, 10 ** rng.randint(1, 30))
        # past the last bound a prime raises ResourceLimitError (see below)
        if n >= last_bound and isprime(n):
            continue
        assert is_prime(n) == isprime(n), n


@pytest.mark.parametrize(
    "n",
    [
        # strong pseudoprimes to the first 2, 3, 4, 5, 6, 7, 9 and 12 prime bases;
        # each is at or past a bound, so more bases must expose it
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
        # Carmichael numbers; the last two have no prime factor below 211
        561,
        41041,
        825265,
        56052361,
        118901521,
    ],
)
def test_is_prime_on_pseudoprimes(n):
    assert not isprime(n)
    assert not is_prime(n)


def test_is_prime_below_each_bound():
    for bound, _ in _MR_BASES:
        assert is_prime(prevprime(bound))


def test_is_prime_past_last_bound_skips_trial_division():
    # the last bound is itself a strong pseudoprime to every base up to 41
    # (smallest factor 1,287,836,182,261); the strong Lucas test rejects it
    last_bound = _MR_BASES[-1][0]
    assert all(_strong_probable_prime(last_bound, p) for p in _MR_BASES[-1][1])
    assert not is_prime(last_bound)
    # seeded semiprimes just past the bound, each factor past 47
    rng = random.Random(13)
    for _ in range(200):
        p = nextprime(rng.randrange(53, 10**12))
        q = nextprime(last_bound // p + rng.randrange(10**6))
        assert not isprime(p * q) and not is_prime(p * q)
    # a prime past the bound passes both tests and meets the budget, which
    # names the bound, before any trial division could start
    for p in (nextprime(last_bound), nextprime(10**40)):
        want = rf"^is_prime\({p}\): a probable prime past {last_bound},"
        with pytest.raises(ResourceLimitError, match=want):
            is_prime(p)


def test_strong_lucas_matches_sympy():
    rng = random.Random(17)
    odd = [n for n in range(53, 30000, 2) if all(n % p for p in _SMALL_PRIMES)]
    odd += [rng.randrange(10**20, 10**30) | 1 for _ in range(3000)]
    odd = [n for n in odd if all(n % p for p in _SMALL_PRIMES)]
    for n in odd:
        assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n
    # the strong Lucas pseudoprimes below 20000 (OEIS A217255), and squares
    assert [n for n in odd if n < 20000 and _strong_lucas_probable_prime(n) and not isprime(n)] == [
        5459,
        5777,
        10877,
        16109,
        18971,
    ]
    assert not _strong_lucas_probable_prime(nextprime(10**15) ** 2)


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


@pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (3, 5), (1, 15)])
def test_large_prime_representations_match_cornacchia(a, b):
    # far past any scan: the first primes past 10^20, 10^22 and 10^24 and the
    # last below 3*10^24, under is_prime's last proven bound 3.3e24
    for p in (nextprime(10**20), nextprime(10**22), nextprime(10**24), prevprime(3 * 10**24)):
        pairs = representations(QuadForm(a, 0, b), p).pairs
        ours = {(x, y) for x, y in pairs if x >= 0 and y >= 0}
        theirs = cornacchia(a, b, p)
        if a == b:  # sympy lists one of (x, y) and (y, x)
            theirs |= {(y, x) for x, y in theirs}
        assert ours == theirs, p
        assert len(pairs) == 4 * len(theirs)  # the sign variants of each
        assert find_rep(a, b, p) == min(ours, default=None), p
