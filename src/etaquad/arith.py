"""Divisor sums, primes and quadratic residue symbols.

Everything here is exact integer arithmetic.  All objects are immutable
after construction and safe to share between threads; ``is_prime`` holds
its last few answers (``functools.lru_cache`` is thread-safe).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import index

import numpy as np

from .errors import ResourceLimitError, check_budget

# Sieve memory budget: one byte per odd integer up to `limit`.  The range
# state of theorems.range_report is as long as the sieve's flags, so this
# budget, checked before the sieve allocates, bounds both.
SIEVE_BUDGET_BYTES = 1 << 28


def divisor_sums(limit: int) -> np.ndarray:
    """sigma(0..limit) as one read-only int64 array, with sigma(0) = 0.

    A divisor-pair sieve: each d <= isqrt(limit) adds d + q at n = d*q for
    every q >= d, and the square n = d^2 then gives back the d it counted
    twice.  That is isqrt(limit) numpy steps, not one per d <= limit.
    """
    if limit < 0:
        raise ValueError(f"divisor_sums limit must be >= 0, got {limit}")
    values = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, isqrt(limit) + 1):
        q = np.arange(d, limit // d + 1, dtype=np.int64)
        values[d * q] += d + q
        values[d * d] -= d
    values.flags.writeable = False
    return values


def _odd_sieve(limit: int) -> np.ndarray:
    """Eratosthenes over the odd integers to limit: entry i is true iff 2i + 1
    is prime.  Each odd prime p crosses out its odd multiples from p^2, the
    entries (p^2 - 1)/2 + k*p."""
    flags = np.ones((limit + 1) // 2, dtype=np.bool_)
    flags[0] = False  # 1
    for i in range(1, (isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    return flags


def sieve_primes(limit: int) -> np.ndarray:
    """The primes to limit, as one read-only int64 array.

    They are read off `_odd_sieve`'s flags in place: entry 0 (the integer 1)
    is set to hold the slot for 2, and every other true entry i gives 2i + 1.
    """
    limit = index(limit)  # a Python int, so the budget check cannot wrap
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    check_budget((limit + 1) // 2, SIEVE_BUDGET_BYTES, "sieve to {} needs {need} bytes", limit)
    flags = _odd_sieve(limit)
    flags[0] = True
    primes = np.flatnonzero(flags)
    primes *= 2
    primes += 1
    primes[0] = 2
    primes.flags.writeable = False
    return primes


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# (bound, bases): every odd composite n < bound fails the strong-probable-prime
# test to one of the bases (Pomerance-Selfridge-Wagstaff, Jaeschke, Jiang-Deng,
# Sorenson-Webster)
_MR_BASES = (
    (25_326_001, _SMALL_PRIMES[:3]),
    (3_215_031_751, _SMALL_PRIMES[:4]),
    (2_152_302_898_747, _SMALL_PRIMES[:5]),
    (3_474_749_660_383, _SMALL_PRIMES[:6]),
    (341_550_071_728_321, _SMALL_PRIMES[:7]),
    (3_825_123_056_546_413_051, _SMALL_PRIMES[:9]),
    (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES[:13]),
)


def _strong_probable_prime(n: int, base: int) -> bool:
    """Whether odd n > base passes the strong-probable-prime test to base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Whether odd n > 47, free of the primes to 47, passes the strong Lucas
    probable-prime test with Selfridge's parameters: the first D in 5, -7,
    9, -11, ... with (D|n) = -1, P = 1 and Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:  # no D exists for a square
        return False
    d = 5
    while (j := kronecker(d, n)) == 1:
        d = -d - 2 if d > 0 else -d + 2
    if j == 0:  # 1 < gcd(d, n) < n
        return False
    q = (1 - d) // 4
    # n + 1 = m * 2^s with m odd; walk m's bits from the top with
    # U_k, V_k and Q^k, doubling k and then adding one where the bit is set
    m, s = n + 1, 0
    while m % 2 == 0:
        m, s = m // 2, s + 1
    u, v, qk = 1, 1, q % n
    for bit in bin(m)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            # U_(k+1) = (U + V)/2 and V_(k+1) = (D*U + V)/2, halved mod odd n
            u, v = u + v, d * u + v
            u, v = (u + n * (u & 1)) // 2 % n, (v + n * (v & 1)) // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Exact primality below 3.3e24, and exact compositeness past it.

    Division by the primes to 47 first, then the strong-probable-prime test
    to the bases that _MR_BASES proves enough below n's bound.  Past the
    last bound a strong Lucas test follows (together a BPSW test, with no
    known pseudoprime): n that fails either test is composite, and n that
    passes both raises ResourceLimitError, since a proof would need trial
    division to sqrt(n) > 1.8e12 or a primality certificate.

    The last _PROOFS_HELD answers are held, so a caller that checks n and
    then searches n's representations (a one-prime verdict) proves n once;
    the inert-prime exit of that search and of its reads asks for none.
    """
    return _is_prime(index(n))  # a Python int, so the modular steps never wrap


# answers is_prime holds.  A one-prime verdict asks for p up to three times (its
# check, then its search and, on a fresh cache, T4.1's kernel audit at t = p;
# its reads' inert tests ask for no proof) with no other proof between them, so 8 leaves room
_PROOFS_HELD = 8


@lru_cache(maxsize=_PROOFS_HELD)
def _is_prime(n: int) -> bool:
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 53 * 53:
        return n > 1
    for bound, bases in _MR_BASES:
        if n < bound:
            break
    if not all(_strong_probable_prime(n, base) for base in bases):
        return False
    if n < bound:
        return True
    if not _strong_lucas_probable_prime(n):
        return False
    raise ResourceLimitError(
        f"is_prime({n}): a probable prime past {bound}, the last bound of proven primality"
    )


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending the Jacobi and Legendre symbols
    to all nonzero n.  For an odd prime n it is the Legendre symbol."""
    a, n = index(a), index(n)
    if n == 0:
        raise ValueError("kronecker symbol (a|0) is not defined here")
    sign = 1
    if n < 0:
        if a < 0:
            sign = -1
        n = -n
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a|2) = (-1)^((a^2-1)/8), folded in once per factor of 2
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi reciprocity loop on the remaining odd part
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0
