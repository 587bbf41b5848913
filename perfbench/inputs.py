"""Seeded inputs for the three benchmark workloads.

Pure Python with no etaquad import: the parent process uses this module
to state work counts and to check seed determinism, and each child uses
it to build the operation list it times.  The same seed always gives the
same inputs; the seed only picks among inputs of (nearly) equal cost, so
work counts stay close from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import isqrt

WORKLOADS = ("verify-range", "table-dump", "point-queries")

# verify-range: one CLI case per family at a common p_max around 1e5.
# Each pair list holds parameters whose representation scan costs the
# same: the scan length of a*x^2 + b*y^2 = m is sqrt(m/a), so a is fixed.
VERIFY_P_MAX = 100_000
T31_PAIRS = ((3, 5), (3, 7), (3, 11), (3, 13))
C33_PAIRS = ((3, 5), (3, 7), (5, 7), (3, 11))
T41_PAIRS = ((1, 2), (1, 4), (1, 6), (1, 10))
T43_PAIRS = ((1, 11), (1, 19), (1, 27), (1, 35))
VERIFY_SAMPLE_CANDIDATES = 150
VERIFY_SAMPLES_PER_CASE = 3

# table-dump: the sparse cost of (a, b) falls with ab, so the second
# sparse pair is drawn from pairs of equal product; the naive cost grows
# with 1/a + 1/b, so the naive build keeps (1, 1) and the seed moves N.
SPARSE_N = 10**7
SPARSE_SECOND_PAIRS = ((3, 5), (5, 3), (1, 15), (15, 1))
NEWTON_N = 20_000
NEWTON_PAIRS = ((1, 1), (1, 7), (3, 5), (1, 3))
NAIVE_N = 1_500
CLI_N = 10**6
# pairs with a like share of small coefficients, which Python caches, so the
# rows the CLI holds take the same memory whatever the seed picks
CLI_PAIRS = ((1, 3), (1, 5), (2, 3), (2, 5), (1, 11))
TABLE_SAMPLES = 12

# point-queries: counts per query kind (300 in all), each drawn from
# equal-width strata of its range so every seed has the same size mix.
# Each kind takes its inputs in ascending order (so the shared table
# cache grows the same way whatever the seed) and the seed interleaves
# the kinds.  Primes alternate in and out of the residue classes on which
# the query does its full work, so fast and slow answers keep one ratio.
QUERY_MIX = (
    ("E1.6", 30, (1_000_000, 4_000_000)),
    ("C3.1", 30, (1_000_000, 4_000_000)),
    ("T4.1", 40, (1_000_000, 4_000_000)),
    ("T5.3", 30, (100_000, 800_000)),
    ("reps", 50, (10**9, 10**10)),
    ("find_rep", 60, (1_000_000, 4_000_000)),
    ("class_group", 60, (400_000, 800_000)),
)
FULL_WORK = {
    "E1.6": lambda p: p % 7 in (1, 2, 4),  # p = x^2 + 7y^2
    "C3.1": lambda p: p % 4 == 1,  # p = x^2 + y^2
    "T4.1": lambda p: p % 8 == 3,  # p = x^2 + 2y^2 with p = 8n + 3
    "T5.3": lambda p: p % 30 in (1, 17, 19, 23),  # needs a representation
    "find_rep": lambda p: p % 30 in (17, 23),  # p = 3x^2 + 5y^2
}
REPS_FORMS = (1, 2, 3, 5, 7)  # x^2 + c*y^2: scan length sqrt(n), whatever c


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in small:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes_upto(limit: int) -> list[int]:
    """Odd primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 3:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    return [n for n in range(3, limit + 1, 2) if flags[n]]


def _prime_from(start: int, want=lambda p: True) -> int:
    """The first prime >= start that satisfies `want`."""
    p = start | 1
    while not (is_prime(p) and want(p)):
        p += 2
    return p


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One uniform draw from each of `count` equal-width strata of [lo, hi)."""
    width = (hi - lo) // count
    return [rng.randrange(lo + i * width, lo + (i + 1) * width) for i in range(count)]


def verify_range(seed: int) -> dict:
    rng = random.Random(f"verify-range:{seed}")
    p_max = VERIFY_P_MAX + rng.randrange(1_000)
    cases = [
        ["E1.6", None],
        ["C3.1", None],
        ["T3.1", list(rng.choice(T31_PAIRS))],
        ["C3.3", list(rng.choice(C33_PAIRS))],
        ["T4.1", list(rng.choice(T41_PAIRS))],
        ["T4.3", list(rng.choice(T43_PAIRS))],
        ["T5.3", None],
    ]
    primes = odd_primes_upto(p_max)
    pool = [p for p in primes if p > 5]
    samples = {case: rng.sample(pool, VERIFY_SAMPLE_CANDIDATES) for case, _ in cases}
    return {
        "p_max": p_max,
        "cases": cases,
        "odd_primes": len(primes),
        "samples": samples,
        "units": len(primes) * len(cases),
    }


def table_dump(seed: int) -> dict:
    rng = random.Random(f"table-dump:{seed}")
    builds = [
        ["sparse", [1, 1], SPARSE_N + rng.randrange(1_000)],
        ["sparse", list(rng.choice(SPARSE_SECOND_PAIRS)), SPARSE_N + rng.randrange(1_000)],
        ["newton", list(rng.choice(NEWTON_PAIRS)), NEWTON_N + rng.randrange(100)],
        ["naive", [1, 1], NAIVE_N + rng.randrange(-20, 21)],
    ]
    dumps = [[list(pair), CLI_N] for pair in rng.sample(CLI_PAIRS, 2)]
    samples = [rng.randrange(1, SPARSE_N + 1) for _ in range(TABLE_SAMPLES)]
    # the CLI builds each dumped table, then writes it one row per index
    units = sum(n for _, _, n in builds) + sum(2 * n for _, n in dumps)
    return {"builds": builds, "dumps": dumps, "samples": samples, "units": units}


def point_queries(seed: int) -> dict:
    rng = random.Random(f"point-queries:{seed}")
    by_kind = {}
    for kind, count, (lo, hi) in QUERY_MIX:
        queries = []
        for i, x in enumerate(_strata(rng, count, lo, hi)):
            if kind == "reps":
                queries.append([kind, REPS_FORMS[i % len(REPS_FORMS)], x])
            elif kind == "class_group":
                # a negative discriminant d has d = 0 or 1 (mod 4); alternate
                queries.append([kind, -(x - x % 4 + 3 * (i % 2))])
            else:
                full = FULL_WORK[kind]
                queries.append([kind, _prime_from(x, lambda p: full(p) == (i % 2 == 0))])
        by_kind[kind] = iter(queries)
    order = [kind for kind, count, _ in QUERY_MIX for _ in range(count)]
    rng.shuffle(order)
    queries = [next(by_kind[kind]) for kind in order]
    return {"queries": queries, "units": len(queries)}


_BUILDERS = {
    "verify-range": verify_range,
    "table-dump": table_dump,
    "point-queries": point_queries,
}


def make(workload: str, seed: int) -> dict:
    return _BUILDERS[workload](seed)


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
