"""Shared brute-force oracles for the test suite.

These are deliberately independent of the package implementations:
straight-line enumeration only, no shared helpers, so they stay valid
as ground truth for the paths they check.
"""

import os
from math import gcd, isqrt
from pathlib import Path

import numpy as np
import pytest

# tests that start `python -m etaquad` or `python -c` children need the
# source tree on their path too when the package is not installed
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def oracle_primes(limit: int) -> list[int]:
    """Trial-division prime list."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
    return out


def oracle_sigma(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def oracle_product_table(a: int, b: int, limit: int) -> list[int]:
    """Coefficients of q^1..q^limit of the cubed two-factor product, by
    expanding (1 - t)^3 one factor at a time over big ints."""
    vals = [0] * limit
    vals[0] = 1
    for step in (a, b):
        for k in range(1, (limit - 1) // step + 1):
            s = step * k
            for i in range(limit - 1, s - 1, -1):
                acc = vals[i] - 3 * vals[i - s]
                if i >= 2 * s:
                    acc += 3 * vals[i - 2 * s]
                if i >= 3 * s:
                    acc -= vals[i - 3 * s]
                vals[i] = acc
    return vals


def oracle_reps(a: int, b: int, c: int, n: int) -> list[tuple[int, int]]:
    """All (x, y) with a*x^2 + b*x*y + c*y^2 = n by scanning the full
    positive-definiteness box."""
    d = b * b - 4 * a * c
    assert d < 0 and a > 0
    xmax = isqrt(4 * c * n // -d)
    ymax = isqrt(4 * a * n // -d)
    out = []
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            if a * x * x + b * x * y + c * y * y == n:
                out.append((x, y))
    return sorted(out)


def oracle_scan(a: int, b: int, c: int, n: int) -> list[tuple[int, int]]:
    """Every (x, y) with x >= 0 and a*x^2 + b*x*y + c*y^2 = n, in ascending x,
    then y: one isqrt per x up to the positive-definiteness bound, with no
    filter before it."""
    d = b * b - 4 * a * c
    assert d < 0 and a > 0
    out = []
    for x in range(isqrt(4 * c * n // -d) + 1):
        disc_y = d * x * x + 4 * c * n
        s = isqrt(disc_y)
        if s * s != disc_y:
            continue
        for root in sorted({-s, s}):
            num = -b * x + root
            if num % (2 * c) == 0:
                out.append((x, num // (2 * c)))
    return out


def oracle_lattice_points(a: int, b: int, t_max: int, keep):
    """`quadform.lattice_points` one row at a time: for each y, every x with
    a*x^2 + b*y^2 <= t_max as one int64 array, masked by keep."""
    a, b = min(a, t_max + 1), min(b, t_max + 1)
    found = []
    for y in range(isqrt(t_max // b) + 1 if t_max >= 0 else 0):
        x = np.arange(isqrt((t_max - b * y * y) // a) + 1, dtype=np.int64)
        t = a * x * x + b * y * y
        hit = keep(t)
        found.append((t[hit], x[hit], np.full(np.count_nonzero(hit), y, dtype=np.int64)))
    if not found:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    return tuple(np.concatenate(column) for column in zip(*found))


def oracle_class_group(d: int) -> list[tuple[int, int, int]]:
    """The reduced primitive forms (a, b, c) of discriminant d < 0, sorted, by
    a double loop over b >= 0 and the divisors a <= sqrt((b^2 - d)/4)."""
    classes = []
    b = abs(d) % 2
    while 3 * b * b <= -d:
        ac = (b * b - d) // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if gcd(gcd(a, b), c) == 1:
                    classes.append((a, b, c))
                    if 0 < b < a < c:
                        classes.append((a, -b, c))
            a += 1
        b += 2
    return sorted(classes)


def coprime_pairs(limit: int):
    for m in range(1, limit + 1):
        for n in range(1, limit + 1):
            if gcd(m, n) == 1:
                yield m, n


@pytest.fixture(scope="session")
def primes_500():
    return oracle_primes(500)
