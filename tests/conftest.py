"""Shared brute-force oracles for the test suite, and two test helpers.

The oracles are deliberately independent of the package implementations:
straight-line enumeration only, no shared helpers, so they stay valid
as ground truth for the paths they check.  The one exception is the two
classical constructions of C3.1's x, which take their primality test and
Legendre symbol from the package's `is_prime` and `kronecker`, each checked
on its own in test_arith.

The class-group arithmetic (`reduce`, `inverse`, `compose` and the form
predicates beside them) is classical reduction and Dirichlet composition
rather than enumeration.  It lives here because no engine path runs it:
the tests use it to state the representation-count rules.  It builds the
package's `QuadForm` record and calls nothing else of the package.
"""

import os
from math import gcd, isqrt
from operator import index
from pathlib import Path

import numpy as np
import pytest

from etaquad import QuadForm, is_prime, kronecker

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


def sigma(n: int) -> int:
    """Sum of the positive divisors of n, by the divisor pairs d, n/d with
    d <= sqrt(n): the oracle of `divisor_sums`."""
    n = index(n)  # a Python int, as the result
    if n < 1:
        raise ValueError(f"sigma is defined for positive integers, got {n}")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            q = n // d
            if q != d:
                total += q
        d += 1
    return total


def sigma_scaled(n: int, d: int) -> int:
    """sigma(n/d) when d divides n, else 0 (the divisor sum at a rational
    argument vanishes off the integers)."""
    n, d = index(n), index(d)
    if n < 1 or d < 1:
        raise ValueError(f"sigma_scaled needs positive arguments, got ({n}, {d})")
    if n % d:
        return 0
    return sigma(n // d)


def weighted_sigma(a: int, b: int, n: int) -> int:
    """a*sigma(n/a) + b*sigma(n/b): the oracle of `etaseries._newton_weights`."""
    a, b, n = index(a), index(b), index(n)  # Python ints, so a*sigma(n/a) cannot wrap
    if a < 1 or b < 1 or n < 1:
        raise ValueError(f"weighted_sigma needs positive arguments, got ({a}, {b}, {n})")
    return a * sigma_scaled(n, a) + b * sigma_scaled(n, b)


def _check_construction(p: int, who: str) -> None:
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"{who} needs a prime p = 1 (mod 4), got {p}")


def gauss_doubling(p: int) -> int:
    """binom((p-1)/2, (p-1)/4) mod p.

    For p = x^2 + y^2 with x odd and the sign fixed by x = 1 (mod 4),
    this residue equals 2x mod p.  Computed by multiplicative
    accumulation with a single modular inverse; the binomial itself is
    never formed (it outgrows any fixed width almost immediately).
    """
    p = index(p)  # a Python int, which pow(den, p - 2, p) needs
    _check_construction(p, "gauss_doubling")
    n = (p - 1) // 2
    k = (p - 1) // 4
    num = den = 1
    for i in range(1, k + 1):
        num = num * ((n - k + i) % p) % p
        den = den * i % p
    return num * pow(den, p - 2, p) % p


def jacobsthal(p: int) -> int:
    """Character sum over n of (n^3 - 4n | p).

    Equals -2x for p = x^2 + y^2 with x = 1 (mod 4); an exact integer
    companion to the mod-p binomial construction.
    """
    _check_construction(p, "jacobsthal")
    return sum(kronecker(n * n * n - 4 * n, p) for n in range(p))


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


def oracle_dump_rows(first: int, values) -> str:
    """The CLI `lambda` rows "n<TAB>value\\n" for n = first, first + 1, ...:
    one % format over the interleaved indices and values, as Python
    itself renders integers, with no part of the CLI's digit writer."""
    cells = [0] * (2 * len(values))
    cells[0::2] = range(first, first + len(values))
    cells[1::2] = [int(v) for v in values]
    return "%d\t%d\n" * len(values) % tuple(cells)


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


def oracle_lattice_points(a: int, b: int, t_max: int, keep, x_class=None, y_class=None):
    """`quadform.lattice_points` one row at a time: for each y of y_class,
    every x of x_class with a*x^2 + b*y^2 <= t_max as one int64 array, masked
    by keep (a class None takes every x, or y)."""
    a, b = min(a, t_max + 1), min(b, t_max + 1)
    found = []
    for y in range(isqrt(t_max // b) + 1 if t_max >= 0 else 0):
        if y_class is not None and y % 2 != y_class:
            continue
        x = np.arange(isqrt((t_max - b * y * y) // a) + 1, dtype=np.int64)
        if x_class is not None:
            x = x[x % 2 == x_class]
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


def oracle_conductor(d: int) -> int:
    """The largest f with f^2 | d and d/f^2 = 0 or 1 (mod 4), by a loop over
    every f <= sqrt(|d|)."""
    conductor = 1
    f = 2
    while f * f <= -d:
        if d % (f * f) == 0 and (d // (f * f)) % 4 in (0, 1):
            conductor = f
        f += 1
    return conductor


def unit_weight(d: int) -> int:
    """The number of automorphs of a form of discriminant d < 0: 6 for d = -3,
    4 for d = -4, else 2."""
    return {-3: 6, -4: 4}.get(d, 2)


def principal(d: int) -> QuadForm:
    """The principal form of discriminant d: [1, d mod 2, (d mod 2 - d)/4]."""
    k = d % 2
    return QuadForm(1, k, (k * k - d) // 4)


def is_primitive(form: QuadForm) -> bool:
    return gcd(gcd(form.a, form.b), form.c) == 1


def is_reduced(form: QuadForm) -> bool:
    a, b, c = form.a, form.b, form.c
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def _int_form(form: QuadForm) -> QuadForm:
    """The form with Python-int fields, so that no product of them wraps as a
    numpy integer's would."""
    return QuadForm(index(form.a), index(form.b), index(form.c))


def _require_positive_definite(form: QuadForm) -> None:
    if not form.is_positive_definite():
        raise ValueError(f"form {form} is not positive definite")


def reduce(form: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to the input.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c;
    obtained by alternating translations (normalize b into (-a, a]) and
    the swap step until the conditions hold.
    """
    form = _int_form(form)
    _require_positive_definite(form)
    a, b, c = form.a, form.b, form.c
    while True:
        if not -a < b <= a:
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c or (a == c and b < 0):
            s = (c + b) // (2 * c)
            a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        else:
            break
    out = QuadForm(a, b, c)
    assert is_reduced(out) and out.discriminant() == form.discriminant()
    return out


def inverse(form: QuadForm) -> QuadForm:
    """Reduced representative of the inverse class, i.e. of [a, -b, c]."""
    form = _int_form(form)
    _require_positive_definite(form)
    if not is_primitive(form):
        raise ValueError(f"form {form} is not primitive")
    return reduce(QuadForm(form.a, -form.b, form.c))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for b > 0 (then g > 0)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Reduced representative of the product class (Dirichlet composition).

    Direct composition of primitive forms (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 5.4.7): two extended gcds
    give the united form [a1*a2/d1^2, B, C] with B = b2 (mod 2*a2/d1),
    which is then reduced.
    """
    f1, f2 = _int_form(f1), _int_form(f2)
    _require_positive_definite(f1)
    _require_positive_definite(f2)
    if f1.discriminant() != f2.discriminant():
        raise ValueError(
            f"cannot compose forms of discriminants {f1.discriminant()} and {f2.discriminant()}"
        )
    if not (is_primitive(f1) and is_primitive(f2)):
        raise ValueError("composition needs primitive forms")
    a1, b1 = f1.a, f1.b
    a2, b2, c2 = f2.a, f2.b, f2.c
    s = (b1 + b2) // 2  # b1, b2 share the parity of the discriminant
    d, y1, _ = _xgcd(a2, a1)
    d1, x2, y2 = _xgcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * y2 * (b2 - s) - x2 * c2) % v1
    big_a, big_b = v1 * v2, b2 + 2 * v2 * r
    num = big_b * big_b - f1.discriminant()
    assert num % (4 * big_a) == 0
    return reduce(QuadForm(big_a, big_b, num // (4 * big_a)))


def corrupting(monkeypatch, method, at):
    """Make every `method` table build come out 1 off at index `at`."""
    import etaquad.etaseries as es

    build = es._BUILDERS[method]

    def corrupted(params, limit):
        vals = build(params, limit)
        vals[at - 1] += 1
        return vals

    monkeypatch.setitem(es._BUILDERS, method, corrupted)


def outcome_of(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # the exception is the outcome
        return type(exc), str(exc)


def coprime_pairs(limit: int):
    for m in range(1, limit + 1):
        for n in range(1, limit + 1):
            if gcd(m, n) == 1:
                yield m, n


@pytest.fixture(scope="session")
def primes_500():
    return oracle_primes(500)
