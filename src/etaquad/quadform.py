"""Positive-definite integral binary quadratic forms.

Enumeration of the reduced primitive classes of a negative discriminant,
and the representations of integers by a form.

One integer's representations come from one of two searches, which give
the same thing: every (x, y) with x >= 0 and form(x, y) = n, in ascending
x and then y.  A prime n prime to 2ac, below ``is_prime``'s last proven
bound, with a diagonal form [a, 0, c] and gcd(a, c) = 1, takes Cornacchia's
algorithm (``_prime_reps``): a modular square root and one run of Euclid's
algorithm give the one solution with x, y > 0 in polylog time, and its
sign variants (and swaps, for x^2 + y^2) are all the others.  Every other
n takes a single scan over x >= 0 (``_scan``): a numpy residue filter on
two wheels of two small moduli each drops most x in chunks, and only the
survivors pay the exact ``isqrt`` in Python ints, lazily and in ascending
x.  Before a scan longer than one wheel period, ``representations`` asks
``_inert_obstruction``, which rules n out by the inert primes of the
discriminant (those q with (d|q) = -1) below 1000 and the Kronecker symbol
of the rest of n, and returns no pairs without a scan where it does.
``representations`` searches over whichever variable has the shorter
range and adds the mirror (-x, -y) of each solution where that variable is
positive, ``normalized_reps`` keeps the mod-4-normalized solutions that
drive the product-series identities, and ``find_rep`` takes the first
solution with y >= 0.
``lattice_points`` is one numpy sweep over the lattice points of a
diagonal form, in chunks of consecutive rows, that lists the
representations of many integers at once; it can keep one parity class of
x or of y, and then steps by 2 along it.
``class_group`` tests the c-window of each a for 4ac + d a square, in
numpy chunks with one float square test per cell, after a parity rule on
a and c has dropped the cells that cannot hit when d is odd, and then
keeps the hits with gcd(a, b, c) = 1 in one ``np.gcd`` pass.
``representations`` and ``class_group`` check a work budget (scan length,
cell count) before they start and raise ResourceLimitError past it;
``find_rep``, which stops at its first solution, raises once its scan
reaches x = REPS_SCAN_BUDGET without one.  The prime route scans nothing,
so no budget stops it.

Value semantics throughout: forms, class groups and representation sets
are immutable once built.  A form is a named tuple (a, b, c), built at
tuple cost, and equals the plain tuple of its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd, isqrt, prod
from operator import index
from typing import NamedTuple

import numpy as np

from .arith import _MR_BASES, is_prime, kronecker, sieve_primes
from .errors import check_budget


class QuadForm(NamedTuple):
    """The form a*x^2 + b*x*y + c*y^2, written [a, b, c].

    A named tuple: immutable, ordered and hashed as the tuple (a, b, c),
    which it also equals.
    """

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant() < 0

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"[{self.a}, {self.b}, {self.c}]"


# QuadForm._make without its Python-level length check, for trusted triples
_form_from_tuple = partial(tuple.__new__, QuadForm)


@dataclass(frozen=True)
class ClassGroup:
    """All reduced primitive forms of one negative discriminant."""

    classes: tuple[QuadForm, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)


@dataclass(frozen=True)
class RepSet:
    """Complete solution list of n = a*x^2 + b*x*y + c*y^2."""

    form: QuadForm
    n: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.pairs)


def _int_form(form: QuadForm) -> QuadForm:
    """The form with Python-int fields, so that no product of them wraps as a
    numpy integer's would."""
    return QuadForm(index(form.a), index(form.b), index(form.c))


def _require_positive_definite(form: QuadForm) -> None:
    if not form.is_positive_definite():
        raise ValueError(f"form {form} is not positive definite")


_CLASS_GROUP_CELLS = 1 << 14  # cells per chunk of class_group's search
CLASS_GROUP_CELL_BUDGET = 1 << 30  # cells class_group may search: ~7 s on 2 cores


def _require_discriminant(d: int) -> None:
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")


def class_group(d: int) -> ClassGroup:
    """Enumerate the reduced primitive forms of discriminant d.

    Every (a, b, c) with |b| <= a <= c, b^2 - 4ac = d and gcd(a, b, c) = 1,
    where b >= 0 on the boundary.  Such a form has 3a^2 <= |d| and
    |d| <= 4ac <= |d| + a^2, so each a <= sqrt(|d|/3) leaves a window of at
    most a/4 + 1 values of c >= a, from ceil(|d|/4a), and b is the root of
    the cell 4ac - |d| where that is a square.

    For odd d, b is odd, so b^2 = 1 (mod 8) and ac = (1 - d)/4 (mod 2).
    If d = 5 (mod 8) only odd a with odd c remain, about a quarter of the
    cells; if d = 1 (mod 8) odd a take only even c and even a every c,
    about three quarters.  An odd a walks its window in steps of 2 from its
    first c of the right parity.  Even d has no parity rule.

    The rows lie end to end in chunks of at most _CLASS_GROUP_CELLS cells
    (or one longer row), a row with no c in its window empty, each cell its
    row's offset plus its step times its place in the chunk, built in
    float64.  Every cell is an integer v <= a^2 <= |d|/3, and the cell
    ceiling CLASS_GROUP_CELL_BUDGET, checked before any work, keeps |d| (so
    every term) far below 2^52.  There a perfect square has an exact root,
    and any other integer a root more than half an ulp from every integer,
    so v is a square exactly when sqrt(v) is integral.  Each hit gives a and
    b, and c = (b^2 - d)/4a follows once the chunks are done.  One np.gcd
    pass over every hit keeps those with gcd(a, b, c) = 1, the forms with
    b >= 0, and (a, -b, c) joins each with 0 < b < a < c.
    """
    d = index(d)  # a Python int, so -d cannot wrap at -2^63
    _require_discriminant(d)
    a_top = isqrt(-d // 3)
    cells = a_top * (a_top + 1) // 8 + a_top  # the sum of the windows' a/4 + 1
    check_budget(cells, CLASS_GROUP_CELL_BUDGET, "class group of {} may search {need} cells", d)
    ac_odd = d % 2 * ((1 - d) // 4 % 2)  # d = 5 (mod 8): only odd a, with odd c
    a = np.arange(1, a_top + 1, 1 + ac_odd, dtype=np.int64)
    step = 1 + d % 2 * (a & 1)  # an odd a with odd d takes every other c
    c0 = np.maximum(-(d // (4 * a)), a)
    c0 += (c0 - ac_odd) % 2 * (step - 1)
    counts = np.maximum(((a * a - d) // (4 * a) - c0) // step + 1, 0)
    ends = np.cumsum(counts)
    cell_step, first = 4 * a * step, 4 * a * c0 + d
    found = []
    for lo, hi, base in _row_chunks(ends, _CLASS_GROUP_CELLS):
        rows, starts = counts[lo:hi], ends[lo:hi] - counts[lo:hi] - base
        # cell i of the chunk, in row r: first[r] + cell_step[r] * (i - starts[r])
        v = np.repeat(cell_step[lo:hi].astype(np.float64), rows)
        v *= np.arange(len(v), dtype=np.float64)
        v += np.repeat((first[lo:hi] - cell_step[lo:hi] * starts).astype(np.float64), rows)
        root = np.sqrt(v)
        hit = np.flatnonzero(root == np.floor(root))
        # an empty row starts where the next one does, so the last row that
        # starts at or before a hit holds it
        row = np.searchsorted(starts, hit, side="right") - 1
        found.append((a[lo + row], root[hit].astype(np.int64)))
    a, b = (np.concatenate(column) for column in zip(*found))
    c = (b * b - d) // (4 * a)
    keep = np.gcd(np.gcd(a, b), c) == 1
    a, b, c = a[keep], b[keep], c[keep]
    # the hits come by a and then by b; the mirrors, reversed, come by
    # descending a and then ascending -b < 0, so a stable sort on a orders all by (a, b)
    mirror = np.flatnonzero((0 < b) & (b < a) & (a < c))[::-1]
    a, b, c = (np.concatenate(pair) for pair in ((a[mirror], a), (-b[mirror], b), (c[mirror], c)))
    order = np.argsort(a, kind="stable")
    forms = map(_form_from_tuple, zip(a[order].tolist(), b[order].tolist(), c[order].tolist()))
    return ClassGroup(tuple(forms))


def _square_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The table u*r^2 mod m over (u, r), and the table over (k, v) of
    whether v + k is a square mod m."""
    r = np.arange(m)
    return np.outer(r, r * r) % m, np.isin(np.add.outer(r, r) % m, r * r % m)


def _wheel(m1: int, m2: int) -> list[tuple]:
    """One residue wheel of `_scan`'s filter, for coprime m1 and m2: per
    modulus m, the tuple (m, its two `_square_tables`, x mod m over one
    period m1*m2)."""
    x = np.arange(m1 * m2)
    return [(m, *_square_tables(m), x % m) for m in (m1, m2)]


def _repeated(row: np.ndarray, copies: int) -> np.ndarray:
    """np.tile(row, copies) for a 1-d row, without np.tile's Python overhead."""
    return row.reshape(1, -1).repeat(copies, 0).ravel()


# the residue filter of `_scan`: four pairwise coprime moduli on two wheels
_WHEELS = [_wheel(64, 63), _wheel(65, 11)]
_WHEEL_PERIOD = 64 * 63  # the longer wheel's period
_SCAN_CHUNK = 1 << 16  # values of x per chunk in `_scan`
# filter survivors of a chunk above which `_scan` tests squares in int64 first
_SCAN_SQUARES_MIN = 16
REPS_SCAN_BUDGET = 1 << 30  # values of x a scan may walk: up to ~14 s on 2 cores


def _scan(form: QuadForm, n: int):
    """Every (x, y) with x >= 0 and form(x, y) = n, in ascending x, then y.

    The search behind `representations` and `find_rep` for every n that
    `_prime_reps` leaves to it (for the n it answers, `_prime_reps` returns
    this same list): positive definiteness bounds x^2 <= 4cn/|d|, and each
    x's y are the roots of c*y^2 + b*x*y + (a*x^2 - n) = 0, whose
    discriminant d*x^2 + 4cn must be a square.  A residue filter drops most
    x first: for each modulus m (64, 63, 65 and 11), d*x^2 + 4cn must be a
    square mod m.  The moduli are paired on two wheels of periods 4032 and
    715, and each wheel's mask marks the x of one period (or of the whole
    scan, when that is shorter) where both of its moduli pass; a scan longer
    than the period repeats it over one chunk plus one period.  x is walked
    in chunks of `_SCAN_CHUNK`, so memory stays one chunk; each chunk ANDs
    the two masks from its start, and only the x that survive pay the exact
    `isqrt` and root recovery, in Python ints.  A chunk with more than
    `_SCAN_SQUARES_MIN` survivors first keeps only the x where d*x^2 + 4cn
    is a square, in one int64 pass, when 4cn and -d are below 2^62; past
    that, and for fewer survivors, nothing needs to fit int64.  A chunk that
    would start at x >= REPS_SCAN_BUDGET raises ResourceLimitError instead;
    `representations` checks the whole length first, so only `find_rep`
    meets it.
    """
    b, c = form.b, form.c
    d, k = form.discriminant(), 4 * c * n
    x_end = isqrt(k // -d) + 1
    # d*x^2 + 4cn lies in [0, 4cn] for every x scanned, so with 4cn and -d
    # below 2^62 it and each product on the way are exact in int64
    fits = k < 1 << 62 and -d < 1 << 62
    wheels = []
    for (m1, scaled1, square1, x_mod1), (m2, scaled2, square2, x_mod2) in _WHEELS:
        period = m1 * m2
        # whether d*x^2 + 4cn is a square mod m, over the residues x mod m
        row1, row2 = square1[k % m1][scaled1[d % m1]], square2[k % m2][scaled2[d % m2]]
        if x_end <= period:  # each x of the scan looked up by x mod m
            mask = row1[x_mod1[:x_end]]
            mask &= row2[x_mod2[:x_end]]
        else:  # one period, each row repeated; a chunk reads period - 1 + _SCAN_CHUNK values
            mask = _repeated(row1, m2)
            mask &= _repeated(row2, m1)
            mask = _repeated(mask, -(-min(x_end, period - 1 + _SCAN_CHUNK) // period))
        wheels.append((period, mask))
    (p1, mask1), (p2, mask2) = wheels
    for lo in range(0, x_end, _SCAN_CHUNK):
        # x = lo is the (lo + 1)-th value walked
        check_budget(
            lo + 1, REPS_SCAN_BUDGET, "scan for {} by {} reached x = {} of {}", n, form, lo, x_end
        )
        length = min(_SCAN_CHUNK, x_end - lo)
        keep = mask1[lo % p1 : lo % p1 + length] & mask2[lo % p2 : lo % p2 + length]
        offs = keep.nonzero()[0]
        if fits and len(offs) > _SCAN_SQUARES_MIN:
            xs = offs + lo
            disc_y = d * xs * xs + k
            offs = offs[_isqrt_int64(disc_y) ** 2 == disc_y]
        for x in (lo + off for off in offs.tolist()):
            disc_y = d * x * x + k
            s = isqrt(disc_y)
            if s * s != disc_y:
                continue
            for root in sorted({-s, s}):
                num = -b * x + root
                if num % (2 * c) == 0:
                    yield x, num // (2 * c)


def _sqrt_mod(q: int, p: int) -> int | None:
    """Some r with r^2 = q (mod p), for an odd prime p and q prime to p, or
    None when q is no square mod p (Tonelli-Shanks).

    With p - 1 = s*2^e for odd s, r = q^((s+1)/2) has r^2 = q*t for
    t = q^s, whose order divides 2^(e-1) exactly when q is a square.  Each
    step finds the order 2^i of t; i = e means q is no square, and
    otherwise r times b = c^(2^(e-i-1)) leaves t an order below 2^i, where
    c is z^s for a non-square z (of order 2^e) and then each step's b^2.
    """
    s, e = p - 1, 0
    while s % 2 == 0:
        s, e = s // 2, e + 1
    r = pow(q, (s + 1) // 2, p)
    if r * r % p == q:  # t = 1, as always for a square when p = 3 (mod 4)
        return r
    if e == 1:
        return None
    t = pow(q, s, p)
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    c = pow(z, s, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            u, i = u * u % p, i + 1
        if i == e:
            return None
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


# is_prime is exact below this bound, and past it raises for a probable prime
_PRIME_ROUTE_BOUND = _MR_BASES[-1][0]


def _prime_reps(form: QuadForm, n: int) -> list[tuple[int, int]] | None:
    """What `_scan(form, n)` yields, as a list, when n is a prime that
    Cornacchia's algorithm answers for the form; None when `_scan` must run.

    That takes a diagonal form [a, 0, c] with gcd(a, c) = 1 and an odd prime
    n prime to ac, below is_prime's last proven bound.  A solution has y
    prime to n, and x/y mod n is a root r of r^2 = -c/a (mod n): Euclid's
    algorithm on (n, r), stopped at the first remainder with a*r^2 < n,
    gives x, and y follows from the rest (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.5.2, with a*r^2 in its stopping rule).
    The primitive forms of discriminant D = -4ac represent n w*(1 + (D|n))
    times in all, for w units (Dirichlet), and only the class of one form
    that represents n and its inverse class do.  [a, 0, c] is its own
    inverse, so when it represents n it holds all 2w of them: the sign
    variants of the one (x, y) with x, y > 0, and for x^2 + y^2 (w = 4)
    those of (y, x) too.  Of these the scan yields (x, -y) and (x, y), and
    (y, -x) and (y, x) for x^2 + y^2, in ascending x and then y.
    """
    a, b, c = form
    if b or n % 2 == 0 or gcd(a, c) != 1 or gcd(n, a * c) != 1 or n >= _PRIME_ROUTE_BOUND:
        return None
    if not is_prime(n):
        return None
    u, r = n, _sqrt_mod(-c * pow(a, -1, n) % n, n)
    if r is None:
        return []
    while a * r * r >= n:
        u, r = r, u % r
    y2, rest = divmod(n - a * r * r, c)
    y = isqrt(y2)
    if rest or y * y != y2:
        return []
    solutions = [(r, y), (y, r)] if a == c else [(r, y)]
    return sorted((s, t) for s, v in solutions for t in (-v, v))


# the odd primes below _INERT_BOUND.  Of the 500 point-queries `reps` targets
# of seeds 1-10 (416 with no representation), the exit rules out 376 at 1.6-2.9 us
# a target and 0.10-0.17 ms a new discriminant; a bound of 100 rules out 347
# (1.4-2.3 us, 0.009-0.015 ms) and 10,000 rules out 384 (6-8 us, 1.5-1.7 ms), on
# a 2-core VM, three runs each
_INERT_BOUND = 1000
_SMALL_ODD_PRIMES = tuple(sieve_primes(_INERT_BOUND)[1:].tolist())


@lru_cache(maxsize=256)  # discriminants held; point-queries asks for 6
def _inert_product(d: int) -> int:
    """The product of the odd primes q < _INERT_BOUND with (d|q) = -1, by
    Euler's criterion."""
    return prod(q for q in _SMALL_ODD_PRIMES if pow(d % q, q >> 1, q) == q - 1)


def _inert_obstruction(d: int, n: int) -> bool:
    """Whether the inert primes below _INERT_BOUND or the Kronecker symbol of
    the rest of n show an odd prime q with (d|q) = -1 dividing n to an odd
    power, so that no form of discriminant d represents n.

    With 4a*f(x, y) = (2ax + by)^2 - d*y^2, and q prime to a (else d = b^2
    is a square mod q), q | f(x, y) forces q | y and then q | x, so
    f(x/q, y/q) = n/q^2; after (e - 1)/2 such steps q divides the value
    once, which no (x, y) gives (Cox, Primes of the Form x^2 + ny^2, §2).

    The inert primes below _INERT_BOUND come off n in rounds: round k
    divides n by the product g of those that divide it at least k times,
    and those of g that no longer divide n divided it exactly k times.
    With every prime of 2d divided out too, the rest m is odd and prime to
    d, so (d|m), the product of (d|q)^e over its prime powers q^e with each
    (d|q) = 1 or -1, is -1 only where some q with (d|q) = -1 divides m to
    an odd power (Cox, §1).
    """
    inert = _inert_product(d)
    g, k = gcd(n, inert), 1
    while g > 1:
        n //= g
        h = gcd(n, g)
        if k % 2 and h < g:
            return True
        g, k = h, k + 1
    while (g := gcd(n, 2 * d)) > 1:
        n //= g
    return kronecker(d, n) == -1


def representations(form: QuadForm, n: int) -> RepSet:
    """Every integer pair (x, y) with form(x, y) = n.

    `_scan` walks the first variable up to sqrt(4cn/|d|) for [a, b, c], so
    when a < c the search runs on [c, b, a] instead, over y up to
    sqrt(4an/|d|), and swaps each pair back.  A prime n that `_prime_reps`
    answers for that form takes Cornacchia's algorithm; otherwise a scan
    longer than REPS_SCAN_BUDGET values raises ResourceLimitError before it
    starts, and a scan longer than one wheel period does not start where
    `_inert_obstruction` rules n out (its docstring holds the proof).  The
    solutions with the searched variable >= 0 come from the search; the
    rest are the mirrors (-x, -y) of those where it is > 0.
    """
    # Python ints, so that 4cn and the pairs never wrap as numpy integers would
    form, n = _int_form(form), index(n)
    _require_positive_definite(form)
    if n < 1:
        raise ValueError(f"representations needs n >= 1, got {n}")
    swap = form.a < form.c
    searched = QuadForm(form.c, form.b, form.a) if swap else form
    half = _prime_reps(searched, n)
    if half is None:
        d = form.discriminant()
        length = isqrt(4 * searched.c * n // -d) + 1
        what = "representations of {} by {} scan {need} values"
        check_budget(length, REPS_SCAN_BUDGET, what, n, form)
        # scans of at most one period run even where the exit would rule n out, so
        # the kernel audit's second route (`lambda_from_reps`) stays a scan at short
        # targets; `lambda_at` has already paid the discriminant's first test there
        obstructed = length > _WHEEL_PERIOD and _inert_obstruction(d, n)
        half = [] if obstructed else list(_scan(searched, n))
    half += [(-u, -v) for u, v in half if u > 0]
    pairs = [(v, u) for u, v in half] if swap else half
    return RepSet(form, n, tuple(sorted(pairs)))


def normalized_reps(form: QuadForm, n: int) -> list[tuple[int, int]]:
    """Solutions of n = a*x^2 + c*y^2 with x = y = 1 (mod 4).

    Only defined for diagonal forms; this is the canonical solution
    subset whose x*y values sum to the product-series coefficients.
    """
    if form.b != 0:
        raise ValueError(f"normalized representations need a diagonal form, got {form}")
    return [(x, y) for x, y in representations(form, n).pairs if x % 4 == 1 and y % 4 == 1]


def find_rep(a: int, b: int, m: int) -> tuple[int, int] | None:
    """Some nonnegative (x, y) with m = a*x^2 + b*y^2, or None.

    Deterministic: the solution with the smallest x (y is then fixed), the
    first with y >= 0 that `_prime_reps` or `_scan` gives.  A prime m that
    `_prime_reps` answers takes Cornacchia's algorithm; otherwise a scan
    that reaches x = REPS_SCAN_BUDGET without a solution raises
    ResourceLimitError.
    """
    a, b, m = index(a), index(b), index(m)
    if a < 1 or b < 1 or m < 1:
        raise ValueError(f"find_rep needs positive arguments, got ({a}, {b}, {m})")
    form = QuadForm(a, 0, b)
    pairs = _prime_reps(form, m)
    return next(((x, y) for x, y in (_scan(form, m) if pairs is None else pairs) if y >= 0), None)


_LATTICE_CELLS = 1 << 15  # points per chunk of consecutive rows in lattice_points


def _isqrt_int64(values: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) for each v of a non-negative int64 array, exactly.

    The conversion to float64 and its square root are correctly rounded and
    monotone, so for an int64 v the float root is never below the answer m
    (m^2 <= v) and less than m + 2: one step down corrects it.
    """
    root = np.sqrt(values).astype(np.int64)
    root -= root * root > values
    return root


def _row_chunks(ends: np.ndarray, cells: int):
    """(lo, hi, base) for each chunk of consecutive rows lo..hi-1, laid end to
    end, where ends is the cumulative sum of the row lengths and base the
    cells before row lo: at most `cells` cells per chunk, or one longer row."""
    lo = 0
    while lo < len(ends):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cells, side="right")))
        yield lo, hi, base
        lo = hi


def lattice_points(
    a: int, b: int, t_max: int, keep, x_class: int | None = None, y_class: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int64 arrays (t, x, y) of every x, y >= 0 with t = a*x^2 + b*y^2 <= t_max
    and keep(t) true, ordered by y and then x.  A class 0 or 1 keeps only the
    x (or y) of that parity; None keeps every one.

    `keep` maps an int64 array of values to a boolean mask.  Row y holds the
    x of the class in 0..isqrt((t_max - b*y^2) // a), stepping by 2 when the
    class is given.  Consecutive rows are taken in chunks of about
    _LATTICE_CELLS points; each chunk lays its rows end to end in one array,
    builds x there by a cumulative sum that restarts at every row start, and
    calls `keep` once.  The signed solutions of n = a*x^2 + b*y^2 are the
    orbit (+-x, +-y) of the points with t = n.
    """
    if a < 1 or b < 1:
        raise ValueError(f"lattice_points needs a positive definite diagonal form, got ({a}, {b})")
    if x_class not in (None, 0, 1) or y_class not in (None, 0, 1):
        raise ValueError(f"lattice_points classes are 0, 1 or None, got ({x_class}, {y_class})")
    found = [tuple(np.zeros(0, dtype=np.int64) for _ in range(3))]
    if t_max < 0:
        return found[0]
    # a coefficient past t_max meets only x = 0 (or y = 0), whose value it
    # leaves unchanged, so capping it keeps one past int64 out of the arrays
    a, b = min(a, t_max + 1), min(b, t_max + 1)
    x0, step = (0, 1) if x_class is None else (x_class, 2)
    y = np.arange(y_class or 0, isqrt(t_max // b) + 1, 1 if y_class is None else 2, dtype=np.int64)
    by2 = b * y * y
    counts = (_isqrt_int64((t_max - by2) // a) - x0) // step + 1
    # the rows shorten as y grows, so the empty ones (x0 = 1 past the row's end) trail
    nonempty = np.count_nonzero(counts)
    y, by2, counts = y[:nonempty], by2[:nonempty], counts[:nonempty]
    ends = np.cumsum(counts)
    for lo, hi, base in _row_chunks(ends, _LATTICE_CELLS):
        rows, row_ends = counts[lo:hi], ends[lo:hi] - base
        # x steps by `step` and drops back to x0 where the next row starts
        x = np.full(int(row_ends[-1]), step, dtype=np.int64)
        x[0] = x0
        x[row_ends[:-1]] = -step * (rows[:-1] - 1)
        np.cumsum(x, out=x)
        t = x * x
        t *= a
        t += np.repeat(by2[lo:hi], rows)
        hit = np.flatnonzero(keep(t))
        found.append((t[hit], x[hit], y[lo:hi][np.searchsorted(row_ends, hit, side="right")]))
    return tuple(np.concatenate(column) for column in zip(*found))
