"""Positive-definite integral binary quadratic forms.

Reduction to the canonical representative, enumeration of the reduced
primitive classes of a negative discriminant, Dirichlet composition and
class inverses, and the representations of integers by a form.

One integer's representations come from a single scan over x >= 0
(``_scan``): a numpy residue filter modulo a few small moduli drops most
x in chunks, and only the survivors pay the exact ``isqrt`` in Python
ints, lazily and in ascending x.  ``representations`` adds the mirror
(-x, -y) of each solution with x > 0, ``normalized_reps`` keeps the
mod-4-normalized solutions that drive the product-series identities, and
``find_rep`` takes the first solution with y >= 0.  ``lattice_points`` is
one numpy sweep over the lattice points of a diagonal form, in chunks of
consecutive rows, that lists the representations of many integers at once.

Value semantics throughout: forms, class groups and representation sets
are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np


@dataclass(frozen=True, order=True)
class QuadForm:
    """The form a*x^2 + b*x*y + c*y^2, written [a, b, c]."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant() < 0

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def evaluate(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self) -> str:
        return f"[{self.a}, {self.b}, {self.c}]"


@dataclass(frozen=True)
class Discriminant:
    """A negative discriminant with its conductor and unit weight."""

    d: int
    conductor: int
    unit_weight: int


@dataclass(frozen=True)
class ClassGroup:
    """All reduced primitive forms of one negative discriminant."""

    disc: Discriminant
    classes: tuple[QuadForm, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def principal(self) -> QuadForm:
        d = self.disc.d
        k = d % 2
        return QuadForm(1, k, (k * k - d) // 4)


@dataclass(frozen=True)
class RepSet:
    """Complete solution list of n = a*x^2 + b*x*y + c*y^2."""

    form: QuadForm
    n: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        return len(self.pairs)


def _require_positive_definite(form: QuadForm) -> None:
    if not form.is_positive_definite():
        raise ValueError(f"form {form} is not positive definite")


def discriminant_info(d: int) -> Discriminant:
    """Validate d and attach its conductor and unit weight.

    The conductor is the largest f with d/f^2 still a discriminant; the
    unit weight is 6 for d = -3, 4 for d = -4, and 2 below -4.
    """
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    conductor = 1
    f = 2
    while f * f <= -d:
        if d % (f * f) == 0 and (d // (f * f)) % 4 in (0, 1):
            conductor = f
        f += 1
    if d == -3:
        w = 6
    elif d == -4:
        w = 4
    else:
        w = 2
    return Discriminant(d, conductor, w)


def reduce(form: QuadForm) -> QuadForm:
    """The unique reduced form equivalent to the input.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c;
    obtained by alternating translations (normalize b into (-a, a]) and
    the swap step until the conditions hold.
    """
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
    assert out.is_reduced() and out.discriminant() == form.discriminant()
    return out


def inverse(form: QuadForm) -> QuadForm:
    """Reduced representative of the inverse class, i.e. of [a, -b, c]."""
    _require_positive_definite(form)
    if not form.is_primitive():
        raise ValueError(f"form {form} is not primitive")
    return reduce(QuadForm(form.a, -form.b, form.c))


_CLASS_GROUP_CELLS = 1 << 18  # (a, b) cells per chunk of class_group's mask


def class_group(d: int) -> ClassGroup:
    """Enumerate the reduced primitive forms of discriminant d.

    Every (a, b, c) with |b| <= a <= c, b^2 - 4ac = d and gcd(a, b, c) = 1,
    where b >= 0 on the boundary.  Such a form has 3a^2 <= |d|, so one
    boolean mask over a <= sqrt(|d|/3) and 0 <= b <= a with b = d (mod 2)
    marks the (a, b) with 4a | b^2 - d.  Those with c >= a and gcd 1 are
    the forms with b >= 0; (a, -b, c) joins each with 0 < b < a < c.  The
    mask is built in bands of a, each of at most _CLASS_GROUP_CELLS cells,
    so memory stays bounded for large |d|.
    """
    info = discriminant_info(d)
    a_top = isqrt(-d // 3)
    b = np.arange(-d % 2, a_top + 1, 2, dtype=np.int64)
    num = b * b - d
    # at least 8 bands of rows, so the mask hugs the triangle b <= a
    rows = max(1, min(_CLASS_GROUP_CELLS // len(b), -(-a_top // 8)))
    classes: list[tuple[int, int, int]] = []
    for lo in range(1, a_top + 1, rows):
        a = np.arange(lo, min(lo + rows, a_top + 1), dtype=np.int64)[:, None]
        cols = np.searchsorted(b, a[-1, 0], side="right")  # every b <= a in the chunk
        ia, ib = np.divmod(np.flatnonzero((b[:cols] <= a) & (num[:cols] % (4 * a) == 0)), cols)
        fa, fb = a[ia, 0], b[ib]
        fc = num[ib] // (4 * fa)
        keep = (fc >= fa) & (np.gcd(np.gcd(fa, fb), fc) == 1)
        for x, y, z in zip(fa[keep].tolist(), fb[keep].tolist(), fc[keep].tolist()):
            classes.append((x, y, z))
            if 0 < y < x < z:
                classes.append((x, -y, z))
    # tuples sort as QuadForm does, field by field, and much faster
    return ClassGroup(info, tuple(QuadForm(*abc) for abc in sorted(classes)))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Reduced representative of the product class (Dirichlet composition).

    Direct composition of primitive forms (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 5.4.7): two extended gcds
    give the united form [a1*a2/d1^2, B, C] with B = b2 (mod 2*a2/d1),
    which is then reduced.
    """
    _require_positive_definite(f1)
    _require_positive_definite(f2)
    if f1.discriminant() != f2.discriminant():
        raise ValueError(
            f"cannot compose forms of discriminants {f1.discriminant()} and {f2.discriminant()}"
        )
    if not (f1.is_primitive() and f2.is_primitive()):
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


def _square_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The table u*r^2 mod m over (u, r), and the table over (k, v) of
    whether v + k is a square mod m."""
    r = np.arange(m)
    return np.outer(r, r * r) % m, np.isin(np.add.outer(r, r) % m, r * r % m)


# the residue filter of `_scan`: a few pairwise coprime moduli and their tables
_FILTER = [(m, *_square_tables(m)) for m in (64, 63, 65, 11)]
_SCAN_CHUNK = (1 << 10, 1 << 16)  # first and largest chunk of x in `_scan`


def _scan(form: QuadForm, n: int):
    """Every (x, y) with x >= 0 and form(x, y) = n, in ascending x, then y.

    The one search behind `representations` and `find_rep`: positive
    definiteness bounds x^2 <= 4cn/|d|, and each x's y are the roots of
    c*y^2 + b*x*y + (a*x^2 - n) = 0, whose discriminant d*x^2 + 4cn must be
    a square.  A residue filter drops most x first: for each modulus m of
    `_FILTER`, a boolean mask over x mod m marks where d*x^2 + 4cn is a
    square mod m.  x is walked in chunks, from 2^10 doubling to 2^16, so an
    early exit stays cheap and memory stays one chunk; each chunk ANDs the
    masks from its start, and only the x that survive pay the exact `isqrt`
    and root recovery, in Python ints.  Offsets within a chunk are small,
    so nothing needs to fit int64.
    """
    b, c = form.b, form.c
    d, k = form.discriminant(), 4 * c * n
    x_end = isqrt(k // -d) + 1
    # each mask repeated over one largest chunk plus one period, sliced per chunk
    span = min(x_end, _SCAN_CHUNK[1])
    masks = []
    for m, scaled, is_square_plus in _FILTER:
        mask = is_square_plus[k % m][scaled[d % m]]
        masks.append((m, mask.reshape(1, m).repeat(span // m + 2, 0).ravel()))
    lo, size = 0, _SCAN_CHUNK[0]
    while lo < x_end:
        length = min(size, x_end - lo)
        keep = np.logical_and.reduce([mask[lo % m : lo % m + length] for m, mask in masks])
        for x in (lo + off for off in keep.nonzero()[0].tolist()):
            disc_y = d * x * x + k
            s = isqrt(disc_y)
            if s * s != disc_y:
                continue
            for root in sorted({-s, s}):
                num = -b * x + root
                if num % (2 * c) == 0:
                    yield x, num // (2 * c)
        lo, size = lo + length, min(2 * size, _SCAN_CHUNK[1])


def representations(form: QuadForm, n: int) -> RepSet:
    """Every integer pair (x, y) with form(x, y) = n.

    The solutions with x >= 0 come from `_scan`; those with x < 0 are the
    mirrors (-x, -y) of the ones with x > 0.
    """
    _require_positive_definite(form)
    if n < 1:
        raise ValueError(f"representations needs n >= 1, got {n}")
    pairs = list(_scan(form, n))
    pairs += [(-x, -y) for x, y in pairs if x > 0]
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

    Deterministic: the solution with the smallest x (y is then fixed).
    """
    if a < 1 or b < 1 or m < 1:
        raise ValueError(f"find_rep needs positive arguments, got ({a}, {b}, {m})")
    return next(((x, y) for x, y in _scan(QuadForm(a, 0, b), m) if y >= 0), None)


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


def lattice_points(a: int, b: int, t_max: int, keep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int64 arrays (t, x, y) of every x, y >= 0 with t = a*x^2 + b*y^2 <= t_max
    and keep(t) true, ordered by y and then x.

    `keep` maps an int64 array of values to a boolean mask.  Row y holds the
    x in 0..isqrt((t_max - b*y^2) // a).  Consecutive rows are taken in
    chunks of about _LATTICE_CELLS points; each chunk lays its rows end to
    end in one array, builds x there by a cumulative sum that restarts at
    every row start, and calls `keep` once.  The signed solutions of
    n = a*x^2 + b*y^2 are the orbit (+-x, +-y) of the points with t = n.
    """
    if a < 1 or b < 1:
        raise ValueError(f"lattice_points needs a positive definite diagonal form, got ({a}, {b})")
    if t_max < 0:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    # a coefficient past t_max meets only x = 0 (or y = 0), whose value it
    # leaves unchanged, so capping it keeps one past int64 out of the arrays
    a, b = min(a, t_max + 1), min(b, t_max + 1)
    y = np.arange(isqrt(t_max // b) + 1, dtype=np.int64)
    by2 = b * y * y
    counts = _isqrt_int64((t_max - by2) // a) + 1
    ends = np.cumsum(counts)
    found = []
    lo = 0
    while lo < len(y):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _LATTICE_CELLS, side="right")))
        rows, row_ends = counts[lo:hi], ends[lo:hi] - base
        # x steps by 1 and drops back to 0 where the next row starts
        x = np.ones(int(row_ends[-1]), dtype=np.int64)
        x[0] = 0
        x[row_ends[:-1]] = 1 - rows[:-1]
        np.cumsum(x, out=x)
        t = x * x
        t *= a
        t += np.repeat(by2[lo:hi], rows)
        hit = np.flatnonzero(keep(t))
        found.append((t[hit], x[hit], lo + np.searchsorted(row_ends, hit, side="right")))
        lo = hi
    return tuple(np.concatenate(column) for column in zip(*found))
