"""Coefficients of q * prod_k (1 - q^(a*k))^3 (1 - q^(b*k))^3, exactly.

Four independent routes to the same table, the METHODS of lambda_table:

* ``sparse``   -- the cube of each factor collapses onto triangular-number
                  exponents with odd coefficients, so the product is a
                  sparse double sum; O(N/sqrt(ab)) term visits, one
                  Python step per term of the larger multiplier.
* ``newton``   -- an O(N^2) recurrence driven by weighted divisor sums,
                  with an exact divisibility check at every step.
* ``naive``    -- truncated polynomial multiplication, factor by factor,
                  cube by cube, as whole-array steps by 1 - q^s; the
                  simplest possible ground truth, O(N^2 (1/a + 1/b)) in
                  int64 until its values near 2^59, then in Python ints.
* ``multinomial`` -- the partition formula, exact rationals over all
                  partitions of n; a verification target, not a production
                  path, capped at DEFAULT_PARTITION_CAP + 1 entries.

Single coefficients need no table: ``lambda_at`` reads them off the
lattice points of a*x^2 + b*y^2 in O(sqrt(n)) numpy work per index, and
``lambda_from_reps`` is its one-index oracle through the representation
search.

Every table is one read-only int64 array of exact integers; a value
outside int64 raises OverflowError instead of wrapping.  Every table
must fit TABLE_BUDGET_BYTES (8 bytes per entry), checked before it is
allocated, and within it the sparse route's a-priori bound on every
partial sum, and so on every coefficient, fits in int64.  The newton
route checks its own bound on the inner sums step by step and continues
them in big-int arithmetic when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isqrt
from operator import mul
from typing import Iterator, NamedTuple

import numpy as np

from .arith import divisor_sums, weighted_sigma
from .errors import InternalInconsistencyError, PartitionCapError, ResourceLimitError
from .quadform import QuadForm, normalized_reps

_INT64_SAFE = (1 << 62) - 1

# naive route: each step by 1 - q^s at most doubles max|vals|, so a cube
# starting below 2^59 stays below 2^62 and inside int64
_NAIVE_INT64_HEADROOM = 1 << 59

# lambda_at scans in float64, exact for values below this
EXACT_FLOAT_CEILING = 1 << 52
_KERNEL_CELLS = 1 << 16  # scan values times indices per chunk of lambda_at

# Table memory budget: eight bytes per coefficient up to `limit`.
TABLE_BUDGET_BYTES = 1 << 31

DEFAULT_PARTITION_CAP = 40


@dataclass(frozen=True)
class LambdaParams:
    """The exponent multipliers (a, b) of the two cubed factors."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError(f"factor multipliers must be positive, got ({self.a}, {self.b})")


class JacobiTerm(NamedTuple):
    """One term of the cube collapse: coefficient (-1)^k (2k+1) at
    exponent k(k+1)/2."""

    k: int
    exponent: int
    coefficient: int


def _jacobi_arrays(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents k(k+1)/2 <= limit and coefficients (-1)^k (2k+1), k = 0, 1, ..."""
    k = np.arange((isqrt(8 * limit + 1) + 1) // 2 if limit >= 0 else 0, dtype=np.int64)
    return k * (k + 1) // 2, np.where(k % 2 == 0, 2 * k + 1, -(2 * k + 1))


def jacobi_cube(limit: int) -> list[JacobiTerm]:
    """All cube-collapse terms with exponent <= limit, in exponent order."""
    exponents, coefficients = (v.tolist() for v in _jacobi_arrays(limit))
    return [JacobiTerm(k, e, c) for k, (e, c) in enumerate(zip(exponents, coefficients))]


class CoeffTable:
    """Exact coefficient table, 1-based: entry n is the coefficient of q^n.

    Held as one read-only int64 array whatever the method; the semantic
    index n is the only index ever exposed.
    """

    __slots__ = ("params", "limit", "method", "_vals")

    def __init__(self, params: LambdaParams, limit: int, method: str, vals):
        self.params = params
        self.limit = limit
        self.method = method
        # numpy raises OverflowError on a Python int outside int64
        self._vals = np.asarray(vals, dtype=np.int64)
        self._vals.setflags(write=False)

    def value(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"table covers 1..{self.limit}, got index {n}")
        return int(self._vals[n - 1])

    def values(self, first: int = 1, last: int | None = None) -> list[int]:
        """Entries first..last (1-based, inclusive), by default all of them."""
        last = self.limit if last is None else last
        if not 1 <= first <= last <= self.limit:
            raise IndexError(f"table covers 1..{self.limit}, got range {first}..{last}")
        return self._vals[first - 1 : last].tolist()

    def take(self, indices) -> np.ndarray:
        """Entries at an array of 1-based indices, as a new int64 array."""
        indices = np.asarray(indices, dtype=np.int64)
        outside = (indices < 1) | (indices > self.limit)
        if outside.any():
            raise IndexError(f"table covers 1..{self.limit}, got index {indices[outside][0]}")
        return self._vals[indices - 1]

    def __len__(self) -> int:
        return self.limit

    def __repr__(self) -> str:
        return (
            f"CoeffTable(a={self.params.a}, b={self.params.b}, "
            f"limit={self.limit}, method={self.method!r})"
        )


def _sparse_partial_sum_bound(a: int, b: int, limit: int) -> int:
    """Upper bound for |any partial sum| in the sparse accumulation:
    the rectangle product (sum of |coeffs| on each axis)."""
    ka = len(_jacobi_arrays((limit - 1) // a)[0])
    kb = len(_jacobi_arrays((limit - 1) // b)[0])
    return ka * ka * kb * kb  # (sum of first k odd numbers) squared per axis


def _table_sparse(params: LambdaParams, limit: int) -> np.ndarray:
    # the table budget keeps this bound below 2^62 for every (a, b)
    if _sparse_partial_sum_bound(params.a, params.b, limit) > _INT64_SAFE:
        raise InternalInconsistencyError(
            f"sparse partial sums to {limit} for {params} may leave int64"
        )
    # the product is symmetric in (a, b): the outer loop runs over the larger
    # multiplier, which has fewer terms, and each step adds a whole row of the other
    big, small = max(params.a, params.b), min(params.a, params.b)
    vals = np.zeros(limit, dtype=np.int64)
    # a multiplier >= limit meets only k = 0, whose exponent is 0 at any
    # scale, so min() keeps a multiplier past int64 out of the arrays
    tri, coef = _jacobi_arrays((limit - 1) // small)
    row = min(small, limit) * tri
    tri_k, coef_k = _jacobi_arrays((limit - 1) // big)
    bases = min(big, limit) * tri_k
    # row[:end] are the exponents that keep base + row below limit
    row_ends = np.searchsorted(row, limit - 1 - bases, side="right")
    for base, ck, end in zip(bases.tolist(), coef_k.tolist(), row_ends.tolist()):
        # indices within one k are distinct, so fancy += is well defined
        vals[base + row[:end]] += ck * coef[:end]
    return vals


def _table_newton(params: LambdaParams, limit: int) -> np.ndarray:
    """Recurrence: n*L[n] = -3 * (c_n + sum_{k<n} c_k L[n-k]), L[0] = 1,
    where c_k = a*sigma(k/a) + b*sigma(k/b) and L[i] is the coefficient
    of q^(i+1).  The division by n must be exact at every step."""
    a, b = params.a, params.b
    sig = divisor_sums(limit - 1)
    c = np.zeros(limit, dtype=np.int64)
    # as in _table_sparse, a multiplier >= limit meets only k = 0 (sigma(0) = 0)
    for m in (min(a, limit), min(b, limit)):
        c[::m] += m * sig[: (limit - 1) // m + 1]
    # c_k <= 2*sigma(k), so within the table budget this sum stays far below 2^62
    csum = int(c.sum())
    vals = np.zeros(limit, dtype=np.int64)
    vals[0] = 1
    max_abs = 1
    for n in range(1, limit):
        # while csum * max|L| fits int64, so does every partial sum of the
        # inner sum, and so does q: |q| <= 3 * csum * max|L| / n for n >= 2
        # and q = -3 * c_1 at n = 1, so q needs no check of its own
        if csum * max_abs <= _INT64_SAFE:
            inner = int(np.dot(c[1:n], vals[n - 1 : 0 : -1]))
        else:
            inner = sum(map(mul, c[1:n].tolist(), vals[n - 1 : 0 : -1].tolist()))
        q, r = divmod(-3 * (int(c[n]) + inner), n)
        if r:
            raise InternalInconsistencyError(
                f"recurrence division inexact at n={n} for (a, b)=({a}, {b})"
            )
        vals[n] = q  # numpy raises OverflowError on a q outside int64
        max_abs = max(max_abs, abs(q))
    return vals


def _table_naive(params: LambdaParams, limit: int) -> np.ndarray:
    """Truncated product, one cubed factor at a time.

    (1 - t)^3 with t = q^s is three multiplications by 1 - t, each one
    whole-array step whose right side reads the previous polynomial.  The
    array stays int64 while _NAIVE_INT64_HEADROOM bounds it and turns into
    Python ints (dtype object) for the rest of the product once it does not.
    """
    a, b = params.a, params.b
    vals = np.zeros(limit, dtype=np.int64)
    vals[0] = 1
    for step, k_top in ((a, (limit - 1) // a), (b, (limit - 1) // b)):
        for k in range(1, k_top + 1):
            s = step * k
            if vals.dtype != object and max(vals.max(), -vals.min()) >= _NAIVE_INT64_HEADROOM:
                vals = vals.astype(object)
            for _ in range(3):
                vals[s:] = vals[s:] - vals[:-s]
    return vals


def _table_multinomial(params: LambdaParams, limit: int) -> list[int]:
    # entry n + 1 is the partition sum of n; the first index past the cap raises at once
    if limit > DEFAULT_PARTITION_CAP + 1:
        lambda_multinomial(params, DEFAULT_PARTITION_CAP + 1)
    return [lambda_multinomial(params, n) for n in range(limit)]


_BUILDERS = {
    "sparse": _table_sparse,
    "newton": _table_newton,
    "naive": _table_naive,
    "multinomial": _table_multinomial,
}
METHODS = tuple(_BUILDERS)


def lambda_table(params: LambdaParams, limit: int, method: str = "sparse") -> CoeffTable:
    """Exact table of the coefficients of q^1 .. q^limit.

    All methods produce identical tables; pick by cost profile (see the
    module docstring).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if limit < 1:
        raise ValueError(f"table limit must be >= 1, got {limit}")
    if 8 * limit > TABLE_BUDGET_BYTES:
        raise ResourceLimitError(
            f"table to {limit} needs {8 * limit} bytes, budget is {TABLE_BUDGET_BYTES}"
        )
    vals = _BUILDERS[method](params, limit)
    if int(vals[0]) != 1:
        raise InternalInconsistencyError("leading coefficient of q is not 1")
    return CoeffTable(params, limit, method, vals)


class PartitionTerm(NamedTuple):
    """Multiplicities (k_1, ..., k_n) with sum(i * k_i) = n."""

    multiplicities: tuple[int, ...]


def partition_terms(n: int) -> Iterator[PartitionTerm]:
    """All partitions of n as multiplicity vectors (k_1 .. k_n)."""
    if n < 0:
        raise ValueError(f"partition index must be >= 0, got {n}")
    mult = [0] * n

    def descend(remaining: int, largest: int):
        if remaining == 0:
            yield PartitionTerm(tuple(mult))
            return
        for part in range(min(remaining, largest), 0, -1):
            mult[part - 1] += 1
            yield from descend(remaining - part, part)
            mult[part - 1] -= 1

    return descend(n, n)


def lambda_multinomial(params: LambdaParams, n: int, cap: int = DEFAULT_PARTITION_CAP) -> int:
    """Coefficient of q^(n+1) by the explicit partition sum.

    Sum over all partitions (k_1 .. k_n) of n of

        (-3)^(k_1+...+k_n) * prod_i c_i^(k_i) / prod_i (i^(k_i) * k_i!)

    with c_i the weighted divisor sum a*sigma(i/a) + b*sigma(i/b).
    Accumulated in exact rationals; the result must come out integral.
    Factorially dense, hence the cap.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > cap:
        raise PartitionCapError(f"partition sum capped at {cap}, got index {n}")
    a, b = params.a, params.b
    weights = [0] + [weighted_sigma(a, b, i) for i in range(1, n + 1)]
    total = Fraction(0)
    for term in partition_terms(n):
        num = 1
        den = 1
        parts = 0
        for i, k in enumerate(term.multiplicities, start=1):
            if k == 0:
                continue
            parts += k
            num *= weights[i] ** k
            den *= i**k * factorial(k)
        total += Fraction((-3) ** parts * num, den)
    if total.denominator != 1:
        raise InternalInconsistencyError(f"partition sum for index {n} is not integral: {total}")
    return int(total)


def lambda_at(params: LambdaParams, indices) -> np.ndarray:
    """The coefficients of q^n at each index n >= 1, as an int64 array,
    without a table.

    By Jacobi's identity (see `lambda_from_reps`), entry n is the sum of
    x*y over a*x^2 + b*y^2 = t = 8(n - 1) + a + b with x = y = 1 (mod 4):
    over the odd x, y > 0, +x*y where x = y (mod 4) and -x*y elsewhere.
    One numpy scan over the odd values u of the variable with the larger
    coefficient serves every index at once: the quotient q = (t - big*u^2)
    / small must be an odd square v^2.  The scan runs in float64, exact
    while every t stays below EXACT_FLOAT_CEILING (checked before anything
    is allocated): t and big*u^2 are then exact, and a q that is not an
    integer lies at least 1/small from every integer, farther than its
    rounding error, so v = floor(sqrt(q)) and v*v == q find exactly the
    solutions.  u is walked in chunks of _KERNEL_CELLS cells, so memory
    stays one chunk whatever t.
    """
    a, b = params.a, params.b
    wanted = [int(n) for n in indices]
    if not wanted:
        return np.zeros(0, dtype=np.int64)
    if min(wanted) < 1:
        raise ValueError(f"indices must be >= 1, got {min(wanted)}")
    targets = [8 * (n - 1) + a + b for n in wanted]
    t_max = max(targets)
    if t_max >= EXACT_FLOAT_CEILING:
        raise ResourceLimitError(
            f"lambda_at at index {max(wanted)} needs 8(n - 1) + a + b = {t_max}, "
            f"past the exact-float ceiling 2^52 = {EXACT_FLOAT_CEILING}"
        )
    big, small = max(a, b), min(a, b)
    t = np.array(targets, dtype=np.float64)[:, None]
    u_top = isqrt((t_max - small) // big)  # v >= 1 leaves big*u^2 <= t - small
    width = 2 * max(1, _KERNEL_CELLS // len(wanted))
    sums = [0] * len(wanted)
    for lo in range(1, u_top + 1, width):
        u = np.arange(lo, min(lo + width, u_top + 1), 2, dtype=np.float64)
        q = (t - big * (u * u)) / small
        v = np.floor(np.sqrt(np.abs(q)))
        rows, cols = np.divmod(np.flatnonzero(v * v == q), len(u))
        # the few terms are summed in Python ints, so no partial sum can wrap
        for i, x, y in zip(rows.tolist(), u[cols].tolist(), v[rows, cols].tolist()):
            x, y = int(x), int(y)
            if y % 2:
                sums[i] += x * y if x % 4 == y % 4 else -x * y
    return np.array(sums, dtype=np.int64)  # numpy raises OverflowError outside int64


def lambda_from_reps(params: LambdaParams, n: int) -> int:
    """Coefficient of q^(n+1) as the sum of x*y over the solutions of
    a*x^2 + b*y^2 = 8n + a + b with x = y = 1 (mod 4)."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = params.a, params.b
    target = 8 * n + a + b
    return sum(x * y for x, y in normalized_reps(QuadForm(a, 0, b), target))
