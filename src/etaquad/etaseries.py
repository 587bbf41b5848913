"""Coefficients of q * prod_k (1 - q^(a*k))^3 (1 - q^(b*k))^3, exactly.

Four independent routes to the same table, the METHODS of lambda_table:

* ``sparse``   -- the cube of each factor collapses onto triangular-number
                  exponents with odd coefficients, the Jacobi terms of
                  ``_jacobi``, so the product is a sparse double sum;
                  O(N/sqrt(ab)) term visits, one np.add.at per term of
                  the larger multiplier; for a = b, a square, each pair
                  off the diagonal is visited once, so half as many visits.
* ``newton``   -- an O(N^2) recurrence driven by weighted divisor sums,
                  the weights of ``_newton_weights``, with an exact
                  divisibility check at every step; each inner sum is one
                  np.dot in float64, int64 or Python ints, the narrowest
                  that its size bound allows.
* ``naive``    -- truncated polynomial multiplication, factor by factor,
                  cube by cube, as whole-array steps by 1 - q^s; the
                  simplest possible ground truth, O(N^2 (1/a + 1/b)) in
                  int64 until its values near 2^59, then in Python ints.
* ``multinomial`` -- the partition formula on the same weights, summed
                  over all partitions of n as n! times each term in
                  integers and divided by n! once; a verification
                  target, not a production path, capped at
                  DEFAULT_PARTITION_CAP + 1 entries.

Single coefficients need no table: ``lambda_at`` reads them off the
lattice points of a*x^2 + b*y^2 in O(sqrt(n)) numpy work per index, each
point adding the product of two Jacobi terms, and ``lambda_from_reps`` is
its one-index oracle through the representation search.

Every table is one read-only int64 array of exact integers; a value
outside int64 raises OverflowError instead of wrapping.  Whatever its
method, every table is audited on its first 128 entries: they must
satisfy the newton recurrence, checked by one convolution with its
weights, and index 1 covers the leading coefficient.  Every table
must fit TABLE_BUDGET_BYTES (8 bytes per entry), checked before it is
allocated, and within it the sparse route's a-priori bound on every
partial sum, and so on every coefficient, fits in int64.  The newton
route bounds every product and partial sum of its inner sums by
sum(c_k) * max|L| so far and widens its working dtype as that bound
grows: float64 below EXACT_FLOAT_CEILING = 2^52, where each of them is
an integer that float64 holds exactly, so np.dot is exact in any order
of summation; then int64 up to _INT64_SAFE; then Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd, isqrt
from operator import index
from typing import Iterator

import numpy as np

from .arith import divisor_sums
from .errors import InternalInconsistencyError, PartitionCapError, ResourceLimitError, check_budget
from .quadform import QuadForm, normalized_reps

_INT64_SAFE = (1 << 62) - 1

# naive route: each step by 1 - q^s at most doubles max|vals|, so a cube
# starting below 2^59 stays below 2^62 and inside int64
_NAIVE_INT64_HEADROOM = 1 << 59

# lambda_at scans and newton sums in float64, exact for integers below this
EXACT_FLOAT_CEILING = 1 << 52
_KERNEL_CELLS = 1 << 16  # scan values times indices per chunk of lambda_at

# Table memory budget: eight bytes per coefficient up to `limit`.
TABLE_BUDGET_BYTES = 1 << 31

DEFAULT_PARTITION_CAP = 40

# every table's first entries, up to this many, are checked against the recurrence
_AUDIT_PREFIX = 128


@dataclass(frozen=True)
class LambdaParams:
    """The exponent multipliers (a, b) of the two cubed factors."""

    a: int
    b: int

    def __post_init__(self):
        try:
            # stored as Python ints, so products of large multipliers never wrap
            object.__setattr__(self, "a", index(self.a))
            object.__setattr__(self, "b", index(self.b))
        except TypeError:
            message = f"factor multipliers must be integers, got ({self.a!r}, {self.b!r})"
            raise ValueError(message) from None
        if self.a < 1 or self.b < 1:
            raise ValueError(f"factor multipliers must be positive, got ({self.a}, {self.b})")


def _jacobi(x):
    """The Jacobi term (-1)^k (2k+1) of an odd x = 2k+1 > 0, for an int or
    an int64 array x: x where x = 1 (mod 4), -x where x = 3 (mod 4)."""
    return (2 - x % 4) * x


def _jacobi_arrays(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponents k(k+1)/2 <= limit and coefficients (-1)^k (2k+1), k = 0, 1, ..."""
    k = np.arange((isqrt(8 * limit + 1) + 1) // 2 if limit >= 0 else 0, dtype=np.int64)
    return k * (k + 1) // 2, _jacobi(2 * k + 1)


class CoeffTable:
    """Exact coefficient table, 1-based: entry n is the coefficient of q^n.

    Held as one read-only int64 array whatever the method; the semantic
    index n is the only index ever exposed.
    """

    __slots__ = ("params", "limit", "method", "_vals")

    def __init__(self, params: LambdaParams, limit: int, method: str, vals):
        self.params = params
        self.limit = index(limit)  # a Python int, so no numpy integer leaks through the field
        self.method = method
        # numpy raises OverflowError on a Python int outside int64
        self._vals = np.asarray(vals, dtype=np.int64)
        if self._vals.shape != (self.limit,):
            raise ValueError(
                f"table to {self.limit} needs {self.limit} values, got shape {self._vals.shape}"
            )
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
        indices = np.asarray(indices)
        if indices.size and indices.dtype.kind not in "iu":
            raise IndexError(f"table indices must be integers, got dtype {indices.dtype}")
        indices = indices.astype(np.int64, copy=False)
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
    if params.a == params.b:
        # the product is f(q^a)^2, where the pair (j, k) equals (k, j): row k
        # stops before j = k with doubled coefficients, and the diagonal
        # terms c_k^2 at 2*base_k are added once (their indices are distinct).
        # Every partial sum is still a sum of rectangle terms, so the bound holds
        diagonal = 2 * bases < limit
        vals[2 * bases[diagonal]] += coef_k[diagonal] ** 2
        row_ends = np.minimum(row_ends, np.arange(len(bases)))
        coef_k = 2 * coef_k
    for base, ck, end in zip(bases.tolist(), coef_k.tolist(), row_ends.tolist()):
        # one gather-add-scatter pass into the view that starts at base
        np.add.at(vals[base:], row[:end], ck * coef[:end])
    return vals


def _newton_weights(params: LambdaParams, limit: int) -> np.ndarray:
    """The recurrence's weights c_k = a*sigma(k/a) + b*sigma(k/b) for
    k = 0..limit-1 (c_0 = 0), as int64; sigma of a non-integer is 0.

    L[0] = 1 and n*L[n] = -3 * sum_{k=1..n} c_k L[n-k] for n >= 1 (L[i] the
    coefficient of q^(i+1)) has exactly one solution, the table: `newton`
    builds it step by step, `_recurrence_break` checks a held prefix, and
    `lambda_multinomial` sums its partition formula over them.
    """
    a, b = params.a, params.b
    sig = divisor_sums(limit - 1)
    c = np.zeros(limit, dtype=np.int64)
    # as in _table_sparse, a multiplier >= limit meets only k = 0 (sigma(0) = 0)
    for m in (min(a, limit), min(b, limit)):
        c[::m] += m * sig[: (limit - 1) // m + 1]
    return c


def _recurrence_break(params: LambdaParams, prefix) -> int | None:
    """The first index n (1-based, entry n the coefficient of q^n) where the
    int64 array `prefix` leaves the newton recurrence, or None if it keeps it.

    The recurrence's residual n*L[n] + 3 * sum_{k=1..n} c_k L[n-k] (and
    L[0] - 1 at n = 0) is one convolution of the prefix with the weights.
    Where the prefix first differs from the unique solution, at L[n], every
    residual before n is 0 and the one at n is n times the difference, so
    the first nonzero residual names the first wrong entry.  As in newton,
    csum * max|L| bounds every partial sum of the convolution (csum = sum of
    c_k); the residual adds three times that and n*L[n] < P*max|L| for a
    prefix of P entries, so the residual is taken in int64 while
    (3*csum + P) * max|L| is at most _INT64_SAFE, and in Python ints otherwise.
    """
    vals, size = np.asarray(prefix, dtype=np.int64), len(prefix)
    c = _newton_weights(params, size)
    n = np.arange(size, dtype=np.int64)
    peak = max(int(vals.max()), -int(vals.min()))
    if (3 * int(c.sum()) + size) * peak > _INT64_SAFE:
        vals, c, n = vals.astype(object), c.astype(object), n.astype(object)
    residual = n * vals + 3 * np.convolve(c, vals)[:size]
    residual[0] = vals[0] - 1
    bad = np.flatnonzero(residual)
    return int(bad[0]) + 1 if len(bad) else None


def _table_newton(params: LambdaParams, limit: int) -> np.ndarray:
    """Recurrence: n*L[n] = -3 * (c_n + sum_{k<n} c_k L[n-k]), L[0] = 1,
    with the weights c_k of `_newton_weights`, where L[i] is the
    coefficient of q^(i+1).  The division by n must be exact at every step.

    Every product c_k L[j] and every partial sum of an inner sum is an
    integer of size at most csum * max|L| (csum = sum of c_k), so the
    working dtype follows that bound as max|L| grows: float64 while it
    is below EXACT_FLOAT_CEILING = 2^52, where every such integer is a
    float and np.dot is exact in any order of summation, then int64
    while it is at most _INT64_SAFE, then Python ints (dtype object).
    The weights are held reversed, so each inner sum is one np.dot of
    two forward, contiguous slices.
    """
    a, b = params.a, params.b
    c = _newton_weights(params, limit)
    # c_k <= 2*sigma(k), so within the table budget this sum stays far below 2^62
    csum = int(c.sum())
    rev = c[::-1].copy()  # rev[limit - 1 - k] = c_k
    vals = np.zeros(limit, dtype=np.int64)
    vals[0] = 1
    max_abs, dtype = 1, None
    for n in range(1, limit):
        if dtype is None:  # the first step, or |L[n-1]| is a new maximum
            bound = csum * max_abs
            if bound > _INT64_SAFE:
                dtype = object
            else:
                dtype = np.int64 if bound >= EXACT_FLOAT_CEILING else np.float64
            rev, vals = rev.astype(dtype, copy=False), vals.astype(dtype, copy=False)
        inner = int(np.dot(rev[limit - n : limit - 1], vals[1:n]))
        # |q| <= 3 * csum * max|L| / n for n >= 2 and q = -3 * c_1 at n = 1,
        # so q is exact in a float64 store and fits an int64 one
        q, r = divmod(-3 * (int(rev[limit - 1 - n]) + inner), n)
        if r:
            raise InternalInconsistencyError(
                f"recurrence division inexact at n={n} for (a, b)=({a}, {b})"
            )
        vals[n] = q
        if abs(q) > max_abs:
            max_abs, dtype = abs(q), None
    return vals


def _table_naive(params: LambdaParams, limit: int) -> np.ndarray:
    """Truncated product, one cubed factor at a time.

    (1 - t)^3 with t = q^s is three multiplications by 1 - t, each one
    whole-array step whose right side reads the previous polynomial.  The
    array stays int64 while _NAIVE_INT64_HEADROOM bounds it and turns into
    Python ints (dtype object) for the rest of the product once it does not.
    A cube at most multiplies max|vals| by 8, so `bound` tracks it from
    above, and max|vals| is computed only when the bound reaches the
    headroom: the array turns at the same factor as with a max per factor.
    """
    a, b = params.a, params.b
    vals = np.zeros(limit, dtype=np.int64)
    vals[0] = 1
    bound = 1  # >= max|vals|
    for step, k_top in ((a, (limit - 1) // a), (b, (limit - 1) // b)):
        for k in range(1, k_top + 1):
            s = step * k
            if vals.dtype != object and bound >= _NAIVE_INT64_HEADROOM:
                bound = max(int(vals.max()), -int(vals.min()))
                if bound >= _NAIVE_INT64_HEADROOM:
                    vals = vals.astype(object)
            for _ in range(3):
                vals[s:] = vals[s:] - vals[:-s]
            bound *= 8
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


def _check_table_budget(limit: int) -> None:
    check_budget(8 * limit, TABLE_BUDGET_BYTES, "table to {} needs {need} bytes", limit)


def lambda_table(params: LambdaParams, limit: int, method: str = "sparse") -> CoeffTable:
    """Exact table of the coefficients of q^1 .. q^limit.

    All methods produce identical tables; pick by cost profile (see the
    module docstring).  Whatever the method, the built table's first
    min(limit, _AUDIT_PREFIX) entries must satisfy the newton recurrence
    (`_recurrence_break`); the first entry that breaks it is named, and a
    wrong leading coefficient breaks it at index 1.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    limit = index(limit)  # a Python int, so the budget check below cannot wrap
    if limit < 1:
        raise ValueError(f"table limit must be >= 1, got {limit}")
    _check_table_budget(limit)
    table = CoeffTable(params, limit, method, _BUILDERS[method](params, limit))
    n = _recurrence_break(params, table._vals[:_AUDIT_PREFIX])
    if n is not None:
        raise InternalInconsistencyError(f"{method}/recurrence mismatch at index {n} for {params}")
    return table


def partition_terms(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as multiplicity tuples (k_1, ..., k_n) with
    sum(i * k_i) = n."""
    if n < 0:
        raise ValueError(f"partition index must be >= 0, got {n}")
    mult = [0] * n

    def descend(remaining: int, largest: int):
        if remaining == 0:
            yield tuple(mult)
            return
        for part in range(min(remaining, largest), 0, -1):
            mult[part - 1] += 1
            yield from descend(remaining - part, part)
            mult[part - 1] -= 1

    return descend(n, n)


def lambda_multinomial(params: LambdaParams, n: int) -> int:
    """Coefficient of q^(n+1) by the explicit partition sum.

    Sum over all partitions (k_1 .. k_n) of n of

        (-3)^(k_1+...+k_n) * prod_i c_i^(k_i) / prod_i (i^(k_i) * k_i!)

    with c_i = a*sigma(i/a) + b*sigma(i/b), the weights of
    `_newton_weights` that newton and the table audit read too.
    Each term times n! is an integer, since n! / prod_i (i^(k_i) * k_i!)
    counts the permutations of that cycle type, so the sum is taken in
    integers and divided by n! once; the result must come out integral.
    Factorially dense, hence the cap DEFAULT_PARTITION_CAP on n.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > DEFAULT_PARTITION_CAP:
        raise PartitionCapError(f"partition sum capped at {DEFAULT_PARTITION_CAP}, got index {n}")
    weights = _newton_weights(params, n + 1).tolist()
    n_fact = factorial(n)
    total = 0
    for term in partition_terms(n):
        part = n_fact  # n! times the term, built factor by factor in exact quotients
        for i, k in enumerate(term, start=1):
            if k:
                part = part // (i**k * factorial(k)) * (-3 * weights[i]) ** k
        total += part
    value, rem = divmod(total, n_fact)
    if rem:
        g = gcd(total, n_fact)
        msg = f"partition sum for index {n} is not integral: {total // g}/{n_fact // g}"
        raise InternalInconsistencyError(msg)
    return value


def lambda_at(params: LambdaParams, indices) -> np.ndarray:
    """The coefficients of q^n at each index n >= 1, as an int64 array,
    without a table.

    By Jacobi's identity (see `lambda_from_reps`), entry n is the sum of
    x*y over a*x^2 + b*y^2 = t = 8(n - 1) + a + b with x = y = 1 (mod 4):
    over the odd x, y > 0, the product _jacobi(x) * _jacobi(y) of their
    Jacobi terms, +x*y where x = y (mod 4) and -x*y elsewhere.
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
    wanted = []  # Python ints; int() would truncate a non-integer index
    for n in indices:
        try:
            wanted.append(index(n))
        except TypeError:
            raise ValueError(f"indices must be integers, got {n!r}") from None
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
                sums[i] += _jacobi(x) * _jacobi(y)
    return np.array(sums, dtype=np.int64)  # numpy raises OverflowError outside int64


def lambda_from_reps(params: LambdaParams, n: int) -> int:
    """Coefficient of q^(n+1) as the sum of x*y over the solutions of
    a*x^2 + b*y^2 = 8n + a + b with x = y = 1 (mod 4)."""
    n = index(n)  # a Python int, so 8n cannot wrap
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = params.a, params.b
    target = 8 * n + a + b
    return sum(x * y for x, y in normalized_reps(QuadForm(a, 0, b), target))
