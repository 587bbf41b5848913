"""Verdict machinery for the constructive prime-representation identities.

Every case evaluates both sides of one identity on a hypothesis-satisfying
prime and returns a structured three-way verdict:

* ``holds``           -- both sides agree exactly;
* ``not_applicable``  -- a hypothesis fails (the violated one is named);
* ``falsified``       -- hypotheses hold but the sides differ.

Hypothesis failure is never success and never an error; divisibility
facts that are provable from the hypotheses are asserted and raise
``InternalInconsistencyError`` when violated, since that can only mean
an implementation bug.  When a prime admits several representations,
the identity is evaluated on every one of them and any disagreement is
reported as a falsification with witnesses.

Coefficient values come through one ``TableCache`` per run.  A range
reads per-(a, b) tables built with the sparse method and spot-audited
against the recurrence method.  A single prime reads its few indices
through ``TableCache.values``, which slices a held table that covers them
and otherwise sums over lattice points (``lambda_at``, O(sqrt p) work), so
a one-prime verdict never builds a table.

Each case is one ``_CASES`` record (summary, parameter conditions, arity)
whose rule builder gives the identity at concrete parameters as a
``_Rule``: the ``form`` p = fa*x^2 + fb*y^2, the ``tables`` read, each
with its index as an affine rule (u*p + v)/8 + w, the ordered
``hypotheses`` with their reasons, and the ``sign`` rule on (x, y) or the
runner (``run``) for the left side.  Table sizes for a range follow from
the index rules at p_max, so adding a case means adding one record.

Two paths evaluate a rule.  The single-prime path (``verify_*``) runs the
rule's scalar runner, which finds the representations of one prime by an
O(sqrt p) scan and builds its ``Verdict``.  ``range_report`` takes the
columnar path: one sieve, one ``lattice_points`` sweep of the rule's form
over every prime of the range, the hypotheses as boolean masks, and each
table read once as an array, so a range costs about O(P) array work
instead of O(P^1.5 / log P) Python steps.  Each scalar runner has one
columnar counterpart that reads the same ``_Rule`` fields.  Every prime
the columns cannot settle as holding or not applicable (its sides differ,
its left side depends on the representation, an expected representation
is missing) goes through the scalar runner in the one-prime loop's
order, so the scalar path stays the oracle and every falsified
``Verdict`` is the one it gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import is_prime, sieve_primes
from .errors import InternalInconsistencyError
from .etaseries import TABLE_BUDGET_BYTES, LambdaParams, lambda_at, lambda_from_reps, lambda_table
from .quadform import QuadForm, find_rep, lattice_points, normalized_reps, representations

HOLDS = "holds"
NOT_APPLICABLE = "not_applicable"
FALSIFIED = "falsified"


_AUDIT_PREFIX = 128


class TableCache:
    """Shared read-only coefficient tables, one per (a, b), and the one read
    path of the single-prime runners.

    `get` builds or grows a table, geometrically up to the table budget;
    only the range path calls it, and every build is spot-audited against
    the recurrence method on a prefix.  `values` never builds: it slices a
    held table that covers every index it reads, and otherwise calls the
    lattice kernel `lambda_at`, whose first read per (a, b) is audited
    against the sums over representations.
    """

    def __init__(self):
        self._tables: dict[tuple[int, int], object] = {}
        self._kernel_audited: set[tuple[int, int]] = set()

    def get(self, a: int, b: int, min_limit: int):
        key = (a, b) if a <= b else (b, a)
        cur = self._tables.get(key)
        if cur is None or cur.limit < min_limit:
            grown = min(2 * cur.limit if cur is not None else 1, TABLE_BUDGET_BYTES // 8)
            table = lambda_table(LambdaParams(*key), max(min_limit, grown), "sparse")
            self._audit(table)
            self._tables[key] = table
            cur = table
        return cur

    def values(self, a: int, b: int, indices: list[int]) -> list[int]:
        """The (a, b) coefficients at each index, as ints."""
        key = (a, b) if a <= b else (b, a)
        table = self._tables.get(key)
        if table is not None and table.limit >= max(indices):
            return table.take(indices).tolist()
        params = LambdaParams(*key)
        got = lambda_at(params, indices).tolist()
        if key not in self._kernel_audited:
            for n, value in zip(indices, got):
                if value != lambda_from_reps(params, n - 1):
                    raise InternalInconsistencyError(
                        f"lattice-sum/representation mismatch at index {n} for {params}"
                    )
            self._kernel_audited.add(key)
        return got

    def _audit(self, table) -> None:
        prefix = min(table.limit, _AUDIT_PREFIX)
        got = table.values(1, prefix)
        want = lambda_table(table.params, prefix, "newton").values()
        if got != want:
            n = next(n for n, (g, w) in enumerate(zip(got, want), 1) if g != w)
            raise InternalInconsistencyError(
                f"sparse/recurrence mismatch at index {n} for {table.params}"
            )


_SHARED_CACHE = TableCache()


@dataclass(frozen=True)
class ConstructionCase:
    """A case identifier plus its parameters, validated on construction."""

    case_id: str
    a: int | None = None
    b: int | None = None
    _rule: _Rule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = _spec(self.case_id)
        given = sum(v is not None for v in (self.a, self.b))
        if given != spec.arity:
            raise ValueError(
                f"case {self.case_id} takes {spec.arity} parameter(s), got {given}"
            )
        if spec.arity >= 1 and (self.a is None or self.a < 1):
            raise ValueError(f"case {self.case_id} needs a positive parameter a")
        if spec.arity == 2 and (self.b is None or self.b < 1):
            raise ValueError(f"case {self.case_id} needs a positive parameter b")
        for fails, message in spec.conditions:
            if fails(self.a, self.b):
                raise ValueError(message)
        object.__setattr__(self, "_rule", _built_rule(self.case_id, self.params()))

    def __reduce__(self):
        # the rule holds closures, which do not pickle; rebuild it instead
        return (ConstructionCase, (self.case_id, self.a, self.b))

    def params(self) -> tuple[int, ...]:
        return tuple(v for v in (self.a, self.b) if v is not None)

    def __str__(self) -> str:
        ps = ",".join(str(v) for v in self.params())
        return f"{self.case_id}({ps})" if ps else self.case_id


@dataclass(frozen=True)
class Verdict:
    """Outcome of one identity check at one prime."""

    status: str
    case: ConstructionCase
    p: int
    witness: tuple[int, int] | None = None
    index: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    reason: str | None = None
    details: tuple = ()

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


@dataclass(frozen=True)
class RangeReport:
    """Aggregated verdicts over a prime range (and a parameter grid)."""

    case_id: str
    params: tuple[tuple[int, ...], ...]
    p_max: int
    checked: int
    skipped: int
    falsified: tuple[Verdict, ...]

    @property
    def scanned(self) -> int:
        return self.checked + self.skipped

    @property
    def ok(self) -> bool:
        return not self.falsified


def _sign(e):
    """(-1)^e, for an int or an int64 array e."""
    return 1 - 2 * (e % 2)


def _square_lhs(fa, x, p):
    """4*fa*x^2 - 2p, the unsigned left side of the square identities, for
    ints or int64 arrays x and p."""
    return 4 * fa * x * x - 2 * p


def _product_checks(a, b, x, y, t, lam):
    """Whether x*y = L and whether (2a*x^2 - t)^2 = t^2 - 4ab*L^2 recovers the
    square, for ints or int64 arrays."""
    return x * y == lam, (2 * a * x * x - t) ** 2 == t * t - 4 * a * b * lam * lam


def _na(case, p, reason) -> Verdict:
    return Verdict(NOT_APPLICABLE, case, p, reason=reason)


def _decide(case, p, reps, index, lhs_values: set[int], rhs: int) -> Verdict:
    witness = min(reps, key=lambda r: (abs(r[0]), abs(r[1]), r[0] < 0, r[1] < 0))
    if len(lhs_values) > 1:
        return Verdict(
            FALSIFIED,
            case,
            p,
            witness=witness,
            index=index,
            lhs=min(lhs_values),
            rhs=rhs,
            reason=f"left side depends on the representation: {sorted(lhs_values)}",
        )
    lhs = next(iter(lhs_values))
    status = HOLDS if lhs == rhs else FALSIFIED
    return Verdict(status, case, p, witness=witness, index=index, lhs=lhs, rhs=rhs)


def _require_unique(norm, t, a, b) -> None:
    if len(norm) > 1:
        raise InternalInconsistencyError(
            f"normalized representation of {t} by [{a}, 0, {b}] is not unique: {norm}"
        )


def _require_even_y(reps, case, p) -> None:
    # provable from the hypotheses; an odd y here is a bug, not bad input
    for _, y in reps:
        if y % 2:
            raise InternalInconsistencyError(
                f"odd y in a representation of p={p} for case {case}"
            )


# ---------------------------------------------------------------------------
# identity records and the runners that evaluate them


def _run_square(case, p, cache, rule):
    """Sign-adjusted 4*fa*x^2 - 2p over every representation p = fa*x^2 + fb*y^2,
    or, with two tables, the equality of the two coefficients."""
    fa, fb = rule.form
    reps = representations(QuadForm(fa, 0, fb), p).pairs
    if rule.odd_x:
        reps = tuple(r for r in reps if r[0] % 2 == 1)
    if not reps:
        shown = f"{fa}*x^2" if rule.show_a else "x^2"
        suffix = " with odd x" if rule.odd_x else ""
        return _na(case, p, f"p has no representation p = {shown} + {fb}*y^2{suffix}")
    indices = [_exact_index(affine, p) for _, _, affine in rule.tables]
    values = [cache.values(ta, tb, [i])[0] for (ta, tb, _), i in zip(rule.tables, indices)]
    if len(values) == 2:
        return _decide(case, p, reps, indices[0], {values[0]}, values[1])
    if rule.even_y:
        _require_even_y(reps, case, p)
    lhs_values = {_sign(rule.sign(x, y)) * _square_lhs(fa, x, p) for x, y in reps}
    return _decide(case, p, reps, indices[0], lhs_values, values[0])


def _run_product(case, p, cache, rule):
    """x*y equals the coefficient at the unique normalized representation of
    t = m*p, and (2a*x^2 - t)^2 = t^2 - 4ab*L^2 recovers the square."""
    a, b = rule.form
    ta, tb, affine = rule.tables[0]
    index = _exact_index(affine, p)
    t = 8 * (index - 1) + a + b  # t = 8n + a + b, read at n + 1
    norm = normalized_reps(QuadForm(a, 0, b), t)
    if not norm:
        return _na(case, p, f"{t} has no representation with x = y = 1 (mod 4)")
    _require_unique(norm, t, a, b)
    x, y = norm[0]
    (lam,) = cache.values(ta, tb, [index])
    lhs_ok, quad_ok = _product_checks(a, b, x, y, t, lam)
    status = HOLDS if lhs_ok and quad_ok else FALSIFIED
    reason = "square recovery identity failed" if lhs_ok and not quad_ok else None
    return Verdict(status, case, p, witness=(x, y), index=index, lhs=x * y, rhs=lam, reason=reason)


# T5.3's residue classes of p mod 30: the form p = fa*x^2 + fb*y^2, its label,
# and the multipliers k of the value k*(4*fa*x^2 - 2p) expected at p, 2p, 3p, 5p
_THM53_CLASSES = {
    **dict.fromkeys((1, 19), ((1, 15), "x^2 + 15y^2", (1, 0, 0, 0))),
    **dict.fromkeys((17, 23), ((3, 5), "3x^2 + 5y^2", (0, -1, 3, -5))),
}
_THM53_MULTIPLES = (1, 2, 3, 5)


def _run_thm53(case, p, cache, rule):
    ta, tb, _ = rule.tables[0]
    cls = _THM53_CLASSES.get(p % 30)
    witness, expected = None, (0, 0, 0, 0)
    if cls is not None:
        (fa, fb), label, mults = cls
        witness = find_rep(fa, fb, p)
        if witness is None:
            reason = f"expected representation {label} missing"
            return Verdict(FALSIFIED, case, p, index=p, reason=reason)
        expected = tuple(k * _square_lhs(fa, witness[0], p) for k in mults)
    reads = [m * p for m in _THM53_MULTIPLES]
    details = tuple(zip(reads, expected, cache.values(ta, tb, reads)))
    status = HOLDS if all(want == got for _, want, got in details) else FALSIFIED
    return Verdict(status, case, p, witness=witness, index=p, details=details)


@dataclass(frozen=True)
class _Rule:
    """One identity at concrete parameters; see the module docstring."""

    form: tuple[int, int]
    tables: tuple[tuple[int, int, tuple[int, int, int]], ...]
    hypotheses: tuple[tuple[object, str], ...] = ()
    sign: object = lambda x, y: 0  # the exponent e in (-1)^e (4*fa*x^2 - 2p)
    even_y: bool = False  # every y is even (asserted, not a hypothesis)
    odd_x: bool = False  # only the representations with odd x count
    show_a: bool = False  # reasons write the form as a*x^2 even for a = 1
    run: object = _run_square


def _index(affine: tuple[int, int, int], p):
    """(u*p + v) // 8 + w and whether u*p + v is not divisible by 8, for an
    int or an int64 array p."""
    u, v, w = affine
    num = u * p + v
    return num // 8 + w, num % 8 != 0


def _exact_index(affine: tuple[int, int, int], p: int) -> int:
    index, inexact = _index(affine, p)
    if inexact:
        u, v, _ = affine
        raise InternalInconsistencyError(
            f"index numerator u*p + v = {u * p + v} is not divisible by 8"
        )
    return index


# each hypothesis is (fails(p), reason), where fails takes an int or an int64 array
def _residue(mod, allowed, label):
    fails = np.ones(mod, dtype=bool)
    fails[list(allowed)] = False
    return (lambda p: fails[p % mod], f"p is not {label}")


def _equals(value, name):
    return (lambda p: p == value, f"p equals {name}")


def _divides(value, name):
    """p divides value.  value is read in 31-bit limbs from the top, so a prime
    array (below 2^28 by the sieve budget) never meets a value past int64."""
    limbs = [value >> shift & 2**31 - 1 for shift in range(value.bit_length() // 31 * 31, -1, -31)]

    def fails(p):
        rest = 0
        for limb in limbs:
            rest = (rest * 2**31 + limb) % p
        return rest == 0

    return (fails, f"p divides {name}")


_ONE_MOD_8 = _residue(8, (1,), "1 (mod 8)")


def _t31(a, b, *residue):
    """p = a*x^2 + b*y^2: (-1)^((a+b)/2*x + (b+1)/2) (4a*x^2 - 2p)."""
    return _Rule(
        form=(a, b),
        tables=((a, b, (a * b + 1, -a - b, 1)),),
        hypotheses=(*residue, _equals(a, "a"), _equals(b, "b"), _divides(a * b + 1, "a*b + 1")),
        sign=lambda x, y: (a + b) // 2 * x + (b + 1) // 2,
        show_a=True,
    )


def _t33(a, b, *residue):
    """T3.1's form and index for even b: (-1)^((a-1)/2 + y/2) (4a*x^2 - 2p)."""
    return replace(
        _t31(a, b),
        hypotheses=(
            *residue,
            _residue(8, (a % 8,), "a (mod 8)"),
            _equals(a, "a"),
            _divides(a * b + 1, "a*b + 1"),
        ),
        sign=lambda x, y: (a - 1) // 2 + y // 2,
        even_y=True,
    )


def _over_ab(a, b, *first):
    """p = x^2 + ab*y^2, read from the (a, b) table (T3.2, C3.3 and C3.5)."""
    ab = a * b
    return _Rule(
        form=(1, ab),
        tables=((a, b, (a + b, -a - b, 1)),),
        hypotheses=(*first, _equals(ab, "a*b"), _equals(ab + 1, "a*b + 1")),
    )


def _t32ii(a, b, *residue):
    return replace(_over_ab(a, b, *residue, _ONE_MOD_8), sign=lambda x, y: y // 2, even_y=True)


def _c33(a, b, *first):
    """The (a, b) value equals the (1, ab) value at (ab+1)(p-1)/8 + 1."""
    rule = _over_ab(a, b, *first)
    ab = a * b
    return replace(rule, tables=rule.tables + ((1, ab, (ab + 1, -ab - 1, 1)),))


def _plain(fb, index, residue, odd_x=False):
    """Unsigned 4x^2 - 2p over p = x^2 + fb*y^2, read from the (1, fb) table."""
    return _Rule(form=(1, fb), tables=((1, fb, index),), hypotheses=(residue,), odd_x=odd_x)


def _product(a, b, m, *hypotheses):
    """m*p = a*x^2 + b*y^2 with x = y = 1 (mod 4): x*y at (m*p - a - b)/8 + 1."""
    return _Rule(
        form=(a, b), tables=((a, b, (m, -a - b, 1)),), hypotheses=hypotheses, run=_run_product
    )


def _congruent(m, a, b):
    """T4.1 (m = 1) and T4.2 (m = 2): m*p = a + b (mod 8) with m*p >= a + b."""
    t = "p" if m == 1 else f"{m}p"
    reason = f"{t} is not a+b (mod 8) with {t} >= a+b"
    # a + b is reduced mod 8 before it meets p, so a multiplier past int64 works
    return (lambda p: (m * p < a + b) | ((m * p - (a + b) % 8) % 8 != 0), reason)


def _evaluate(case: ConstructionCase, p: int, cache: TableCache) -> Verdict:
    rule = case._rule
    for fails, reason in rule.hypotheses:
        if fails(p):
            return _na(case, p, reason)
    return rule.run(case, p, cache, rule)


# ---------------------------------------------------------------------------
# case registry


@dataclass(frozen=True)
class _CaseSpec:
    summary: str
    rule: object  # the case's parameters -> its _Rule
    conditions: tuple[tuple[object, str], ...] = ()  # (fails(a, b), message), in order
    arity: int = 0


_ODD_A = ((lambda a, b: a % 2 == 0, "requires odd a"),)
_ODD_PAIR = ((lambda a, b: a % 2 == 0 or b % 2 == 0, "requires odd a and b"),)
_COPRIME = ((lambda a, b: gcd(a, b) != 1, "requires coprime a and b"),)
_ODD_EVEN = _ODD_A + ((lambda a, b: b % 2 or b % 8 == 0, "requires even b not divisible by 8"),)

_CASES: dict[str, _CaseSpec] = {
    "T3.1": _CaseSpec(
        "odd a,b; p = a*x^2 + b*y^2; signed 4a*x^2 - 2p at ((ab+1)p-a-b)/8 + 1",
        _t31,
        _ODD_PAIR,
        arity=2,
    ),
    "C3.1": _CaseSpec(
        "p = 1 (mod 4) = x^2 + y^2, odd x; 4x^2 - 2p at (p+3)/4",
        lambda: _plain(1, (2, 6, 0), _residue(4, (1,), "1 (mod 4)"), odd_x=True),
    ),
    "C3.2": _CaseSpec(
        "p = 1,9 (mod 20) = x^2 + 5y^2; signed 4x^2 - 2p at (3p+1)/4",
        lambda: _t31(1, 5, _residue(20, (1, 9), "1 or 9 (mod 20)")),
    ),
    "T3.2i": _CaseSpec(
        "odd coprime a,b; p = x^2 + ab*y^2; signed 4x^2 - 2p at (a+b)(p-1)/8 + 1",
        lambda a, b: replace(_over_ab(a, b), sign=lambda x, y: (a * b + 1) // 2 * y),
        _ODD_PAIR + _COPRIME,
        arity=2,
    ),
    "T3.2ii": _CaseSpec(
        "odd a, even b (8 exc.), coprime; p = 1 (mod 8) = x^2 + ab*y^2",
        _t32ii,
        _ODD_EVEN + _COPRIME,
        arity=2,
    ),
    "C3.3": _CaseSpec(
        "coefficient equality between the (a,b) and (1,ab) tables, odd coprime a,b",
        _c33,
        _ODD_PAIR + _COPRIME,
        arity=2,
    ),
    "C3.4": _CaseSpec(
        "odd a; p = x^2 + 16a*y^2; (-1)^y (4x^2 - 2p) at ((a+4)p - a + 4)/8",
        lambda a: _Rule(form=(1, 16 * a), tables=((a, 4, (a + 4, 4 - a, 0)),), sign=lambda x, y: y),
        _ODD_A,
        arity=1,
    ),
    "C3.5": _CaseSpec(
        "table equality as C3.3 for odd a, even b (8 exc.), coprime, p = 1 (mod 8)",
        lambda a, b: _c33(a, b, _ONE_MOD_8),
        _ODD_EVEN + _COPRIME,
        arity=2,
    ),
    "T3.3": _CaseSpec(
        "odd a, even b (8 exc.); p = a (mod 8) = a*x^2 + b*y^2; signed 4a*x^2 - 2p",
        _t33,
        _ODD_EVEN,
        arity=2,
    ),
    "E1.6": _CaseSpec(
        "p = 1,2,4 (mod 7) = x^2 + 7y^2; 4x^2 - 2p at index p",
        lambda: _plain(7, (8, 0, 0), _residue(7, (1, 2, 4), "1, 2 or 4 (mod 7)")),
    ),
    "E1.8": _CaseSpec(
        "p = 1 (mod 3) = x^2 + 3y^2; 4x^2 - 2p at (p+1)/2 in the (1,3) table",
        lambda: _plain(3, (4, 4, 0), _residue(3, (1,), "1 (mod 3)")),
    ),
    "E3.1": _CaseSpec(
        "p = 1 (mod 8) = x^2 + 2y^2; signed value at (3p+5)/8 in the (1,2) table",
        lambda: _t32ii(1, 2, _ONE_MOD_8),
    ),
    "E3.2": _CaseSpec(
        "p = 1 (mod 24) = x^2 + 6y^2; signed value at (7p+1)/8 in the (1,6) table",
        lambda: _t32ii(1, 6, _residue(24, (1,), "1 (mod 24)")),
    ),
    "E3.3": _CaseSpec(
        "p = 1,9 (mod 40) = x^2 + 10y^2; signed value at (11p-3)/8 in the (1,10) table",
        lambda: _t32ii(1, 10, _residue(40, (1, 9), "1 or 9 (mod 40)")),
    ),
    "E3.4": _CaseSpec(
        "p = 1 (mod 24) = x^2 + 12y^2; signed value at (13p-5)/8 in the (1,12) table",
        lambda: _t32ii(1, 12, _residue(24, (1,), "1 (mod 24)")),
    ),
    "E3.5": _CaseSpec(
        "p = 11 (mod 24) = 3x^2 + 2y^2; signed value at (7p+3)/8 in the (2,3) table",
        lambda: _t33(3, 2, _residue(24, (11,), "11 (mod 24)")),
    ),
    "E3.6": _CaseSpec(
        "p = 13,37 (mod 40) = 5x^2 + 2y^2; signed value at (11p+1)/8 in the (2,5) table",
        lambda: _t33(5, 2, _residue(40, (13, 37), "13 or 37 (mod 40)")),
    ),
    "T4.1": _CaseSpec(
        "p = 8n+a+b = a*x^2 + b*y^2, x = y = 1 (mod 4); x*y at n+1 plus square recovery",
        lambda a, b: _product(a, b, 1, _congruent(1, a, b)),
        ((lambda a, b: a % 8 == 0 or b % 8 == 0, "requires a and b not divisible by 8"),),
        arity=2,
    ),
    "T4.2": _CaseSpec(
        "2p = 8n+a+b = a*x^2 + b*y^2, x = y = 1 (mod 4); x*y at n+1 plus square recovery",
        lambda a, b: _product(a, b, 2, _congruent(2, a, b)),
        (
            *_COPRIME,
            (lambda a, b: (a * b) % 4 != 1, "requires a*b = 1 (mod 4)"),
            # with a = b = 1 the normalized solution is never unique (the
            # discriminant -4 has four units) and the product identity fails;
            # same degeneracy the ab != 3 hypothesis excludes in T4.3
            (lambda a, b: a * b == 1, "requires a*b > 1"),
        ),
        arity=2,
    ),
    "T4.3": _CaseSpec(
        "4p = a*x^2 + b*y^2, x = y = 1 (mod 4); x*y at (4p-a-b)/8 + 1 plus square recovery",
        lambda a, b: _product(a, b, 4, _divides(a * b, "a*b")),
        (
            *_ODD_PAIR,
            (lambda a, b: a * b == 3, "requires a*b != 3"),
            (lambda a, b: (a + b) % 8 != 4, "requires a + b = 4 (mod 8)"),
        ),
        arity=2,
    ),
    "T5.3": _CaseSpec(
        "(3,5) table values at p, 2p, 3p, 5p against the residue-class case split",
        lambda: _Rule(
            form=(3, 5),
            tables=((3, 5, (40, 0, 0)),),  # up to the largest read, 5p
            hypotheses=((lambda p: p <= 5, "p <= 5"),),
            run=_run_thm53,
        ),
    ),
}
_CASES["E1.7"] = replace(
    _CASES["C3.1"], summary="alias of C3.1: 4x^2 - 2p at (p+3)/4 in the (1,1) table"
)


@lru_cache(maxsize=1024)
def _built_rule(case_id: str, params: tuple[int, ...]) -> _Rule:
    """The case's _Rule, built once per (case, parameters): rules are frozen,
    and some build numpy residue tables."""
    return _CASES[case_id].rule(*params)


def case_ids() -> list[str]:
    return sorted(_CASES)


def _spec(case_id: str) -> _CaseSpec:
    spec = _CASES.get(case_id)
    if spec is None:
        raise ValueError(f"unknown case {case_id!r}; known: {', '.join(case_ids())}")
    return spec


def case_summary(case_id: str) -> str:
    return _CASES[case_id].summary


def case_arity(case_id: str) -> int:
    """Number of parameters the case takes (0, 1, or 2)."""
    return _CASES[case_id].arity


def make_case(case_id: str, a: int | None = None, b: int | None = None) -> ConstructionCase:
    return ConstructionCase(case_id, a, b)


def _verify_kind(run, kind: str, case: ConstructionCase, p: int, cache: TableCache | None):
    if case._rule.run is not run:
        raise ValueError(f"case {case.case_id} is not a {kind} case")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return _evaluate(case, p, cache or _SHARED_CACHE)


def verify_construction(case: ConstructionCase, p: int, cache: TableCache | None = None) -> Verdict:
    """Check one single-prime construction identity; see the case registry."""
    return _verify_kind(_run_square, "construction", case, p, cache)


def verify_product(case: ConstructionCase, p: int, cache: TableCache | None = None) -> Verdict:
    """Check one x*y product identity (cases T4.1, T4.2, T4.3)."""
    return _verify_kind(_run_product, "product", case, p, cache)


def verify_thm53(p: int, cache: TableCache | None = None) -> Verdict:
    """Check the four (3,5)-table values at p, 2p, 3p and 5p at once.

    Off the residue classes the values must vanish; on them they are
    fixed quadratic expressions in the representation of p.
    """
    if p <= 5 or not is_prime(p):
        raise ValueError(f"need a prime p > 5, got {p}")
    return _evaluate(ConstructionCase("T5.3"), p, cache or _SHARED_CACHE)


# ---------------------------------------------------------------------------
# range aggregation: each instance evaluated over every prime of the range at
# once.  A columnar runner reads the same _Rule fields as its scalar runner
# and returns two boolean arrays over the prime positions: `live` where the
# verdict is not not_applicable, and `suspect` where it may be anything but
# holds, so that the scalar runner must decide it.  An internal fault that
# the sweep shows raises at once, through the scalar runner's own check.


class _Range(NamedTuple):
    primes: np.ndarray  # the odd primes <= p_max, ascending
    flags: np.ndarray  # the sieve's primality flags for 0..p_max

    def sweep(self, form, m=1):
        """Every x, y >= 0 with m*p = fa*x^2 + fb*y^2 for an odd prime p of the
        range, as arrays (position of p, x, y)."""
        flags = self.flags
        t, x, y = lattice_points(
            *form, m * int(self.primes[-1]), lambda t: (t % m == 0) & flags[t // m] & (t > 2 * m)
        )
        return np.searchsorted(self.primes, t // m), x, y

    def index(self, affine, where):
        """Each prime's table index; inexact where `where` holds raises, as in
        the scalar runner."""
        index, inexact = _index(affine, self.primes)
        for i in np.flatnonzero(where & inexact)[:1]:
            _exact_index(affine, int(self.primes[i]))
        return index


def _read(table, index, where):
    """Table entries at index[where], zero elsewhere."""
    out = np.zeros(len(index), dtype=np.int64)
    out[where] = table.take(index[where])
    return out


def _marks(positions, n):
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return mask


def _points_of(i, pos, x, y):
    return list(zip(x[pos == i].tolist(), y[pos == i].tolist()))


def _cols_square(case, rule, rng, ok, tables):
    primes, n = rng.primes, len(rng.primes)
    pos, x, y = rng.sweep(rule.form)
    keep = ok[pos] & (x % 2 == 1) if rule.odd_x else ok[pos]
    pos, x, y = pos[keep], x[keep], y[keep]
    live = _marks(pos, n)
    sides = [
        _read(table, rng.index(affine, live), live)
        for table, (_, _, affine) in zip(tables, rule.tables)
    ]
    if len(sides) == 2:
        return live, live & (sides[0] != sides[1])
    if rule.even_y:
        for i in np.unique(pos[y % 2 == 1])[:1]:
            _require_even_y(_points_of(i, pos, x, y), case, int(primes[i]))
    # the left side at each point, over its four sign variants
    base = _square_lhs(rule.form[0], x, primes[pos])
    lhs = np.stack([_sign(rule.sign(sx * x, sy * y)) * base for sx in (1, -1) for sy in (1, -1)])
    low, high = np.full(n, np.iinfo(np.int64).max), np.full(n, np.iinfo(np.int64).min)
    np.minimum.at(low, pos, lhs.min(axis=0))
    np.maximum.at(high, pos, lhs.max(axis=0))
    return live, live & ((low != high) | (low != sides[0]))


def _cols_product(case, rule, rng, ok, tables):
    a, b = rule.form
    ((_, _, affine),) = rule.tables
    m = affine[0]  # t = 8(index - 1) + a + b = m*p
    primes, n = rng.primes, len(rng.primes)
    if m * int(primes[-1]) < a + b:
        # odd x and y give t >= a + b, so no prime of the range has a point
        # (and a + b, past every t, need not fit int64)
        return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    index = rng.index(affine, ok)  # the scalar runner checks it before any representation
    pos, x, y = rng.sweep(rule.form, m)
    keep = ok[pos] & (x % 2 == 1) & (y % 2 == 1)
    pos, x, y = pos[keep], x[keep], y[keep]
    # each point with odd x, y has one sign variant with x = y = 1 (mod 4)
    x, y = np.where(x % 4 == 1, x, -x), np.where(y % 4 == 1, y, -y)
    targets, first, hits = np.unique(pos, return_index=True, return_counts=True)
    for i in targets[hits > 1][:1]:
        _require_unique(sorted(_points_of(i, pos, x, y)), m * int(primes[i]), a, b)
    t, lam, x, y = m * primes[targets], tables[0].take(index[targets]), x[first], y[first]
    lhs_ok, quad_ok = _product_checks(a, b, x, y, t, lam)
    return _marks(targets, n), _marks(targets[~(lhs_ok & quad_ok)], n)


def _cols_thm53(case, rule, rng, ok, tables):
    primes, n = rng.primes, len(rng.primes)
    got = np.stack([tables[0].take(m * primes) * ok for m in _THM53_MULTIPLES])
    want = np.zeros_like(got)
    missing = np.zeros(n, dtype=bool)
    for cls in dict.fromkeys(_THM53_CLASSES.values()):
        (fa, fb), _, mults = cls
        member = ok & np.isin(primes % 30, [r for r, c in _THM53_CLASSES.items() if c == cls])
        # find_rep's witness: the representation with the smallest x >= 0
        pos, x, _ = rng.sweep((fa, fb))
        smallest = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(smallest, pos, x)
        found = member & (smallest < np.iinfo(np.int64).max)
        missing |= member & ~found
        want[:, found] = np.outer(mults, _square_lhs(fa, smallest[found], primes[found]))
    return ok, missing | (ok & (want != got).any(axis=0))


_COLUMNAR = {_run_square: _cols_square, _run_product: _cols_product, _run_thm53: _cols_thm53}


def range_report(
    case_id: str,
    p_max: int,
    grid=None,
    cache: TableCache | None = None,
) -> RangeReport:
    """Evaluate one case over every odd prime <= p_max (and a parameter grid).

    ``grid`` is an iterable of parameter tuples for parametrized cases
    ((a, b) pairs, or single values for one-parameter cases) and must be
    omitted for the fixed-parameter ones.  Evaluation order is primes
    ascending, parameters lexicographic, so reports are deterministic.
    Hypothesis failures are counted as skipped; falsifying verdicts are
    collected in full.
    """
    spec = _spec(case_id)
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    if spec.arity == 0 and grid is not None:
        raise ValueError(f"case {case_id} takes no parameters")
    if spec.arity > 0 and grid is None:
        raise ValueError(f"case {case_id} needs a parameter grid")
    # ConstructionCase rejects a combo of the wrong length; an empty grid gives no instance
    entries = [()] if grid is None else grid
    combos = {(entry,) if isinstance(entry, int) else tuple(entry) for entry in entries}
    instances = [ConstructionCase(case_id, *combo) for combo in sorted(combos)]
    cache = cache or _SHARED_CACHE
    flags = sieve_primes(p_max).flags() if p_max >= 3 else np.zeros(0, dtype=bool)
    rng = _Range(np.flatnonzero(flags)[1:].astype(np.int64), flags)  # every prime but 2
    # every index rule is increasing in p, so p_max sizes each table once
    rules = [inst._rule for inst in instances] if len(rng.primes) else []
    tables = [
        [cache.get(ta, tb, max(_index(affine, p_max)[0], 1)) for ta, tb, affine in rule.tables]
        for rule in rules
    ]
    checked = skipped = 0
    suspects = []  # (prime position, instance position)
    for k, (inst, held) in enumerate(zip(instances, tables)):
        rule = inst._rule
        ok = np.ones(len(rng.primes), dtype=bool)
        for fails, _ in rule.hypotheses:
            ok &= ~fails(rng.primes)
        live, suspect = _COLUMNAR[rule.run](inst, rule, rng, ok, held)
        checked += int(np.count_nonzero(live & ~suspect))
        skipped += int(np.count_nonzero(~live & ~suspect))
        suspects += [(i, k) for i in np.flatnonzero(suspect).tolist()]
    # the scalar runner decides the rest, in the order of the one-prime loop
    falsified: list[Verdict] = []
    for i, k in sorted(suspects):
        verdict = _evaluate(instances[k], int(rng.primes[i]), cache)
        if verdict.status == NOT_APPLICABLE:
            skipped += 1
        else:
            checked += 1
            if verdict.status == FALSIFIED:
                falsified.append(verdict)
    return RangeReport(
        case_id=case_id,
        params=tuple(inst.params() for inst in instances),
        p_max=p_max,
        checked=checked,
        skipped=skipped,
        falsified=tuple(falsified),
    )
