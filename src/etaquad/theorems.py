"""Verdict machinery for the constructive prime-representation identities.

Every case evaluates both sides of one identity on a hypothesis-satisfying
prime and returns a structured three-way verdict:

* ``holds``           -- both sides agree exactly;
* ``not_applicable``  -- a hypothesis fails (the violated one is named);
* ``falsified``       -- hypotheses hold but the sides differ.

One rule (``_verdict``) gives every holds-or-falsified verdict: ``holds``
exactly when no failure reason is given, the left side equals the right
and every (index, expected, value) read in ``details`` agrees, and
``falsified`` otherwise; ``_na`` gives every not-applicable one.

Hypothesis failure is never success and never an error; divisibility
facts that are provable from the hypotheses are asserted and raise
``InternalInconsistencyError`` when violated, since that can only mean
an implementation bug.  When a prime admits several representations,
the identity is evaluated on every one of them and any disagreement is
reported as a falsification with witnesses.

Every coefficient read goes through ``TableCache.values``: it slices a
held table only when ``CoeffTable.take`` covers the read (integer indices
inside 1..limit) and hands every read ``take`` refuses to the lattice sums
of ``lambda_at`` (O(sqrt p) work per index), so an index error comes only
from ``lambda_at`` (``ValueError``).
Only ``range_report`` builds tables, presized per (a, b) with the sparse
method (``lambda_table`` audits each one's prefix against the newton
recurrence); a one-prime verdict builds none.  A one-prime call, and
each instance of a range, given no cache makes its own, so its tables are
released when it is done and nothing reads what an earlier call or
instance left behind.

Each case is one ``_CASES`` record (rule builder and parameter
conditions; its arity is the builder's parameter count) whose builder
gives the identity at concrete parameters as a ``_Rule``: the ``form``
p = fa*x^2 + fb*y^2, the ``reads`` (ta, tb, m), each the (ta, tb)
coefficient at t = m*p, the ordered ``hypotheses`` with their reasons,
and the ``sign`` rule on (x, y) or the runner (``run``) for the left
side.  Table sizes for a range follow from the reads at p_max, so adding
a case means adding one record.

Two paths evaluate a rule.  The single-prime path (``verify_*``) runs the
rule's scalar runner, which finds the representations of one prime p
(of m*p, for a product rule) and builds its ``Verdict``.  ``quadform``
finds those of a prime target by Cornacchia's algorithm in polylog time
when the form's coefficients are coprime and prime to p, and by an
O(sqrt p) scan otherwise.  ``range_report`` sieves once and takes the
columnar path for one instance at a time: one ``lattice_points`` sweep
of the rule's form over each parity class of (x, y) that an odd prime
allows, the hypotheses as boolean masks, and each coefficient read once
per lattice point that checks it, in one array per read, so a range costs
about O(P) array work instead of O(P^1.5 / log P) Python steps.  The
columns are keyed by the prime, not by its position among the primes:
one byte of state per odd integer to p_max marks where the hypotheses
hold, the sweep keeps the points whose prime it marks, and each point's
reads are taken at its prime.  Each scalar runner has one columnar
counterpart that reads the same ``_Rule`` fields and compares every
lattice point with the coefficients read at that point's prime (the
square identities try each sign of x and y).  T5.3's column checks each
prime in one pass: a prime off its residue classes has each read
compared with 0, and a class member with the class's multiple of
4*fa*x^2 - 2p at its point, so each of its four reads is taken once per
prime.  Every prime the columns cannot settle as holding or not
applicable (some point disagrees with its read, an expected
representation is missing) goes through the scalar runner, so the
scalar path stays the oracle and every falsified
``Verdict`` is the one it gives.  A fault raises at the first (instance,
prime) that has one, as an instance-major loop of the scalar runner does.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import is_prime, sieve_primes
from .errors import InternalInconsistencyError
from .etaseries import (
    LambdaParams,
    _check_table_budget,
    _jacobi,
    lambda_at,
    lambda_from_reps,
    lambda_table,
)
from .quadform import QuadForm, find_rep, lattice_points, normalized_reps, representations

HOLDS = "holds"
NOT_APPLICABLE = "not_applicable"
FALSIFIED = "falsified"


def _table_key(a: int, b: int) -> tuple[int, int]:
    """The key of the (a, b) table: L(a, b) = L(b, a), so the pair ascending."""
    return (a, b) if a <= b else (b, a)


class TableCache:
    """One run's read-only coefficient tables, one per (a, b), and the one
    read path of every runner.  It holds its tables for as long as its
    caller holds it, and never evicts.

    `get` builds a table to the asked limit when the held one is shorter,
    and holds it; only `range_report` calls it, once per table its rules
    read.  It audits no build: `lambda_table` checks every table it builds.
    `values` never builds and checks no index itself: it slices a held
    table when `CoeffTable.take` covers the read (integer indices inside
    1..limit), and hands every read `take` refuses with IndexError to the
    lattice kernel `lambda_at`, whose first read per (a, b) is audited
    against the sums over representations.  So an index error comes only
    from `lambda_at` (ValueError).  The kernel's parameters are built once
    per (a, b), at that audited read, and held.
    """

    def __init__(self):
        self._tables: dict[tuple[int, int], object] = {}
        self._kernel_params: dict[tuple[int, int], LambdaParams] = {}  # audited keys only

    def get(self, a: int, b: int, min_limit: int):
        key = _table_key(a, b)
        cur = self._tables.get(key)
        if cur is None or cur.limit < min_limit:
            cur = lambda_table(LambdaParams(*key), min_limit, "sparse")
            self._tables[key] = cur
        return cur

    def values(self, a: int, b: int, indices) -> np.ndarray:
        """The (a, b) coefficients at a list or int64 array of indices, as int64."""
        if not len(indices):
            return np.zeros(0, dtype=np.int64)
        key = _table_key(a, b)
        table = self._tables.get(key)
        if table is not None:
            with suppress(IndexError):  # the table does not cover the read
                return table.take(indices)
        params = self._kernel_params.get(key)
        if params is not None:
            return lambda_at(params, indices)
        params = LambdaParams(*key)
        got = lambda_at(params, indices)
        for n, value in zip(indices, got.tolist()):
            if value != lambda_from_reps(params, int(n) - 1):
                raise InternalInconsistencyError(
                    f"lattice-sum/representation mismatch at index {n} for {params}"
                )
        self._kernel_params[key] = params
        return got


@dataclass(frozen=True)
class ConstructionCase:
    """A case identifier plus its parameters, validated on construction."""

    case_id: str
    a: int | None = None
    b: int | None = None

    def __post_init__(self):
        spec = _spec(self.case_id)
        for name in ("a", "b"):
            value = getattr(self, name)
            try:
                # stored as Python ints, so products of large parameters never wrap
                object.__setattr__(self, name, None if value is None else operator.index(value))
            except TypeError:
                message = f"case {self.case_id} needs integer parameters, got {value!r}"
                raise ValueError(message) from None
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

    @property
    def _rule(self) -> _Rule:
        return _built_rule(self.case_id, self.params())

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


def _square_lhs(fa, x, p):
    """4*fa*x^2 - 2p, the unsigned left side of the square identities, for
    ints or int64 arrays x and p."""
    return 4 * fa * x * x - 2 * p


def _na(case, p, reason) -> Verdict:
    return Verdict(NOT_APPLICABLE, case, p, reason=reason)


def _verdict(case, p, witness, index, reason=None, lhs=None, rhs=None, details=()) -> Verdict:
    """The one holds-or-falsified rule: `holds` exactly when no reason is
    given, lhs equals rhs and every (index, expected, value) of details
    agrees."""
    ok = reason is None and lhs == rhs and all(want == got for _, want, got in details)
    return Verdict(HOLDS if ok else FALSIFIED, case, p, witness, index, lhs, rhs, reason, details)


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
    witness = min(reps, key=lambda r: (abs(r[0]), abs(r[1]), r[0] < 0, r[1] < 0))
    indices = [_index(read, p) for read in rule.reads]
    values = [cache.values(ta, tb, [i]).item() for (ta, tb, _), i in zip(rule.reads, indices)]
    if len(values) == 2:
        return _verdict(case, p, witness, indices[0], lhs=values[0], rhs=values[1])
    if rule.even_y:
        _require_even_y(reps, case, p)
    lhs = {(-1) ** (rule.sign(x, y) % 2) * _square_lhs(fa, x, p) for x, y in reps}
    reason = f"left side depends on the representation: {sorted(lhs)}" if len(lhs) > 1 else None
    return _verdict(case, p, witness, indices[0], reason, min(lhs), values[0])


def _run_product(case, p, cache, rule):
    """x*y equals the coefficient at the unique normalized representation of
    t = m*p, and (2a*x^2 - t)^2 = t^2 - 4ab*L^2 recovers the square."""
    a, b = rule.form
    ((ta, tb, m),) = rule.reads
    index, t = _index(rule.reads[0], p), m * p
    norm = normalized_reps(QuadForm(a, 0, b), t)
    if not norm:
        return _na(case, p, f"{t} has no representation with x = y = 1 (mod 4)")
    _require_unique(norm, t, a, b)
    x, y = norm[0]
    lam = cache.values(ta, tb, [index]).item()
    # with t = a*x^2 + b*y^2 exact, (2a*x^2 - t)^2 - (t^2 - 4ab*L^2) = 4ab*(L^2 - x^2*y^2):
    # the square recovery can fail while x*y = L only when the representation
    # search returns a pair off the form
    quad_ok = (2 * a * x * x - t) ** 2 == t * t - 4 * a * b * lam * lam
    reason = None if quad_ok or x * y != lam else "square recovery identity failed"
    return _verdict(case, p, (x, y), index, reason, x * y, lam)


# T5.3's residue classes of p mod 30, each as a lookup table over the residues
# mod 30 with the form p = fa*x^2 + fb*y^2, its label, and the multipliers k
# of the value k*(4*fa*x^2 - 2p) expected at each read
_THM53_CLASSES = tuple(
    (np.isin(np.arange(30), residues), form, label, mults)
    for residues, form, label, mults in (
        ((1, 19), (1, 15), "x^2 + 15y^2", (1, 0, 0, 0)),
        ((17, 23), (3, 5), "3x^2 + 5y^2", (0, -1, 3, -5)),
    )
)


def _run_thm53(case, p, cache, rule):
    # reads first, as in the columnar runner: past the kernel's ceiling they raise before find_rep
    indices = [_index(read, p) for read in rule.reads]
    tables = [_table_key(*read[:2]) for read in rule.reads]
    got = {}  # each read from its own table, with one values call per table
    for t in dict.fromkeys(tables):
        got[t] = iter(cache.values(*t, [i for u, i in zip(tables, indices) if u == t]).tolist())
    values = [next(got[t]) for t in tables]
    witness, expected = None, (0, 0, 0, 0)
    for member, (fa, fb), label, mults in _THM53_CLASSES:
        if member[p % 30]:
            witness = find_rep(fa, fb, p)
            if witness is None:
                return _verdict(case, p, None, p, f"expected representation {label} missing")
            expected = tuple(k * _square_lhs(fa, witness[0], p) for k in mults)
    return _verdict(case, p, witness, p, details=tuple(zip(indices, expected, values)))


@dataclass(frozen=True)
class _Rule:
    """One identity at concrete parameters; see the module docstring."""

    form: tuple[int, int]
    reads: tuple[tuple[int, int, int], ...]  # (ta, tb, m): the (ta, tb) coefficient at t = m*p
    sign: object  # the exponent e in (-1)^e (4*fa*x^2 - 2p); None where no runner reads it
    hypotheses: tuple[tuple[object, str], ...] = ()
    even_y: bool = False  # every y is even (asserted, not a hypothesis)
    odd_x: bool = False  # only the representations with odd x count
    show_a: bool = False  # reasons write the form as a*x^2 even for a = 1
    run: object = _run_square


def _index(read: tuple[int, int, int], p, where=True):
    """The index (m*p - ta - tb) // 8 + 1 of t = m*p in the (ta, tb) table, for
    an int or an int64 array p in any order.  At the smallest p where `where`
    holds and 8 does not divide m*p - ta - tb, it raises."""
    ta, tb, m = read
    num = m * p - ta - tb
    inexact = where & (num % 8 != 0)
    if inexact is not False and np.any(inexact):  # an int p gives a bool, spared np.any
        p = int(np.ravel(p)[np.ravel(inexact)].min())
        raise InternalInconsistencyError(
            f"index numerator m*p - ta - tb = {m}*{p} - {ta} - {tb} is not divisible by 8"
        )
    return num // 8 + 1


# each hypothesis is (fails(p), reason), where fails takes an int or an int64 array
def _residue(mod, allowed, label):
    fails = np.ones(mod, dtype=bool)
    fails[list(allowed)] = False
    return (lambda p: fails[p % mod], f"p is not {label}")


def _equals(value, name):
    return (lambda p: p == value, f"p equals {name}")


def _divides(value, name):
    """p divides value.  value is read in 31-bit limbs from the top, so a prime
    array never meets a value past int64: its primes are below 2^29 by the
    sieve budget, so each step's rest*2^31 + limb stays below 2^60 + 2^31."""
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
        reads=((a, b, a * b + 1),),
        hypotheses=(*residue, _equals(a, "a"), _equals(b, "b"), _divides(a * b + 1, "a*b + 1")),
        sign=lambda x, y: (a + b) // 2 * x + (b + 1) // 2,
        show_a=True,
    )


def _t33(a, b, *residue):
    """T3.1's form and index for even b: (-1)^((a-1)/2 + y/2) (4a*x^2 - 2p)."""
    rule = _t31(a, b, *residue, _residue(8, (a % 8,), "a (mod 8)"))
    return replace(rule, sign=lambda x, y: (a - 1) // 2 + y // 2, even_y=True)


def _over_ab(a, b, sign, *first):
    """p = x^2 + ab*y^2, read from the (a, b) table (T3.2, C3.3 and C3.5)."""
    ab = a * b
    return _Rule(
        form=(1, ab),
        reads=((a, b, a + b),),
        sign=sign,
        hypotheses=(*first, _equals(ab, "a*b"), _equals(ab + 1, "a*b + 1")),
    )


def _t32ii(a, b, *residue):
    return replace(_over_ab(a, b, lambda x, y: y // 2, *residue, _ONE_MOD_8), even_y=True)


def _c33(a, b, *first):
    """The (a, b) value equals the (1, ab) value at (ab+1)(p-1)/8 + 1."""
    rule = _over_ab(a, b, None, *first)
    return replace(rule, reads=rule.reads + ((1, a * b, a * b + 1),))


def _product(a, b, m, *hyps):
    """m*p = a*x^2 + b*y^2 with x = y = 1 (mod 4): x*y at (m*p - a - b)/8 + 1."""
    return _Rule(form=(a, b), reads=((a, b, m),), sign=None, hypotheses=hyps, run=_run_product)


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
    rule: object  # the case's parameters -> its _Rule
    conditions: tuple[tuple[object, str], ...] = ()  # (fails(a, b), message), in order

    @property
    def arity(self) -> int:
        # the builder's named parameters; a *residue tail is not counted
        return self.rule.__code__.co_argcount


_ODD_A = ((lambda a, b: a % 2 == 0, "requires odd a"),)
_ODD_PAIR = ((lambda a, b: a % 2 == 0 or b % 2 == 0, "requires odd a and b"),)
_COPRIME = ((lambda a, b: gcd(a, b) != 1, "requires coprime a and b"),)
_ODD_EVEN = _ODD_A + ((lambda a, b: b % 2 or b % 8 == 0, "requires even b not divisible by 8"),)

_CASES: dict[str, _CaseSpec] = {
    "T3.1": _CaseSpec(_t31, _ODD_PAIR),
    "C3.1": _CaseSpec(lambda: replace(_t31(1, 1, _residue(4, (1,), "1 (mod 4)")), odd_x=True)),
    "C3.2": _CaseSpec(lambda: _t31(1, 5, _residue(20, (1, 9), "1 or 9 (mod 20)"))),
    "T3.2i": _CaseSpec(
        lambda a, b: _over_ab(a, b, lambda x, y: (a * b + 1) // 2 * y),
        _ODD_PAIR + _COPRIME,
    ),
    "T3.2ii": _CaseSpec(_t32ii, _ODD_EVEN + _COPRIME),
    "C3.3": _CaseSpec(_c33, _ODD_PAIR + _COPRIME),
    "C3.4": _CaseSpec(
        lambda a: _Rule(form=(1, 16 * a), reads=((a, 4, a + 4),), sign=lambda x, y: y),
        _ODD_A,
    ),
    "C3.5": _CaseSpec(lambda a, b: _c33(a, b, _ONE_MOD_8), _ODD_EVEN + _COPRIME),
    "T3.3": _CaseSpec(_t33, _ODD_EVEN),
    "E1.6": _CaseSpec(lambda: _t31(1, 7, _residue(7, (1, 2, 4), "1, 2 or 4 (mod 7)"))),
    "E1.8": _CaseSpec(lambda: _t31(1, 3, _residue(3, (1,), "1 (mod 3)"))),
    "E3.1": _CaseSpec(lambda: _t32ii(1, 2)),
    "E3.2": _CaseSpec(lambda: _t32ii(1, 6, _residue(24, (1,), "1 (mod 24)"))),
    "E3.3": _CaseSpec(lambda: _t32ii(1, 10, _residue(40, (1, 9), "1 or 9 (mod 40)"))),
    "E3.4": _CaseSpec(lambda: _t32ii(1, 12, _residue(24, (1,), "1 (mod 24)"))),
    "E3.5": _CaseSpec(lambda: _t33(3, 2, _residue(24, (11,), "11 (mod 24)"))),
    "E3.6": _CaseSpec(lambda: _t33(5, 2, _residue(40, (13, 37), "13 or 37 (mod 40)"))),
    "T4.1": _CaseSpec(
        lambda a, b: _product(a, b, 1, _congruent(1, a, b)),
        ((lambda a, b: a % 8 == 0 or b % 8 == 0, "requires a and b not divisible by 8"),),
    ),
    "T4.2": _CaseSpec(
        lambda a, b: _product(a, b, 2, _congruent(2, a, b)),
        (
            *_COPRIME,
            (lambda a, b: (a * b) % 4 != 1, "requires a*b = 1 (mod 4)"),
            # with a = b = 1 the normalized solution is never unique (the
            # discriminant -4 has four units) and the product identity fails;
            # same degeneracy the ab != 3 hypothesis excludes in T4.3
            (lambda a, b: a * b == 1, "requires a*b > 1"),
        ),
    ),
    "T4.3": _CaseSpec(
        lambda a, b: _product(a, b, 4, _divides(a * b, "a*b")),
        (
            *_ODD_PAIR,
            (lambda a, b: a * b == 3, "requires a*b != 3"),
            (lambda a, b: (a + b) % 8 != 4, "requires a + b = 4 (mod 8)"),
        ),
    ),
    "T5.3": _CaseSpec(
        lambda: _Rule(
            form=(3, 5),
            reads=((3, 5, 8), (3, 5, 16), (3, 5, 24), (3, 5, 40)),  # indices p, 2p, 3p, 5p
            sign=None,
            hypotheses=((lambda p: p <= 5, "p <= 5"),),
            run=_run_thm53,
        ),
    ),
}
_CASES["E1.7"] = _CASES["C3.1"]  # Example 1.7 is the identity of Corollary 3.1


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


def case_arity(case_id: str) -> int:
    """Number of parameters the case takes (0, 1, or 2)."""
    return _spec(case_id).arity


def make_case(case_id: str, a: int | None = None, b: int | None = None) -> ConstructionCase:
    return ConstructionCase(case_id, a, b)


def _verify_kind(run, kind: str, case: ConstructionCase, p: int, cache: TableCache | None):
    if case._rule.run is not run:
        raise ValueError(f"case {case.case_id} is not a {kind} case")
    p = operator.index(p)  # a Python int, so that m*p cannot wrap as a numpy integer would
    # is_prime holds its answer, so the search of p's representations proves p no second
    # time, and the reads' inert-prime exit asks for no proof
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    return _evaluate(case, p, cache or TableCache())


def verify_construction(case: ConstructionCase, p: int, cache: TableCache | None = None) -> Verdict:
    """Check one single-prime construction identity; see the case registry."""
    return _verify_kind(_run_square, "construction", case, p, cache)


def verify_product(case: ConstructionCase, p: int, cache: TableCache | None = None) -> Verdict:
    """Check one x*y product identity (cases T4.1, T4.2, T4.3)."""
    return _verify_kind(_run_product, "product", case, p, cache)


_THM53 = ConstructionCase("T5.3")  # validated once: the case has no parameters


def verify_thm53(p: int, cache: TableCache | None = None) -> Verdict:
    """Check the four (3,5)-table values at p, 2p, 3p and 5p at once.

    Off the residue classes the values must vanish; on them they are
    fixed quadratic expressions in the representation of p.
    """
    p = operator.index(p)  # a Python int, so that m*p cannot wrap as a numpy integer would
    if p <= 5 or not is_prime(p):
        raise ValueError(f"need a prime p > 5, got {p}")
    return _evaluate(_THM53, p, cache or TableCache())


# ---------------------------------------------------------------------------
# range aggregation: one instance over every prime of the range at once.  A
# columnar runner returns two boolean arrays over the primes where the
# hypotheses hold: `live` where the verdict is not not_applicable, and
# `suspect` where the scalar runner must decide it.  It makes exactly one
# `_Range.marks` call, after its sweeps, and range_report clears the state
# before the next instance sweeps it.

# the levels of _Range.state at one odd integer: not a held prime, held, live, live and suspect
_HELD, _LIVE, _SUSPECT = 1, 2, 3


class _Range(NamedTuple):
    held: np.ndarray  # the odd primes <= p_max where the hypotheses hold, ascending
    state: np.ndarray  # uint8 over the odd integers to p_max, p at p >> 1: _HELD at each held prime
    cache: TableCache

    def sweep(self, form, m=1, odd_x=False, odd_y=False):
        """Every x, y >= 0 with m*p = fa*x^2 + fb*y^2 for a held prime p, and x
        (y) odd where asked, as int64 arrays (p, x, y).  The state array is
        the only bound: the sweep runs to m times its last odd integer."""
        fa, fb = form
        # x^2 = x (mod 2), so m*p has m's parity where fa*x + fb*y does; an axis
        # with an even coefficient leaves that parity alone and is not split
        xs = (1,) if odd_x else (None,) if fa % 2 == 0 else (0, 1)
        ys = (1,) if odd_y else (None,) if fb % 2 == 0 else (0, 1)
        classes = [
            (cx, cy) for cx in xs for cy in ys if (fa * (cx or 0) + fb * (cy or 0) - m) % 2 == 0
        ]
        state = self.state  # only 0 and _HELD = 1 here, so a bool view reads it

        def keep(t):
            if m == 1:  # every t of the classes is odd
                return state[t >> 1].view(bool)
            return (t % (2 * m) == m) & state[t // (2 * m)].view(bool)

        t_max = m * (2 * len(state) - 1)
        none = tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
        sweeps = [none] + [lattice_points(*form, t_max, keep, cx, cy) for cx, cy in classes]
        t, x, y = (np.concatenate(column) for column in zip(*sweeps))
        return (t if m == 1 else t // m), x, y

    def marks(self, live, suspect):
        """Masks over `held`: the primes of `live`, and of `suspect`, two
        arrays of held primes in any order and with repeats; every suspect
        prime is live too.  It leaves its marks in the state, so a runner
        calls it once, after its sweeps, and range_report clears them."""
        state, live, suspect = self.state, live >> 1, suspect >> 1
        state[live] = _LIVE
        state[suspect] = _SUSPECT
        got = state[self.held >> 1]
        return got >= _LIVE, got == _SUSPECT


def _points_of(q, p, x, y):
    return list(zip(x[p == q].tolist(), y[p == q].tolist()))


def _reads(rule, rng, p):
    """Each read of the rule at every prime of p, one row per read."""
    return [rng.cache.values(*read[:2], _index(read, p)) for read in rule.reads]


def _cols_square(case, rule, rng):
    p, x, y = rng.sweep(rule.form, odd_x=rule.odd_x)
    sides = _reads(rule, rng, p)
    if len(sides) == 2:
        return rng.marks(p, p[sides[0] != sides[1]])
    if rule.even_y:
        for q in np.unique(p[y % 2 == 1])[:1].tolist():
            _require_even_y(_points_of(q, p, x, y), case, q)
    # each point stands for its four sign variants, and each must give the side:
    # (-1)^e (4*fa*x^2 - 2p) misses it where the base misses the side (e even)
    # or the side's negation (e odd)
    base = _square_lhs(rule.form[0], x, p)
    even_miss, odd_miss = base != sides[0], base != -sides[0]
    ys = (y, -y)
    bad = [np.where(rule.sign(sx, sy) & 1, odd_miss, even_miss) for sx in (x, -x) for sy in ys]
    return rng.marks(p, p[np.logical_or.reduce(bad)])


def _cols_product(case, rule, rng):
    a, b = rule.form
    ((ta, tb, m),) = rule.reads
    if m * (2 * len(rng.state) - 1) < a + b:
        # odd x and y give t >= a + b, so no prime of the range has a point
        # (and a + b, past every t, need not fit int64)
        none = np.zeros(0, dtype=np.int64)
        return rng.marks(none, none)
    _index(rule.reads[0], rng.held)  # read before any point, as the scalar runner does
    p, x, y = rng.sweep(rule.form, m, odd_x=True, odd_y=True)
    # each point with odd x, y has one sign variant with x = y = 1 (mod 4)
    x, y = _jacobi(x), _jacobi(y)
    ps = np.sort(p)
    for q in ps[1:][ps[1:] == ps[:-1]][:1].tolist():
        _require_unique(sorted(_points_of(q, p, x, y)), m * q, a, b)
    (lam,) = _reads(rule, rng, p)
    # t = a*x^2 + b*y^2 is exact here, so (2a*x^2 - t)^2 - (t^2 - 4ab*L^2) =
    # 4ab*(L^2 - x^2*y^2): the square recovery holds wherever x*y = L does, and
    # a prime where x*y != L goes to the scalar runner, which tests both
    return rng.marks(p, p[x * y != lam])


def _cols_thm53(case, rule, rng):
    # groups of (primes, 4*fa*x^2 - 2p, multipliers k per read); every k is 0 off
    # the classes, and the classes are disjoint, so each held prime is in one group
    held = rng.held
    off = ~np.logical_or.reduce([in_class[held % 30] for in_class, *_ in _THM53_CLASSES])
    groups = [(held[off], 0, (0, 0, 0, 0))]
    for in_class, (fa, fb), _, mults in _THM53_CLASSES:
        p, x, _ = rng.sweep((fa, fb))
        inside = in_class[p % 30]  # the points of the class's own members
        groups.append((p[inside], _square_lhs(fa, x[inside], p[inside]), mults))
    bad = [
        p[np.logical_or.reduce([k * lhs != got for k, got in zip(mults, _reads(rule, rng, p))])]
        for p, lhs, mults in groups
    ]
    # a member with no point is not live: its expected representation is missing
    has, wrong = rng.marks(np.concatenate([p for p, _, _ in groups]), np.concatenate(bad))
    return np.ones_like(has), wrong | ~has


def _table_limits(rule, p_max):
    """Table key -> the largest index the rule reads from it at p_max, in read
    order.  Every index is increasing in p, so one build per table to that
    index serves every read to p_max, the scalar runner's included."""
    limits = {}
    for read in rule.reads:
        key = _table_key(*read[:2])
        limits[key] = max(limits.get(key, 1), _index(read, p_max, False))
    return limits


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
    omitted for the fixed-parameter ones.  Instances run one at a time in
    lexicographic order, each through ``cache`` or, given none, its own.
    Hypothesis failures are counted as skipped; falsifying verdicts are
    collected in full in the one-prime loop's order (primes ascending, then
    parameters).  A fault raises at the first (instance, prime) with one.
    With no odd prime (p_max < 3) or an empty grid it returns before the
    sieve and any table; otherwise it checks every table against its budget
    before it sieves.
    """
    spec = _spec(case_id)
    p_max = operator.index(p_max)  # a Python int, as the report's field
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    if spec.arity == 0 and grid is not None:
        raise ValueError(f"case {case_id} takes no parameters")
    if spec.arity > 0 and grid is None:
        raise ValueError(f"case {case_id} needs a parameter grid")
    # ConstructionCase rejects a combo of the wrong length; an empty grid gives no instance
    entries = [()] if grid is None else grid
    combos = {(entry,) if np.ndim(entry) == 0 else tuple(entry) for entry in entries}
    instances = [ConstructionCase(case_id, *combo) for combo in sorted(combos)]
    params = tuple(inst.params() for inst in instances)
    if p_max < 3 or not instances:
        return RangeReport(case_id, params, p_max, checked=0, skipped=0, falsified=())
    limits = [_table_limits(inst._rule, p_max) for inst in instances]
    for got in limits:  # every table's budget, before the sieve and the state
        for limit in got.values():
            _check_table_budget(limit)
    primes = sieve_primes(p_max)[1:]  # every odd prime
    # one byte per odd integer to p_max, as many as the sieve's budgeted flags,
    # keys the columns by the prime, for every instance
    state = np.zeros((p_max + 1) // 2, dtype=np.uint8)
    checked = 0
    falsified = []  # (prime, instance position, verdict)
    for k, inst in enumerate(instances):
        rule = inst._rule
        run_cache = cache or TableCache()  # drops the last one's tables
        for key, limit in limits[k].items():
            run_cache.get(*key, limit)
        ok = np.ones(len(primes), dtype=bool)
        for fails, _ in rule.hypotheses:
            ok &= ~fails(primes)
        held = primes[ok]
        state[held >> 1] = _HELD
        rng = _Range(held, state, run_cache)
        live, suspect = _COLUMNAR[rule.run](inst, rule, rng)
        state[held >> 1] = 0
        checked += int(np.count_nonzero(live & ~suspect))
        for p in held[suspect].tolist():  # the scalar runner decides the rest
            verdict = _evaluate(inst, p, run_cache)
            checked += verdict.status != NOT_APPLICABLE
            if verdict.status == FALSIFIED:
                falsified.append((p, k, verdict))
    return RangeReport(
        case_id=case_id,
        params=params,
        p_max=p_max,
        checked=checked,
        # every odd prime of every instance is checked or skipped
        skipped=len(instances) * len(primes) - checked,
        falsified=tuple(verdict for _, _, verdict in sorted(falsified)),
    )
