"""Verdict machinery: single-prime checks, closed forms, range reports."""

import pickle
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from conftest import oracle_primes
from hypothesis import given, settings
from hypothesis import strategies as st

from etaquad import (
    FALSIFIED,
    HOLDS,
    NOT_APPLICABLE,
    InternalInconsistencyError,
    LambdaParams,
    ResourceLimitError,
    QuadForm,
    TableCache,
    case_arity,
    case_ids,
    case_summary,
    closed_form,
    find_rep,
    gauss_doubling,
    jacobsthal,
    lambda_from_reps,
    lambda_table,
    make_case,
    range_report,
    verify_construction,
    verify_product,
    verify_thm53,
)


def test_case_registry():
    ids = case_ids()
    assert "T3.1" in ids and "E1.6" in ids and "T4.2" in ids and "T5.3" in ids
    with pytest.raises(ValueError):
        make_case("T9.9")
    with pytest.raises(ValueError):
        make_case("T3.1", 1)  # needs both parameters
    with pytest.raises(ValueError):
        make_case("T3.1", 2, 3)  # a must be odd
    with pytest.raises(ValueError):
        make_case("E1.6", 1, 7)  # fixed-parameter case
    with pytest.raises(ValueError):
        make_case("T3.2i", 3, 9)  # not coprime
    with pytest.raises(ValueError):
        make_case("T3.2ii", 3, 8)  # 8 | b
    with pytest.raises(ValueError):
        make_case("T4.2", 1, 1)  # degenerate unit weight
    with pytest.raises(ValueError):
        make_case("T4.3", 1, 3)  # ab = 3
    with pytest.raises(ValueError):
        make_case("T4.3", 3, 5)  # a + b not 4 mod 8


def test_case_rule_built_once():
    # each (case, parameters) builds its rule once; every construction still
    # validates, and a pickled case rebuilds onto the same rule
    for case_id, params in (("T5.3", ()), ("E1.6", ()), ("C3.1", ()), ("T3.1", (1, 3))):
        first, second = make_case(case_id, *params), make_case(case_id, *params)
        assert first == second and first._rule is second._rule
        assert pickle.loads(pickle.dumps(first))._rule is first._rule
    assert make_case("T3.1", 1, 3)._rule is not make_case("T3.1", 1, 5)._rule
    assert make_case("E1.7")._rule is not make_case("C3.1")._rule
    for _ in range(2):
        with pytest.raises(ValueError, match="requires odd a"):
            make_case("T3.1", 2, 3)
    assert verify_thm53(31) == verify_thm53(31)
    e16 = [verify_construction(make_case("E1.6"), p) for p in (11, 11, 13)]
    assert e16[0] == e16[1] and e16[0].status == HOLDS and e16[2].status == NOT_APPLICABLE


def test_verify_construction_examples():
    v = verify_construction(make_case("T3.1", 1, 3), 7)
    assert v.status == HOLDS and v.index == 4 and v.lhs == v.rhs == 2
    assert v.witness == (2, 1)
    assert pickle.loads(pickle.dumps(v)) == v

    v = verify_construction(make_case("E1.6"), 11)
    assert v.status == HOLDS and v.index == 11 and v.lhs == v.rhs == -6

    v = verify_construction(make_case("C3.1"), 5)
    assert v.status == HOLDS and v.index == 2 and v.lhs == v.rhs == -6
    assert v.witness == (1, 2)

    v = verify_construction(make_case("E3.5"), 11)
    assert v.status == HOLDS and v.index == 10 and v.lhs == v.rhs == -10


def test_verify_construction_rejects_bad_primes():
    with pytest.raises(ValueError):
        verify_construction(make_case("E1.6"), 15)
    with pytest.raises(ValueError):
        verify_construction(make_case("E1.6"), 2)
    with pytest.raises(ValueError):
        verify_construction(make_case("T4.1", 1, 2), 11)  # product case


def test_not_applicable_reasons():
    v = verify_construction(make_case("E1.6"), 5)
    assert v.status == NOT_APPLICABLE and "mod 7" in v.reason

    v = verify_construction(make_case("T3.1", 1, 3), 3)
    assert v.status == NOT_APPLICABLE and v.reason == "p equals b"

    v = verify_construction(make_case("C3.1"), 7)
    assert v.status == NOT_APPLICABLE and "mod 4" in v.reason

    v = verify_construction(make_case("T3.2ii", 1, 2), 5)
    assert v.status == NOT_APPLICABLE and "mod 8" in v.reason

    v = verify_construction(make_case("T3.1", 3, 5), 3)
    assert v.status == NOT_APPLICABLE and v.reason == "p equals a"

    v = verify_construction(make_case("T3.1", 1, 5), 3)
    assert v.status == NOT_APPLICABLE and v.reason == "p divides a*b + 1"

    v = verify_construction(make_case("T3.1", 1, 3), 5)
    assert v.status == NOT_APPLICABLE and "no representation" in v.reason

    v = verify_product(make_case("T4.1", 1, 2), 7)
    assert v.status == NOT_APPLICABLE  # 7 != 3 (mod 8)

    v = verify_product(make_case("T4.3", 1, 11), 11)
    assert v.status == NOT_APPLICABLE and v.reason == "p divides a*b"


def test_every_representation_is_checked():
    # primes with several essentially different representations must agree
    # on the evaluated side; sweep a case where swaps occur (a = b = 1)
    for p in (5, 13, 17, 29, 37, 41):
        v = verify_construction(make_case("T3.1", 1, 1), p)
        assert v.status == HOLDS


class _HighTable:
    """A coefficient table that reads one too high everywhere."""

    def __init__(self, table):
        self._table = table

    def value(self, n):
        return self._table.value(n) + 1

    def take(self, indices):
        return self._table.take(indices) + 1


class _HighCache(TableCache):
    """Hands out every table, or only the (a, b) tables named, one too high.

    Every range report reads through get(), the single-prime runners
    through values(), which never calls get(); both are shifted.
    """

    def __init__(self, shifted=None):
        super().__init__()
        self._shifted = shifted

    def _shifts(self, a, b):
        return self._shifted is None or (a, b) in self._shifted

    def get(self, a, b, min_limit):
        table = super().get(a, b, min_limit)
        return _HighTable(table) if self._shifts(a, b) else table

    def values(self, a, b, indices):
        got = super().values(a, b, indices)
        return [v + 1 for v in got] if self._shifts(a, b) else got


def test_falsification_is_reported_not_raised():
    v = verify_construction(make_case("E1.6"), 11, cache=_HighCache())
    assert v.status == FALSIFIED
    assert v.lhs == -6 and v.rhs == -5

    v = verify_product(make_case("T4.1", 1, 2), 11, cache=_HighCache())
    assert v.status == FALSIFIED and not v.holds
    assert (v.witness, v.lhs, v.rhs, v.reason) == ((-3, 1), -3, -2, None)

    report = range_report("E1.6", 30, cache=_HighCache())
    assert len(report.falsified) == report.checked > 0
    assert not report.ok


def test_product_square_recovery_failure(monkeypatch):
    import etaquad.theorems as th

    # x*y still equals the coefficient, but (2x^2 - 11)^2 != 11^2 - 8*3^2
    monkeypatch.setattr(th, "normalized_reps", lambda form, t: [(1, -3)])
    v = verify_product(make_case("T4.1", 1, 2), 11)
    assert v.status == FALSIFIED and v.lhs == v.rhs == -3
    assert v.witness == (1, -3) and v.reason == "square recovery identity failed"


def test_sign_rule_dependence_is_falsified():
    case = make_case("T3.1", 1, 1)
    # a constant sign leaves 4x^2 - 2p depending on which of x^2 + y^2 = 5 is used
    object.__setattr__(case, "_rule", replace(case._rule, sign=lambda x, y: 0))
    v = verify_construction(case, 5)
    assert v.status == FALSIFIED and v.witness == (1, 2) and v.lhs == -6
    assert v.reason == "left side depends on the representation: [-6, 6]"


def test_public_members():
    assert QuadForm(3, 1, 5).evaluate(2, -1) == 12 - 2 + 5
    assert str(make_case("T3.1", 1, 3)) == "T3.1(1,3)"
    assert str(make_case("C3.4", 5)) == "C3.4(5)"
    assert str(make_case("E1.6")) == "E1.6"
    assert verify_construction(make_case("E1.6"), 11).holds
    assert not verify_construction(make_case("E1.6"), 5).holds
    assert case_summary("E1.6") == "p = 1,2,4 (mod 7) = x^2 + 7y^2; 4x^2 - 2p at index p"


def test_verify_product_examples():
    v = verify_product(make_case("T4.1", 1, 2), 11)
    assert v.status == HOLDS and v.witness == (-3, 1) and v.lhs == v.rhs == -3

    v = verify_product(make_case("T4.2", 1, 5), 7)
    assert v.status == HOLDS and v.witness == (-3, 1) and v.lhs == v.rhs == -3

    v = verify_product(make_case("T4.3", 1, 11), 5)
    assert v.status == HOLDS and v.witness == (-3, 1) and v.lhs == v.rhs == -3


def test_product_no_normalized_rep_is_skipped():
    # 31 = 7 (mod 8) but is not represented by 2x^2 + 5y^2 at all
    v = verify_product(make_case("T4.1", 2, 5), 31)
    assert v.status == NOT_APPLICABLE and "no representation" in v.reason
    # residue failure comes first
    v = verify_product(make_case("T4.1", 1, 10), 13)
    assert v.status == NOT_APPLICABLE and "mod 8" in v.reason


@pytest.mark.parametrize(
    "family,n,expected",
    [("L13", 1, -3), ("L17", 6, 0), ("KF", 1, -6), ("L35", 2, 0)],
)
def test_closed_form_examples(family, n, expected):
    assert closed_form(family, n) == expected


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form("L99", 1)
    with pytest.raises(ValueError):
        closed_form("L13", -1)
    with pytest.raises(ValueError):
        closed_form("LEMMA51", 1)  # needs a, b
    with pytest.raises(ValueError):
        closed_form("LEMMA51", 1, 1, 5)  # ab != 3 mod 4
    with pytest.raises(ValueError, match="takes no parameters"):
        closed_form("L13", 5, 3)
    with pytest.raises(ValueError, match="takes no parameters"):
        closed_form("KF", 5, None, 3)


def test_closed_forms_match_tables():
    t13 = lambda_table(LambdaParams(1, 3), 301)
    t17 = lambda_table(LambdaParams(1, 7), 601)
    t35 = lambda_table(LambdaParams(3, 5), 601)
    t115 = lambda_table(LambdaParams(1, 15), 1201)
    t11 = lambda_table(LambdaParams(1, 1), 301)
    for n in range(300):
        assert closed_form("L13", n) == t13.value(n + 1)
        assert closed_form("L17", n) == t17.value(2 * n + 1)
        assert closed_form("L35", n) == t35.value(2 * n + 1)
        assert closed_form("L115", n) == t115.value(4 * n + 1)
        assert closed_form("KF", n) == t11.value(n + 1)


def test_lemma51_enumerates_once(monkeypatch):
    import etaquad.closed as closed

    real, seen = closed.representations, []
    monkeypatch.setattr(closed, "representations", lambda form, m: seen.append(m) or real(form, m))
    for n in (0, 7, 500):
        closed_form("LEMMA51", n, 1, 3)
    # one enumeration of 2n + 1 per value, shared by both sides
    assert seen == [1, 15, 1001]


@pytest.mark.parametrize("a,b", [(1, 3), (1, 7), (1, 11), (1, 15), (3, 5)])
def test_half_sum_identity_two_sided(a, b):
    # the identity is asserted inside closed_form; a raise here is a failure
    for n in range(0, 1001):
        closed_form("LEMMA51", n, a, b)


def test_thm53_examples():
    v = verify_thm53(19)
    assert v.status == HOLDS
    assert v.details == ((19, -22, -22), (38, 0, 0), (57, 0, 0), (95, 0, 0))

    v = verify_thm53(17)
    assert v.status == HOLDS
    assert v.details == ((17, 0, 0), (34, -14, -14), (51, 42, 42), (85, -70, -70))

    v = verify_thm53(7)
    assert v.status == HOLDS
    assert v.details == ((7, 0, 0), (14, 0, 0), (21, 0, 0), (35, 0, 0))

    with pytest.raises(ValueError):
        verify_thm53(5)
    with pytest.raises(ValueError):
        verify_thm53(9)


def test_thm53_falsified_when_table_is_off():
    v = verify_thm53(17, cache=_HighCache())
    assert v.status == FALSIFIED and v.witness == (2, 1) and v.index == 17
    assert v.details == ((17, 0, 1), (34, -14, -13), (51, 42, 43), (85, -70, -69))
    v = verify_thm53(19, cache=_HighCache())
    assert v.status == FALSIFIED and v.witness == (2, 1)
    assert v.details == ((19, -22, -21), (38, 0, 1), (57, 0, 1), (95, 0, 1))


@pytest.mark.parametrize(
    "p,form",
    [(19, "x^2 + 15y^2"), (17, "3x^2 + 5y^2")],
)
def test_thm53_missing_representation(monkeypatch, p, form):
    import etaquad.theorems as th

    monkeypatch.setattr(th, "find_rep", lambda a, b, m: None)
    v = verify_thm53(p)
    assert v.status == FALSIFIED and v.witness is None and v.index == p
    assert v.reason == f"expected representation {form} missing" and v.details == ()


def test_sign_is_representation_independent():
    # recomputing each verdict from every sign variant of its witness
    # must give the same left side
    cases = [
        (make_case("T3.1", 3, 5), lambda x, y, p: (-1) ** ((4 * x + 3) % 2) * (12 * x * x - 2 * p)),
    ]
    for case, lhs in cases:
        for p in oracle_primes(300):
            if p == 2:
                continue
            v = verify_construction(case, p)
            if v.status != HOLDS:
                continue
            x, y = v.witness
            vals = {lhs(sx * x, sy * y, p) for sx in (1, -1) for sy in (1, -1)}
            assert vals == {v.lhs}


def test_consistency_chain():
    # the x found by the representation search agrees with both classical
    # constructions once normalized to x = 1 (mod 4)
    for p in oracle_primes(500):
        if p % 4 != 1:
            continue
        x, y = find_rep(1, 1, p)
        if x % 2 == 0:
            x, y = y, x
        if x % 4 != 1:
            x = -x
        assert (2 * x) % p == gauss_doubling(p)
        assert jacobsthal(p) == -2 * x


@pytest.mark.parametrize(
    "a,b",
    [(1, 3), (1, 5), (3, 5), (5, 7), (7, 9), (1, 9)],
)
def test_table_equalities_direct(a, b):
    # C3.3 without the sign identities, straight from two tables
    cache = TableCache()
    for p in oracle_primes(1000):
        if p == 2:
            continue
        v = verify_construction(make_case("C3.3", a, b), p, cache=cache)
        assert v.status in (HOLDS, NOT_APPLICABLE)
        if v.status == HOLDS:
            assert v.lhs == v.rhs


@pytest.mark.parametrize("a,b", [(1, 2), (1, 6), (3, 2), (5, 4), (7, 6), (9, 10)])
def test_table_equalities_even_direct(a, b):
    cache = TableCache()
    for p in oracle_primes(1000):
        if p == 2:
            continue
        v = verify_construction(make_case("C3.5", a, b), p, cache=cache)
        assert v.status in (HOLDS, NOT_APPLICABLE)


def test_range_report_examples():
    r = range_report("E1.6", 100)
    assert (r.checked, r.skipped, len(r.falsified)) == (9, 15, 0)
    assert r.scanned == 24  # odd primes up to 100

    r = range_report("T3.1", 200, grid=[(a, b) for a in (1, 3, 5) for b in (1, 3, 5)])
    assert len(r.falsified) == 0 and r.checked > 0

    r = range_report("E1.6", 2)
    assert (r.checked, r.skipped) == (0, 0)


def test_range_report_validation():
    with pytest.raises(ValueError):
        range_report("bogus", 100)
    with pytest.raises(ValueError):
        range_report("T3.1", 100)  # grid required
    with pytest.raises(ValueError):
        range_report("E1.6", 100, grid=[(1, 7)])  # no parameters allowed
    with pytest.raises(ValueError):
        range_report("C3.4", 100, grid=[(1, 2)])  # single-parameter case
    with pytest.raises(ValueError, match="p_max must be >= 0"):
        range_report("E1.6", -1)
    with pytest.raises(ValueError, match=r"^case C3.4 takes 1 parameter\(s\), got 2$"):
        range_report("C3.4", 100, grid=[(1,), (1, 3)])
    with pytest.raises(ValueError, match=r"^case T3.1 takes 2 parameter\(s\), got 1$"):
        range_report("T3.1", 100, grid=[(1, 3), (5,)])


def test_range_report_grid_forms():
    empty = range_report("T3.1", 100, grid=[])
    assert (empty.checked, empty.skipped, empty.params) == (0, 0, ())
    # one-parameter cases take bare integers as well as 1-tuples
    assert range_report("C3.4", 100, grid=[1, 3]) == range_report("C3.4", 100, grid=[(1,), (3,)])


def test_range_report_deterministic_and_grid_counts():
    grid = [(1, 3), (3, 1), (1, 5)]
    r1 = range_report("T3.1", 150, grid=grid)
    r2 = range_report("T3.1", 150, grid=list(reversed(grid)))
    assert r1 == r2
    n_primes = len([p for p in oracle_primes(150) if p > 2])
    assert r1.scanned == 3 * n_primes


def test_thm53_range_skips_tiny_primes():
    r = range_report("T5.3", 20)
    # p = 3, 5 skipped; 7, 11, 13, 17, 19 checked
    assert r.checked == 5 and r.skipped == 2 and not r.falsified


def test_table_cache_growth_and_reuse():
    cache = TableCache()
    t1 = cache.get(1, 7, 50)
    t2 = cache.get(7, 1, 30)
    assert t2 is t1  # symmetric key, no rebuild for smaller limits
    t3 = cache.get(1, 7, 200)
    assert t3.limit >= 200
    assert cache.get(1, 7, 100) is t3


_FIXED_CASES = [c for c in case_ids() if case_arity(c) == 0]
_PRIMES_4000 = [p for p in oracle_primes(4000) if p > 5]


@given(
    st.sampled_from(_FIXED_CASES),
    st.integers(min_value=0, max_value=2000),
    st.lists(st.tuples(st.sampled_from(_FIXED_CASES), st.sampled_from(_PRIMES_4000)), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_range_report_cold_equals_warm_cache(case_id, p_max, queries):
    # tables grown by earlier single queries, to limits below or above what
    # the range needs, must not change the report
    warm = TableCache()
    for query_case, p in queries:
        if query_case == "T5.3":
            verify_thm53(p, cache=warm)
        else:
            verify_construction(make_case(query_case), p, cache=warm)
    assert range_report(case_id, p_max, cache=warm) == range_report(
        case_id, p_max, cache=TableCache()
    )


def test_single_prime_verdicts_build_no_table():
    # every fixed case, and a product case, reads through the kernel alone
    cache = TableCache()
    for p in oracle_primes(2000)[1:]:
        for case_id in _FIXED_CASES:
            if case_id != "T5.3":
                verify_construction(make_case(case_id), p, cache)
            elif p > 5:
                verify_thm53(p, cache)
        verify_product(make_case("T4.1", 1, 2), p, cache)
    assert cache._tables == {}


def test_values_slice_a_held_table(monkeypatch):
    import etaquad.theorems as th

    cache = TableCache()
    table = cache.get(1, 7, 1000)
    kernel_reads = []
    kernel = th.lambda_at
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel_reads.append(n) or kernel(params, n))
    assert cache.values(7, 1, [11, 1000]) == table.take([11, 1000]).tolist()
    v = verify_construction(make_case("E1.6"), 991, cache)
    assert v.holds and v.rhs == table.value(991) and kernel_reads == []
    # past the held limit the kernel answers, and the table is not grown
    assert cache.values(1, 7, [1009]) == [lambda_from_reps(LambdaParams(1, 7), 1008)]
    assert kernel_reads == [[1009]] and cache.get(1, 7, 1) is table


def test_e16_past_the_table_wall():
    # a table to index 3e8 is past the table budget; the kernel needs none
    cache = TableCache()
    p = 300000031
    v = verify_construction(make_case("E1.6"), p, cache)
    assert v.holds and v.index == p
    assert v.rhs == lambda_from_reps(LambdaParams(1, 7), p - 1)
    assert cache._tables == {}


def test_kernel_reads_audited_once_per_pair(monkeypatch):
    import etaquad.theorems as th

    kernel = th.lambda_at
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel(params, n) + 1)
    with pytest.raises(InternalInconsistencyError, match="mismatch at index 11 for"):
        TableCache().values(1, 7, [11])
    cache = TableCache()
    monkeypatch.setattr(th, "lambda_at", kernel)
    assert cache.values(1, 7, [11]) == [-6]
    # the first read of (1, 7) was audited; later ones are not
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel(params, n) + 1)
    assert cache.values(7, 1, [11]) == [-5]


def test_table_build_audited_against_recurrence(monkeypatch):
    import etaquad.etaseries as es

    sparse = es._BUILDERS["sparse"]

    def corrupted(params, limit):
        vals = sparse(params, limit)
        vals[2] += 1  # index 3
        return vals

    monkeypatch.setitem(es._BUILDERS, "sparse", corrupted)
    with pytest.raises(InternalInconsistencyError) as exc:
        TableCache().get(1, 7, 500)
    assert str(exc.value) == "sparse/recurrence mismatch at index 3 for LambdaParams(a=1, b=7)"
    monkeypatch.setitem(es._BUILDERS, "sparse", sparse)
    want = lambda_table(LambdaParams(1, 7), 128, "newton").values()
    assert TableCache().get(7, 1, 500).values(1, 128) == want


def test_table_cache_growth_capped_at_budget(monkeypatch):
    import etaquad.etaseries as es
    import etaquad.theorems as th

    monkeypatch.setattr(es, "TABLE_BUDGET_BYTES", 8 * 100)
    monkeypatch.setattr(th, "TABLE_BUDGET_BYTES", 8 * 100)
    cache = TableCache()
    assert cache.get(1, 7, 60).limit == 60
    # doubling to 120 would exceed the budget, but 70 fits: grow to the cap
    assert cache.get(1, 7, 70).limit == 100
    with pytest.raises(ResourceLimitError, match="^table to 101 needs 808 bytes"):
        cache.get(1, 7, 101)


# ---------------------------------------------------------------------------
# the columnar range path against the one-prime loop of _evaluate


def _scalar_report(case_id, p_max, grid=None, cache=None):
    """(checked, skipped, falsified) from one _evaluate call per odd prime and
    instance, in range_report's order."""
    import etaquad.theorems as th

    combos = [()] if grid is None else sorted({tuple(c) for c in grid})
    instances = [make_case(case_id, *combo) for combo in combos]
    cache = cache or TableCache()
    checked = skipped = 0
    falsified = []
    for p in oracle_primes(p_max)[1:]:
        for inst in instances:
            v = th._evaluate(inst, p, cache)
            skipped += v.status == NOT_APPLICABLE
            checked += v.status != NOT_APPLICABLE
            if v.status == FALSIFIED:
                falsified.append(v)
    return checked, skipped, tuple(falsified)


def _admissible(case_id):
    combos = []
    for combo in product(range(1, 16), repeat=case_arity(case_id)):
        try:
            make_case(case_id, *combo)
        except ValueError:
            continue
        combos.append(combo)
    return combos


_ADMISSIBLE = {c: _admissible(c) for c in case_ids() if case_arity(c)}


@st.composite
def _case_and_grid(draw):
    case_id = draw(st.sampled_from(case_ids()))
    if not case_arity(case_id):
        return case_id, None
    return case_id, draw(st.lists(st.sampled_from(_ADMISSIBLE[case_id]), min_size=1, max_size=2))


@given(_case_and_grid(), st.integers(min_value=0, max_value=5000))
@settings(max_examples=60, deadline=None)
def test_range_report_equals_scalar_loop(case_and_grid, p_max):
    case_id, grid = case_and_grid
    report = range_report(case_id, p_max, grid, cache=TableCache())
    want = _scalar_report(case_id, p_max, grid)
    assert (report.checked, report.skipped, report.falsified) == want
    assert type(report.checked) is int and type(report.skipped) is int


@pytest.mark.parametrize(
    "case_id,grid,shifted",
    [
        ("E1.6", None, None),
        ("T4.1", [(1, 2)], None),
        # with both tables one high C3.3's two sides move together and agree
        ("C3.3", [(3, 5)], {(1, 15)}),
        ("T5.3", None, None),
    ],
)
def test_range_report_falsified_under_high_cache(case_id, grid, shifted):
    report = range_report(case_id, 3000, grid, cache=_HighCache(shifted))
    assert report.checked > 0 and len(report.falsified) == report.checked
    want = _scalar_report(case_id, 3000, grid, cache=_HighCache(shifted))
    assert (report.checked, report.skipped, report.falsified) == want


def test_range_fallback_counts_as_scalar_loop(monkeypatch):
    import etaquad.theorems as th

    def all_suspect(cols):
        # the sweep's own live mask, but every prime left to the scalar runner
        def run(*args):
            live, _ = cols(*args)
            return live, np.ones(len(live), dtype=bool)

        return run

    monkeypatch.setattr(th, "_COLUMNAR", {run: all_suspect(c) for run, c in th._COLUMNAR.items()})
    for case_id, grid in [
        ("E1.6", None),
        ("T3.1", [(1, 3), (3, 5)]),
        ("C3.3", [(3, 5)]),
        ("T4.3", [(1, 11)]),
        ("T5.3", None),
    ]:
        report = range_report(case_id, 3000, grid, cache=TableCache())
        assert report.skipped > 0
        want = _scalar_report(case_id, 3000, grid)
        assert (report.checked, report.skipped, report.falsified) == want


@pytest.mark.parametrize(
    "case_id,a,b",
    [
        ("T4.1", 10**20 + 1, 1),
        ("T4.2", 10**20 + 1, 1),
        ("T4.3", 10**20 + 1, 3),
        ("T4.3", 1, 10**20 + 3),
    ],
)
def test_range_multiplier_past_int64(case_id, a, b, capsys):
    from etaquad.cli import main

    # the hypothesis masks and the product sweep meet a + b and a*b past int64
    argv = ["verify", "--case", case_id, "--a", str(a), "--b", str(b), "--p-max", "100"]
    assert main(argv) == 0
    report = range_report(case_id, 100, [(a, b)], cache=TableCache())
    want = _scalar_report(case_id, 100, [(a, b)])
    assert (report.checked, report.skipped, report.falsified) == want
    out = capsys.readouterr().out
    assert f"checked\t{report.checked}\nskipped\t{report.skipped}\nfalsified\t0\n" in out


def _shifted_point(real, at, dy=0, times=1):
    """A sweep that lists its point of value `at` `times` times, with y + dy."""

    def sweep(a, b, t_max, keep):
        t, x, y = real(a, b, t_max, keep)
        i = np.flatnonzero(t == at)
        assert len(i) == 1
        y = y.copy()
        y[i] += dy
        return tuple(np.append(c, [c[i[0]]] * (times - 1)) for c in (t, x, y))

    return sweep


def test_range_repeated_normalized_point_raises(monkeypatch):
    import etaquad.theorems as th

    real_reps = th.normalized_reps
    monkeypatch.setattr(th, "normalized_reps", lambda form, t: 2 * real_reps(form, t))
    with pytest.raises(InternalInconsistencyError) as scalar:
        verify_product(make_case("T4.1", 1, 2), 11)
    monkeypatch.setattr(th, "normalized_reps", real_reps)
    monkeypatch.setattr(th, "lattice_points", _shifted_point(th.lattice_points, 11, times=2))
    with pytest.raises(InternalInconsistencyError) as columnar:
        range_report("T4.1", 100, [(1, 2)])
    want = "normalized representation of 11 by [1, 0, 2] is not unique: [(-3, 1), (-3, 1)]"
    assert str(columnar.value) == str(scalar.value) == want


def test_range_odd_y_raises(monkeypatch):
    import etaquad.theorems as th

    # 11 = 3*1^2 + 2*2^2 is the first prime T3.3(3,2) checks
    real_reps = th.representations
    odd = lambda form, p: replace(real_reps(form, p), pairs=((1, 3),))
    monkeypatch.setattr(th, "representations", odd)
    with pytest.raises(InternalInconsistencyError) as scalar:
        verify_construction(make_case("T3.3", 3, 2), 11)
    monkeypatch.setattr(th, "representations", real_reps)
    monkeypatch.setattr(th, "lattice_points", _shifted_point(th.lattice_points, 11, dy=1))
    with pytest.raises(InternalInconsistencyError) as columnar:
        range_report("T3.3", 100, [(3, 2)])
    want = "odd y in a representation of p=11 for case T3.3(3,2)"
    assert str(columnar.value) == str(scalar.value) == want


def test_thm53_range_class_prime_missing_from_sweep(monkeypatch):
    import etaquad.theorems as th

    want = range_report("T5.3", 500)
    no_points = lambda a, b, t_max, keep: tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    monkeypatch.setattr(th, "lattice_points", no_points)
    # each class prime goes to the scalar runner, whose find_rep still finds it
    assert range_report("T5.3", 500) == want
    monkeypatch.setattr(th, "find_rep", lambda a, b, m: None)
    report = range_report("T5.3", 500)
    assert report.checked == want.checked
    assert [v.p for v in report.falsified] == [
        p for p in oracle_primes(500) if p % 30 in (1, 17, 19, 23)
    ]
    assert {v.reason for v in report.falsified} == {
        "expected representation x^2 + 15y^2 missing",
        "expected representation 3x^2 + 5y^2 missing",
    }
