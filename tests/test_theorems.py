"""Verdict machinery: single-prime checks, closed forms, range reports."""

import pickle
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from conftest import gauss_doubling, jacobsthal, oracle_primes, outcome_of
from hypothesis import given, settings
from hypothesis import strategies as st

from etaquad import (
    FALSIFIED,
    HOLDS,
    NOT_APPLICABLE,
    CoeffTable,
    InternalInconsistencyError,
    LambdaParams,
    ResourceLimitError,
    QuadForm,
    RangeReport,
    TableCache,
    case_arity,
    case_ids,
    closed_form,
    find_rep,
    is_prime,
    lambda_at,
    lambda_from_reps,
    lambda_table,
    make_case,
    range_report,
    representations,
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
    with pytest.raises(ValueError, match="needs a positive parameter b"):
        make_case("T3.1", 1, 0)
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


def test_rule_states_its_sign():
    import etaquad.theorems as th

    # a rule has no default sign, so a square rule that forgets one is not built;
    # exactly the one-read square rules state one, the others pass None
    with pytest.raises(TypeError, match="sign"):
        th._Rule(form=(1, 7), reads=((1, 7, 8),))
    for case_id in case_ids():
        params = _ADMISSIBLE[case_id][0] if case_arity(case_id) else ()
        rule = make_case(case_id, *params)._rule
        square = rule.run is th._run_square and len(rule.reads) == 1
        assert (rule.sign is not None) == square, case_id


def test_case_arity():
    two = {"C3.3", "C3.5", "T3.1", "T3.2i", "T3.2ii", "T3.3", "T4.1", "T4.2", "T4.3"}
    want = {c: 2 if c in two else 1 if c == "C3.4" else 0 for c in case_ids()}
    assert len(want) == 22 and sum(v == 0 for v in want.values()) == 12
    assert {c: case_arity(c) for c in case_ids()} == want


def test_unknown_case_id_is_a_value_error():
    for lookup in (case_arity, make_case):
        with pytest.raises(ValueError, match=r"^unknown case 'X9'; known: C3\.1, "):
            lookup("X9")


@pytest.mark.parametrize(
    "case_id, theorem, pair, checked, skipped",
    [
        ("C3.1", "T3.1", (1, 1), 4783, 4808),
        ("E1.6", "T3.1", (1, 7), 4777, 4814),
        ("E1.8", "T3.1", (1, 3), 4784, 4807),
        ("C3.2", "T3.1", (1, 5), 2371, 7220),
        ("E3.1", "T3.2ii", (1, 2), 2384, 7207),
        ("E3.2", "T3.2ii", (1, 6), 1181, 8410),
        ("E3.3", "T3.2ii", (1, 10), 1173, 8418),
        ("E3.4", "T3.2ii", (1, 12), 1181, 8410),
        ("E3.5", "T3.3", (3, 2), 1203, 8388),
        ("E3.6", "T3.3", (5, 2), 1200, 8391),
    ],
)
def test_fixed_case_checks_its_theorems_primes(case_id, theorem, pair, checked, skipped):
    # each fixed square case is its theorem at one pair, restricted to a
    # residue class (none for E3.1) that holds exactly the primes the theorem
    # checks there
    fixed = range_report(case_id, 10**5)
    general = range_report(theorem, 10**5, grid=[pair])
    assert (fixed.checked, fixed.skipped, fixed.falsified) == (checked, skipped, ())
    assert (general.checked, general.skipped, general.falsified) == (checked, skipped, ())


def test_case_parameters_are_python_ints():
    for a, b in ((np.int64(3), np.int64(5)), (3, np.int32(5))):
        case = make_case("T3.1", a, b)
        assert case == make_case("T3.1", int(a), int(b))
        assert type(case.a) is int and type(case.b) is int
    assert verify_construction(make_case("T3.1", np.int64(3), np.int64(5)), 17).holds
    # the product a*b past int64 stays exact rather than wrapping
    big = make_case("T4.1", np.int64(2**62 + 1), np.int64(3))
    assert big.a * big.b == 3 * 2**62 + 3
    for case_id, a, b in (("T3.1", 3.0, 5.0), ("T3.1", 3, "5"), ("C3.4", 1.5, None)):
        with pytest.raises(ValueError, match=f"^case {case_id} needs integer parameters"):
            make_case(case_id, a, b)
    numpy_grid = range_report("C3.4", 100, grid=np.array([1, 3]), cache=TableCache())
    assert numpy_grid == range_report("C3.4", 100, grid=[1, 3], cache=TableCache())
    assert numpy_grid.params == ((1,), (3,))
    pairs = range_report("T3.1", 100, grid=np.array([[1, 3], [3, 5]]), cache=TableCache())
    assert pairs == range_report("T3.1", 100, grid=[(1, 3), (3, 5)], cache=TableCache())


def test_numpy_and_non_integer_arguments_at_the_boundary():
    # numpy integers are taken as Python ints where they enter, so no product
    # wraps, and a non-integer multiplier is refused
    rep = find_rep(np.int64(1), np.int64(1), np.int64(2**62 + 1))
    assert rep == (1, 2**31) and all(type(v) is int for v in rep)
    with pytest.raises(ResourceLimitError, match="exact-float ceiling"):
        lambda_at(LambdaParams(np.int64(2**62), np.int64(2**62)), [1])
    pairs = representations(QuadForm(np.int64(1), 0, np.int64(1)), 25).pairs
    assert pairs == representations(QuadForm(1, 0, 1), 25).pairs
    assert len(pairs) == 12 and all(type(v) is int for pair in pairs for v in pair)
    with pytest.raises(ValueError, match="factor multipliers must be integers"):
        LambdaParams(1.5, 2)
    with pytest.raises(ResourceLimitError, match="budget is"):
        lambda_table(LambdaParams(1, 1), np.int64(2**61))
    assert is_prime(np.int64(2**61 - 1))


def _fields_are_python_ints(value):
    # no numpy integer anywhere in a verdict's fields, nested tuples included
    if isinstance(value, tuple):
        return all(_fields_are_python_ints(v) for v in value)
    return not isinstance(value, np.generic)


def test_numpy_prime_gives_the_python_int_result():
    # p is taken as a Python int where it enters, so m*p at a read cannot
    # wrap in int64: past lambda_at's ceiling both types raise its error
    runs = [
        lambda p: verify_thm53(p),
        lambda p: verify_construction(make_case("T3.1", 1, 3), p),
        lambda p: verify_product(make_case("T4.1", 1, 2), p),
    ]
    for run in runs[:2]:
        raised = []
        for p in (10**18 + 3, np.int64(10**18 + 3)):
            with pytest.raises(ResourceLimitError, match="exact-float ceiling") as info:
                run(p)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
    for run, p in zip(runs, (13, 37, 19)):  # a prime where each holds
        v = run(np.int64(p))
        assert v == run(p) and v.status == HOLDS
        assert _fields_are_python_ints(tuple(getattr(v, f.name) for f in fields(v)))


@pytest.mark.parametrize(
    "call, args",
    [
        (lambda_from_reps, (LambdaParams(1, 1), 2**61)),  # 8n wraps to 0 in int64
        (lambda_from_reps, (LambdaParams(1, 7), 10)),
        (closed_form, ("KF", 2**62)),  # 4n + 1 wraps to 1
        (closed_form, ("L13", 2**62 + 5)),  # 2n + 1 wraps negative
        (closed_form, ("L17", 10)),
        (closed_form, ("LEMMA51", 0, 3, 2**62 + 1)),  # a*b wraps negative
        (closed_form, ("LEMMA51", 2**62, 3, 1)),
        (closed_form, ("LEMMA51", 10, 1, 3)),
    ],
)
def test_numpy_index_gives_the_python_int_result(call, args):
    # n, a and b are taken as Python ints where they enter, so no product wraps
    as_numpy = [np.int64(v) if type(v) is int else v for v in args]
    want = outcome_of(lambda: call(*args))
    got = outcome_of(lambda: call(*as_numpy))
    assert got == want
    assert type(got) is (tuple if isinstance(want, tuple) else int)


def test_non_integer_indices_are_refused():
    # int() would truncate 11.5 to 11 and read lambda(1, 7; 11) = -6
    params = LambdaParams(1, 7)
    table = lambda_table(params, 20)
    held = TableCache()
    held.get(1, 7, 20)
    for bad in ([11.5], [3, 11.5], np.array([11.9]), np.array([3.0, 11.0])):
        with pytest.raises(ValueError, match="^indices must be integers, got "):
            lambda_at(params, bad)
        with pytest.raises(IndexError, match="^table indices must be integers, got dtype float64$"):
            table.take(bad)
        # the same error whether the cache would slice a table or call the kernel
        raised = [outcome_of(lambda: cache.values(1, 7, bad)) for cache in (TableCache(), held)]
        assert raised[0] == raised[1] == outcome_of(lambda: lambda_at(params, bad))
    want = [-6, table.value(3)]
    for good in ([11, 3], np.array([11, 3]), np.array([11, 3], dtype=np.uint8)):
        assert lambda_at(params, good).tolist() == want
        assert table.take(good).tolist() == want
        assert TableCache().values(1, 7, good).tolist() == want
        assert held.values(1, 7, good).tolist() == want
    assert TableCache().values(1, 7, np.array([11, 3], dtype=object)).tolist() == want
    assert table.take(np.zeros(0)).dtype == np.int64


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


class _HighCache(TableCache):
    """Reads every coefficient, or only those of the (a, b) tables named, one
    too high.  The range and single-prime runners both read through values().
    """

    def __init__(self, shifted=None):
        super().__init__()
        self._shifted = shifted

    def values(self, a, b, indices):
        got = super().values(a, b, indices)
        return got + 1 if self._shifted is None or (a, b) in self._shifted else got


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


def test_sign_rule_dependence_is_falsified(monkeypatch):
    import etaquad.theorems as th

    # a constant sign leaves 4x^2 - 2p depending on which of x^2 + y^2 = 5 is used
    real_rule = th._built_rule
    unsigned = lambda case_id, params: replace(real_rule(case_id, params), sign=lambda x, y: 0)
    monkeypatch.setattr(th, "_built_rule", unsigned)
    v = verify_construction(make_case("T3.1", 1, 1), 5)
    assert v.status == FALSIFIED and v.witness == (1, 2) and v.lhs == -6
    assert v.reason == "left side depends on the representation: [-6, 6]"


def test_public_members():
    assert QuadForm(3, 1, 5).evaluate(2, -1) == 12 - 2 + 5
    assert str(make_case("T3.1", 1, 3)) == "T3.1(1,3)"
    assert str(make_case("C3.4", 5)) == "C3.4(5)"
    assert str(make_case("E1.6")) == "E1.6"
    assert verify_construction(make_case("E1.6"), 11).holds
    assert not verify_construction(make_case("E1.6"), 5).holds


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


def test_lemma51_sides_that_differ_raise(monkeypatch):
    import etaquad.closed as closed

    # the right side one off: at m = 9, (a, b) = (1, 3) both sides are 9
    real = closed._half_sum
    monkeypatch.setattr(closed, "_half_sum", lambda *args, **kw: real(*args, **kw) + 1)
    want = r"^half-sum identity fails at m=9, \(a,b\)=\(1,3\): 9 != 10$"
    with pytest.raises(InternalInconsistencyError, match=want):
        closed_form("LEMMA51", 4, 1, 3)


def test_half_sum_of_an_odd_full_sum_raises(monkeypatch):
    import etaquad.closed as closed

    # an extra point (1, 0) adds 1 to the full sum over x^2 + 3y^2 = 3, which is -6
    real = closed.representations
    monkeypatch.setattr(
        closed,
        "representations",
        lambda form, m: replace(real(form, m), pairs=(*real(form, m).pairs, (1, 0))),
    )
    with pytest.raises(InternalInconsistencyError, match="^odd full sum -5 for D=3, m=3$"):
        closed_form("L13", 1)


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
    st.integers(min_value=0, max_value=4000),
    st.lists(st.tuples(st.sampled_from(_FIXED_CASES), st.sampled_from(_PRIMES_4000)), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_range_report_cold_equals_warm_cache(case_id, p_max, warm_p_max, queries):
    # tables an earlier range presized, to limits below or above what this
    # range needs, and the kernel audits of later single queries must not
    # change the report
    warm = TableCache()
    range_report(case_id, warm_p_max, cache=warm)
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


def test_default_range_releases_its_tables():
    # a range given no cache makes its own, so the (3,5) table it builds to
    # index 5*10^5 (about 4 MB) is gone once the report is returned
    import gc
    import tracemalloc

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert range_report("T5.3", 10**5).ok
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_default_grid_range_holds_one_instance_tables_at_a_time():
    # a grid given no cache gives each instance its own, so the peak is about
    # the largest instance's tables ((15,15): about 2.2 MB at 10^4), not the
    # sum over all 36 instances (about 24 MB)
    import tracemalloc

    def peak(grid):
        tracemalloc.start()
        try:
            assert range_report("T3.1", 10**4, grid).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    odd_pairs = [(a, b) for a in range(1, 16, 2) for b in range(a, 16, 2)]
    assert peak(odd_pairs) < 2 * peak([(15, 15)])


def test_uncached_verdict_reads_alike_after_a_range(monkeypatch):
    import etaquad.theorems as th

    # a one-prime verdict given no cache reads through the kernel whatever ran
    # before it, even a range whose table covered its index
    kernel_reads = []
    kernel = th.lambda_at
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel_reads.append(n) or kernel(params, n))
    p = 9949  # the largest prime below 10^4 that is 1, 2 or 4 (mod 7)
    alone = verify_construction(make_case("E1.6"), p)
    reads_alone = len(kernel_reads)
    range_report("E1.6", 10**4)
    after = verify_construction(make_case("E1.6"), p)
    assert alone == after and alone.holds
    assert reads_alone == len(kernel_reads) - reads_alone == 1


def test_values_slice_a_held_table(monkeypatch):
    import etaquad.theorems as th

    cache = TableCache()
    table = cache.get(1, 7, 1000)
    kernel_reads = []
    kernel = th.lambda_at
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel_reads.append(n) or kernel(params, n))
    assert cache.values(7, 1, [11, 1000]).tolist() == table.take([11, 1000]).tolist()
    v = verify_construction(make_case("E1.6"), 991, cache)
    assert v.holds and v.rhs == table.value(991) and kernel_reads == []
    # past the held limit the kernel answers, and the table is not grown
    assert cache.values(1, 7, [1009]).tolist() == [lambda_from_reps(LambdaParams(1, 7), 1008)]
    assert kernel_reads == [[1009]] and cache.get(1, 7, 1) is table
    # an array read that runs past it goes to the kernel whole
    want = [table.value(11), lambda_from_reps(LambdaParams(1, 7), 1008)]
    assert cache.values(7, 1, np.array([11, 1009])).tolist() == want
    assert len(kernel_reads) == 2 and cache.get(1, 7, 1) is table
    # a covered uint8 read is sliced like an int64 one
    covered = table.take([11, 200]).tolist()
    assert cache.values(1, 7, np.array([11, 200], dtype=np.uint8)).tolist() == covered
    assert len(kernel_reads) == 2
    # an object-dtype read goes to the kernel, which gives the table's values,
    # and is audited as the pair's first kernel read
    audited = []
    monkeypatch.setattr(
        th, "lambda_from_reps", lambda params, n: audited.append(n) or lambda_from_reps(params, n)
    )
    held = TableCache()
    held.get(1, 7, 1000)
    for _ in range(2):
        assert held.values(7, 1, np.array([11, 200], dtype=object)).tolist() == covered
    assert len(kernel_reads) == 4 and audited == [10, 199]


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
    assert cache.values(1, 7, [11]).tolist() == [-6]
    # the first read of (1, 7) was audited; later ones are not
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel(params, n) + 1)
    assert cache.values(7, 1, [11]).tolist() == [-5]


def _no_kernel(params, indices):
    raise AssertionError(f"lattice kernel read {params} at {indices}")


def test_values_empty_read(monkeypatch):
    import etaquad.theorems as th

    # an empty read builds nothing, calls no kernel and marks nothing audited
    kernel = th.lambda_at
    monkeypatch.setattr(th, "lambda_at", _no_kernel)
    cache = TableCache()
    for empty in ([], np.zeros(0, dtype=np.int64)):
        got = cache.values(1, 7, empty)
        assert got.dtype == np.int64 and got.tolist() == []
    assert cache._tables == {}
    # so the first real read of (1, 7) is still audited
    monkeypatch.setattr(th, "lambda_at", lambda params, n: kernel(params, n) + 1)
    with pytest.raises(InternalInconsistencyError, match="mismatch at index 11 for"):
        cache.values(1, 7, [11])
    # with a table held, an empty read slices nothing
    monkeypatch.setattr(th, "lambda_at", _no_kernel)
    table = cache.get(1, 7, 100)
    for empty in ([], np.zeros(0, dtype=np.int64)):
        got = cache.values(7, 1, empty)
        assert got.dtype == np.int64 and got.tolist() == []
    assert cache.get(1, 7, 1) is table


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


def _corrupting(monkeypatch, at, delta):
    """Make every sparse build come out `delta` off at index `at`."""
    import etaquad.etaseries as es

    sparse = es._BUILDERS["sparse"]

    def corrupted(params, limit):
        vals = sparse(params, limit)
        vals[at - 1] += delta
        return vals

    monkeypatch.setitem(es._BUILDERS, "sparse", corrupted)


@pytest.mark.parametrize(
    "a, b, limit, at",
    [
        (1, 7, 500, 2),
        (1, 7, 500, 3),
        (1, 7, 500, 64),
        (1, 7, 500, 128),  # the last index audited
        (3, 5, 50, 50),  # a table shorter than the audited prefix, at its last entry
        (3, 3, 500, 17),  # a = b
        (1, 10**20 + 1, 500, 40),  # a multiplier past int64
    ],
)
@pytest.mark.parametrize("delta", [1, -(2**62)])  # the second takes the residual past int64
def test_table_audit_names_the_corrupted_index(monkeypatch, a, b, limit, at, delta):
    _corrupting(monkeypatch, at, delta)
    with pytest.raises(InternalInconsistencyError) as exc:
        TableCache().get(a, b, limit)
    assert str(exc.value) == f"sparse/recurrence mismatch at index {at} for {LambdaParams(a, b)}"


def test_table_audit_covers_the_first_128_entries(monkeypatch):
    want = lambda_table(LambdaParams(1, 7), 129).value(129) + 1
    _corrupting(monkeypatch, 129, 1)
    assert TableCache().get(1, 7, 500).value(129) == want


def test_recurrence_check_in_python_ints_agrees(monkeypatch):
    import etaquad.etaseries as es

    tables = [
        lambda_table(LambdaParams(a, b), limit)
        for a, b, limit in ((1, 1, 128), (1, 7, 500), (3, 3, 60), (2, 10**20, 128))
    ]

    def breaks():
        out = []
        for table in tables:
            prefix = table.take(np.arange(1, min(table.limit, 128) + 1))
            out.append(es._recurrence_break(table.params, prefix))
            for at in (1, 2, len(prefix)):
                bad = prefix.copy()
                bad[at - 1] -= 5
                out.append(es._recurrence_break(table.params, bad))
        return out

    dtypes = []
    real = np.convolve
    monkeypatch.setattr(np, "convolve", lambda c, v: dtypes.append(c.dtype) or real(c, v))
    want = breaks()
    assert want == [None, 1, 2, 128, None, 1, 2, 128, None, 1, 2, 60, None, 1, 2, 128]
    assert set(dtypes) == {np.dtype(np.int64)}
    dtypes.clear()
    monkeypatch.setattr(es, "_INT64_SAFE", 0)  # every residual in Python ints
    assert breaks() == want
    assert set(dtypes) == {np.dtype(object)}


def test_table_cache_growth_capped_at_budget(monkeypatch):
    import etaquad.etaseries as es

    monkeypatch.setattr(es, "TABLE_BUDGET_BYTES", 8 * 100)
    cache = TableCache()
    assert cache.get(1, 7, 60).limit == 60
    # a longer limit builds exactly that far, with no headroom past it
    assert cache.get(1, 7, 70).limit == 70
    assert cache.get(1, 7, 100).limit == 100
    with pytest.raises(ResourceLimitError, match="^table to 101 needs 808 bytes"):
        cache.get(1, 7, 101)
    assert cache.get(7, 1, 1).limit == 100


@pytest.mark.parametrize("bad, got", [([0], 0), (np.array([-3]), -3)])
def test_values_rejects_an_index_below_one(bad, got):
    # the same ValueError whether the kernel or a held table would answer
    cache = TableCache()
    want = f"^indices must be >= 1, got {got}$"
    with pytest.raises(ValueError, match=want):
        cache.values(1, 7, bad)
    cache.get(1, 7, 100)
    with pytest.raises(ValueError, match=want):
        cache.values(7, 1, bad)


@pytest.mark.parametrize("p", [31, 37])  # 31 = 1 (mod 30) is a class prime, 37 is not
def test_thm53_reads_its_four_indices_at_once(p):
    class CountingValues(TableCache):
        def values(self, a, b, indices):
            calls.append((a, b, list(indices)))
            return super().values(a, b, indices)

    calls = []
    assert verify_thm53(p, CountingValues()).holds
    assert calls == [(3, 5, [p, 2 * p, 3 * p, 5 * p])]


def test_one_prime_past_last_primality_bound_hits_the_budget():
    # 10^40 + 121 is prime; past 3.3e24 is_prime cannot prove it, so the
    # verdict stops at the budget at once instead of trial division to 10^20
    p = 10**40 + 121
    want = rf"^is_prime\({p}\): a probable prime past 3317044064679887385961981,"
    with pytest.raises(ResourceLimitError, match=want):
        verify_construction(make_case("E1.6"), p)
    with pytest.raises(ResourceLimitError, match="a probable prime past"):
        verify_thm53(p)


def test_thm53_reads_before_its_representation_search(monkeypatch):
    import etaquad.theorems as th

    # 10^20 + 547 = 17 (mod 30) is prime; its read at 5p is past lambda_at's
    # 2^52 ceiling, which must raise before find_rep starts: the scalar runner
    # reads first, as the columnar one does (find_rep at this prime is polylog)
    p = 10**20 + 547
    assert is_prime(p) and p % 30 == 17
    monkeypatch.setattr(th, "find_rep", lambda *args: pytest.fail(f"find_rep{args} ran"))
    with pytest.raises(ResourceLimitError, match="past the exact-float ceiling 2\\^52"):
        verify_thm53(p)


@pytest.mark.parametrize(
    "case,in_class,verify",
    [
        (("E1.6",), lambda p: p % 7 in (1, 2, 4), verify_construction),
        (("C3.1",), lambda p: p % 4 == 1, verify_construction),
        (("T4.1", 1, 2), lambda p: p % 8 == 3, verify_product),
    ],
    ids=["E1.6", "C3.1", "T4.1(1,2)"],
)
def test_one_prime_verdicts_past_the_ceiling_raise_without_a_scan(case, in_class, verify, monkeypatch):
    from etaquad import quadform

    # the first prime above 10^18 in the case's class has a representation, found
    # by Cornacchia's algorithm, so the read past lambda_at's 2^52 ceiling raises
    # at once; an O(sqrt p) scan before it would take about a second
    p = next(p for p in range(10**18 + 1, 10**18 + 10**4, 2) if in_class(p) and is_prime(p))
    monkeypatch.setattr(quadform, "_scan", lambda *args: pytest.fail(f"_scan{args} ran"))
    with pytest.raises(ResourceLimitError, match="^lambda_at at index .* ceiling 2\\^52"):
        verify(make_case(*case), p)


# ---------------------------------------------------------------------------
# the columnar range path against the one-prime loop of _evaluate


def _scalar_report(case_id, p_max, grid=None, cache=None):
    """(checked, skipped, falsified) from one _evaluate call per instance and
    odd prime, instance-major, so it raises the first fault in (instance,
    prime) order; falsified verdicts in the one-prime loop's order."""
    import etaquad.theorems as th

    combos = [()] if grid is None else sorted({tuple(c) for c in grid})
    instances = [make_case(case_id, *combo) for combo in combos]
    primes = oracle_primes(p_max)[1:]
    cache = cache or TableCache()
    checked = skipped = 0
    falsified = []
    for k, inst in enumerate(instances):
        for p in primes:
            v = th._evaluate(inst, p, cache)
            skipped += v.status == NOT_APPLICABLE
            checked += v.status != NOT_APPLICABLE
            if v.status == FALSIFIED:
                falsified.append((p, k, v))
    return checked, skipped, tuple(v for _, _, v in sorted(falsified))


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


@pytest.mark.parametrize("case_id", case_ids())
def test_range_report_makes_no_kernel_read(monkeypatch, case_id):
    import etaquad.theorems as th

    # presizing alone keeps every range read, the scalar runner's included,
    # on a held table rather than a silent fall back to the lattice kernel
    grid = _ADMISSIBLE[case_id][:1] if case_arity(case_id) else None
    p_maxes = (0, 2, 3, 5, 12, 2000)
    want = [range_report(case_id, p_max, grid, cache=TableCache()) for p_max in p_maxes]
    monkeypatch.setattr(th, "lambda_at", _no_kernel)
    got = [range_report(case_id, p_max, grid, cache=TableCache()) for p_max in p_maxes]
    assert got == want


@pytest.mark.parametrize("case_id", case_ids())
def test_range_without_odd_prime_sieves_and_builds_nothing(monkeypatch, case_id):
    import etaquad.theorems as th

    # T3.1's tables for (2^40 + 1, 2^40 + 3) are past the table budget from p_max 3 on
    big = [(2**40 + 1, 2**40 + 3)]
    grids = [_ADMISSIBLE[case_id][:2] if case_arity(case_id) else None]
    grids += [big] if case_id == "T3.1" else []
    monkeypatch.setattr(th, "sieve_primes", lambda limit: pytest.fail(f"sieve to {limit}"))
    monkeypatch.setattr(TableCache, "get", lambda self, *key: pytest.fail(f"table {key}"))
    for grid, p_max in product(grids, (0, 1, 2)):
        report = range_report(case_id, p_max, grid)
        assert (report.checked, report.skipped, report.falsified) == (0, 0, ())
    if case_arity(case_id):  # an empty grid has no instance, whatever p_max
        report = range_report(case_id, 2**28, [])
        assert (report.params, report.checked, report.skipped, report.falsified) == ((), 0, 0, ())
    monkeypatch.undo()
    if case_id == "T3.1":
        with pytest.raises(ResourceLimitError, match="budget"):
            range_report(case_id, 3, big)


def test_range_checks_every_table_before_the_sieve(monkeypatch):
    import etaquad.theorems as th

    # the second instance's table is past the budget: nothing is sieved or built
    monkeypatch.setattr(th, "sieve_primes", lambda limit: pytest.fail(f"sieve to {limit}"))
    monkeypatch.setattr(TableCache, "get", lambda self, *key: pytest.fail(f"table {key}"))
    with pytest.raises(ResourceLimitError, match="^table to .* budget is 2147483648$"):
        range_report("T3.1", 3, [(1, 3), (2**40 + 1, 2**40 + 3)])


def test_divides_past_int64_at_the_sieve_wall():
    from etaquad.arith import SIEVE_BUDGET_BYTES

    import etaquad.theorems as th

    # the sieve's budget admits primes up to 2*budget = 2^29 and no further, and
    # _divides reads T3.1's a*b + 1 past 2^63 in limbs at those primes
    wall = 2 * SIEVE_BUDGET_BYTES
    with pytest.raises(ResourceLimitError, match="sieve to"):
        th.sieve_primes(wall + 1)
    primes = [p for p in range(wall - 1, wall - 2000, -2) if is_prime(p)][:6]
    assert len(primes) == 6
    a = 2**40 + 1
    values = [a * (2**40 + 3) + 1]
    for p in primes:
        # b near 2^40 and odd with p | a*b + 1
        b = 2**40 + (-pow(a, -1, p) - 2**40) % p
        values.append(a * (b + p * (b % 2 == 0)) + 1)
    for value in values:
        assert value > 2**63
        fails, _ = th._divides(value, "a*b + 1")
        want = [value % p == 0 for p in primes]
        assert fails(np.array(primes, dtype=np.int64)).tolist() == want
        assert [bool(fails(p)) for p in primes] == want
    assert sum(any(value % p == 0 for p in primes) for value in values) == len(primes)


@given(_case_and_grid(), st.integers(min_value=0, max_value=5000))
@settings(max_examples=60, deadline=None)
def test_range_report_equals_scalar_loop(case_and_grid, p_max):
    case_id, grid = case_and_grid
    report = range_report(case_id, p_max, grid, cache=TableCache())
    want = _scalar_report(case_id, p_max, grid)
    assert (report.checked, report.skipped, report.falsified) == want
    assert type(report.checked) is int and type(report.skipped) is int


@pytest.mark.parametrize("p_max", [3, 4, 5, 7, 11, 97, 1009, 1010])
def test_fixed_cases_equal_scalar_loop_up_to_the_last_integer(p_max):
    # the state's last entry is p_max's largest odd integer, a prime in every case here
    # (1009 for p_max 1010), so a prime sits on the last entry
    for case_id in case_ids():
        if case_arity(case_id) == 0:
            report = range_report(case_id, p_max)
            got = (report.checked, report.skipped, report.falsified)
            assert got == _scalar_report(case_id, p_max), case_id


class _NegatedCache(TableCache):
    """Reads every coefficient negated: a product read gives L = -x*y, where
    the square recovery still holds and only x*y = L fails."""

    def values(self, a, b, indices):
        return -super().values(a, b, indices)


@pytest.mark.parametrize(
    "case_id,grid,cache",
    [
        ("E1.6", None, _HighCache),
        ("T4.1", [(1, 2)], _HighCache),
        # with both tables one high C3.3's two sides move together and agree
        ("C3.3", [(3, 5)], lambda: _HighCache({(1, 15)})),
        ("T5.3", None, _HighCache),
        ("T4.1", [(1, 2)], _NegatedCache),
        ("T4.2", [(1, 5)], _NegatedCache),
        ("T4.3", [(1, 11)], _NegatedCache),
    ],
    ids=[
        "E1.6-high",
        "T4.1-high",
        "C3.3-high-1-15",
        "T5.3-high",
        "T4.1-negated",
        "T4.2-negated",
        "T4.3-negated",
    ],
)
def test_range_report_falsified_under_high_cache(case_id, grid, cache):
    report = range_report(case_id, 3000, grid, cache=cache())
    assert report.checked > 0 and len(report.falsified) == report.checked
    assert all(v.reason != "square recovery identity failed" for v in report.falsified)
    want = _scalar_report(case_id, 3000, grid, cache=cache())
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


@pytest.mark.parametrize("case_id", case_ids())
def test_holding_range_leaves_no_prime_to_the_scalar_runner(monkeypatch, case_id):
    import etaquad.theorems as th

    # where the identity holds, the columns settle every prime themselves
    monkeypatch.setattr(th, "_evaluate", lambda inst, p, cache: pytest.fail(f"{inst} at {p}"))
    grid = _ADMISSIBLE[case_id][:2] if case_arity(case_id) else None
    report = range_report(case_id, 3000, grid, cache=TableCache())
    assert report.ok and report.checked > 0


@pytest.mark.parametrize(
    "case_id,a,b",
    [
        ("T4.1", 10**20 + 1, 1),
        ("T4.2", 10**20 + 1, 1),
        ("T4.3", 10**20 + 1, 3),
        ("T4.3", 1, 10**20 + 3),
        # a + b lies between m*97 and m*100: the sweep runs to m*p_max = m*100
        ("T4.1", 1, 99),
        ("T4.3", 1, 395),
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

    def sweep(a, b, t_max, keep, *classes):
        t, x, y = real(a, b, t_max, keep, *classes)
        i = np.flatnonzero(t == at)
        assert len(i) == 1
        y = y.copy()
        y[i] += dy
        return tuple(np.append(c, np.repeat(c[i], times - 1)) for c in (t, x, y))

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


def test_off_lattice_index_raises(monkeypatch):
    import etaquad.theorems as th

    # 9p - 8 = p (mod 8) is odd, so a read at t = 9p never has an exact index
    real_rule = th._built_rule
    off = lambda case_id, params: replace(real_rule(case_id, params), reads=((1, 7, 9),))
    monkeypatch.setattr(th, "_built_rule", off)
    with pytest.raises(InternalInconsistencyError) as scalar:
        verify_construction(make_case("E1.6"), 11)
    with pytest.raises(InternalInconsistencyError) as columnar:
        range_report("E1.6", 100)
    want = "index numerator m*p - ta - tb = 9*11 - 1 - 7 is not divisible by 8"
    assert str(columnar.value) == str(scalar.value) == want


def test_range_tries_every_sign_variant(monkeypatch):
    import etaquad.theorems as th

    # the sign of x flips the left side, so every checked prime is falsified,
    # which a range check must see from the sweep's points with x >= 0 alone
    real_rule = th._built_rule
    by_x = lambda case_id, params: replace(real_rule(case_id, params), sign=lambda x, y: x < 0)
    monkeypatch.setattr(th, "_built_rule", by_x)
    report = range_report("E1.6", 200, cache=TableCache())
    assert (report.checked, report.skipped, report.falsified) == _scalar_report("E1.6", 200)
    assert report.checked > 0 and len(report.falsified) == report.checked


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
    no_points = lambda a, b, t_max, keep, *classes: tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
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


def test_thm53_range_reads_each_coefficient_once(monkeypatch):
    import etaquad.theorems as th

    taken, marks = [], []
    real_take, real_marks = CoeffTable.take, th._Range.marks
    monkeypatch.setattr(CoeffTable, "take", lambda self, i: taken.append(i) or real_take(self, i))
    monkeypatch.setattr(th._Range, "marks", lambda *args: marks.append(1) or real_marks(*args))
    report = range_report("T5.3", 10_007)
    held = np.array([p for p in oracle_primes(10_007) if p > 5])
    # the index of m*p in the (3, 5) table, p for m = 8 up to 5p for m = 40; no two
    # reads share an index, so the sorted indices show each (prime, read) pair
    want = np.sort(np.concatenate([(m * held - 8) // 8 + 1 for m in (8, 16, 24, 40)]))
    assert len(np.unique(want)) == len(want) == 4 * report.checked == 4908
    assert np.array_equal(np.sort(np.concatenate(taken)), want)
    assert len(marks) == 1


@pytest.mark.parametrize("case_id", case_ids())
def test_every_column_marks_once(monkeypatch, case_id):
    import etaquad.theorems as th

    # marks leaves its levels in the state until range_report clears it after the
    # instance, so a sweep or a second marks call after the first would read them
    marks = []
    real_marks = th._Range.marks
    monkeypatch.setattr(th._Range, "marks", lambda *args: marks.append(1) or real_marks(*args))
    grid = _ADMISSIBLE[case_id][:1] if case_arity(case_id) else None
    range_report(case_id, 3001, grid)
    assert len(marks) == 1


def test_thm53_range_equals_instance_major_loop_on_mutated_classes(monkeypatch):
    import etaquad.theorems as th

    ((one, *rule_one), (two, *rule_two)) = classes = th._THM53_CLASSES
    # the one-pass columns put each held prime in one group, so no residue is in two classes
    assert not np.any(one & two)
    one_form, one_label, one_mults = rule_one
    two_form, two_label, two_mults = rule_two
    residues = lambda *rs: np.isin(np.arange(30), rs)
    mutants = {
        "a multiplier's sign": (classes[0], (two, two_form, two_label, (0, 1, 3, -5))),
        "19 off its class": ((residues(1), *rule_one), classes[1]),
        "29 in the (17, 23) class": (classes[0], (residues(17, 23, 29), *rule_two)),
        "forms swapped": (
            (one, two_form, two_label, one_mults),
            (two, one_form, one_label, two_mults),
        ),
        "residue sets swapped": ((two, *rule_one), (one, *rule_two)),
        "(17, 23) class dropped": classes[:1],
    }
    real = {p_max: _scalar_report("T5.3", p_max) for p_max in (400, 3001)}
    differ = []
    for name, mutant in mutants.items():
        monkeypatch.setattr(th, "_THM53_CLASSES", mutant)
        for p_max in (400, 3001):
            report = _outcome(lambda: range_report("T5.3", p_max))
            if isinstance(report, RangeReport):
                report = (report.checked, report.skipped, report.falsified)
            want = _outcome(lambda: _scalar_report("T5.3", p_max))
            # every mutant is a fault the scalar runner sees
            if report != want or want == real[p_max]:
                differ.append((name, p_max, report, want))
    assert differ == []


# ---------------------------------------------------------------------------
# one oracle for both range paths: on every rule, true or false, a range
# reports what the instance-major loop of _scalar_report finds, or raises
# what it raises first


def _mutations(rule):
    """A fixed catalogue of faults in one rule, as (name, mutated rule)."""
    (ta, tb, m), *rest = rule.reads
    hyps = rule.hypotheses
    out = [
        ("m + 8", replace(rule, reads=((ta, tb, m + 8), *rest))),
        ("ta + 8", replace(rule, reads=((ta + 8, tb, m), *rest))),
        ("odd_x", replace(rule, odd_x=not rule.odd_x)),
        ("even_y", replace(rule, even_y=not rule.even_y)),
        ("show_a", replace(rule, show_a=not rule.show_a)),
        ("form swapped", replace(rule, form=rule.form[::-1])),
    ]
    for i, (_, why) in enumerate(hyps):
        out.append((f"no {why!r}", replace(rule, hypotheses=hyps[:i] + hyps[i + 1 :])))
    if rule.sign is not None:
        sign = rule.sign
        out.append(("sign + 1", replace(rule, sign=lambda x, y: sign(x, y) + 1)))
        out.append(("sign x < 0", replace(rule, sign=lambda x, y: x < 0)))  # not even in x
    return out


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # a fault must be the same fault on both paths
        return type(exc), str(exc)


def test_range_report_equals_instance_major_loop_on_mutated_rules(monkeypatch):
    import etaquad.theorems as th

    p_max = 400
    real_rule = th._built_rule
    differ = []
    runs = 0
    for case_id in case_ids():
        grid = None
        if case_arity(case_id):
            grid = [_ADMISSIBLE[case_id][0], _ADMISSIBLE[case_id][-1]]
        combos = [()] if grid is None else grid
        names = [name for name, _ in _mutations(real_rule(case_id, combos[0]))]
        for name in names:
            mutated = {c: dict(_mutations(real_rule(case_id, c)))[name] for c in combos}
            monkeypatch.setattr(th, "_built_rule", lambda cid, params: mutated[params])
            report = _outcome(lambda: range_report(case_id, p_max, grid))
            if isinstance(report, RangeReport):
                report = (report.checked, report.skipped, report.falsified)
            want = _outcome(lambda: _scalar_report(case_id, p_max, grid))
            if report != want:
                differ.append((case_id, name, report, want))
            runs += 1
    assert runs > 200 and differ == []
