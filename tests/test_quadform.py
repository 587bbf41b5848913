"""Forms, reduction, class groups, composition, and representation
counts, including the numeric checks of the multiplicative counting
rules the verification harness relies on."""

from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest
from conftest import (
    compose,
    inverse,
    is_reduced,
    oracle_class_group,
    oracle_conductor,
    oracle_lattice_points,
    oracle_primes,
    oracle_reps,
    oracle_scan,
    outcome_of,
    principal,
    reduce,
    unit_weight,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaquad import (
    QuadForm,
    ResourceLimitError,
    class_group,
    find_rep,
    is_prime,
    kronecker,
    lattice_points,
    normalized_reps,
    representations,
)
from etaquad import quadform
from etaquad.quadform import _isqrt_int64, _scan

GROUP_DISCS = [-12, -20, -23, -24, -28, -40, -52, -60, -84]
# the scan's chunk size in the chunk tests, small so that their x stay small
CHUNK = 1 << 10


def test_reduce_examples():
    assert reduce(QuadForm(1, 0, 3)) == QuadForm(1, 0, 3)
    assert reduce(QuadForm(3, 2, 3)) == QuadForm(3, 2, 3)
    assert reduce(QuadForm(5, 6, 2)) == QuadForm(1, 0, 1)
    # |b| <= a <= c fails; then the boundary cases |b| = a and a = c need b >= 0
    assert not is_reduced(QuadForm(2, 3, 5))
    assert not is_reduced(QuadForm(3, -1, 3))
    assert is_reduced(QuadForm(3, 1, 3))


def test_reduce_rejects_bad_forms():
    with pytest.raises(ValueError):
        reduce(QuadForm(1, 5, 1))  # indefinite
    with pytest.raises(ValueError):
        reduce(QuadForm(-1, 0, -3))
    with pytest.raises(ValueError):
        reduce(QuadForm(1, 2, 1))  # degenerate, disc 0


@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=-25, max_value=25),
    st.integers(min_value=1, max_value=25),
)
@settings(max_examples=300, deadline=None)
def test_reduce_idempotent_and_disc_preserving(a, b, c):
    form = QuadForm(a, b, c)
    if not form.is_positive_definite():
        return
    red = reduce(form)
    assert is_reduced(red)
    assert red.discriminant() == form.discriminant()
    assert reduce(red) == red
    # reduction preserves the represented values (small sweep)
    for n in range(1, 20):
        assert representations(form, n).count == representations(red, n).count


def test_class_group_printed_examples():
    assert _triples(class_group(-12)) == [(1, 0, 3)]
    assert _triples(class_group(-28)) == [(1, 0, 7)]
    assert _triples(class_group(-60)) == [(1, 0, 15), (3, 0, 5)]


def _triples(group):
    return [(f.a, f.b, f.c) for f in group.classes]


def test_class_group_h23():
    group = class_group(-23)
    assert _triples(group) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]
    assert principal(-23) == QuadForm(1, 1, 6)


@pytest.mark.parametrize(
    "d,h",
    [(-3, 1), (-4, 1), (-20, 2), (-24, 2), (-40, 2), (-52, 2), (-84, 4)],
)
def test_class_numbers(d, h):
    assert len(class_group(d)) == h


def test_class_group_matches_double_loop():
    # the mask against the double-loop oracle, on every discriminant to -20000
    for d in range(-3, -20001, -1):
        if d % 4 in (0, 1):
            assert _triples(class_group(d)) == oracle_class_group(d), d


@given(st.integers(min_value=20_001, max_value=10**7).filter(lambda n: n % 4 in (0, 3)))
@settings(max_examples=8, deadline=None)
def test_class_group_matches_double_loop_large(n):
    # past the exhaustive range, down to d = -10^7 (several bands of rows)
    assert _triples(class_group(-n)) == oracle_class_group(-n)


def test_class_group_one_row_per_band(monkeypatch):
    # a cell budget that leaves one row of a per band gives the same classes,
    # for even d and for both parity classes of odd d (d = 5 and 1 mod 8)
    import etaquad.quadform as qf

    # -3999996 has conductor 6, so the gcd filter drops hits there
    sizes = {-4000004: 1032, -4000003: 248, -4000007: 1352, -3999996: 912}
    want = {d: _triples(class_group(d)) for d in sizes}
    assert {d: len(forms) for d, forms in want.items()} == sizes
    monkeypatch.setattr(qf, "_CLASS_GROUP_CELLS", 1)
    for d in sizes:
        assert _triples(class_group(d)) == want[d], d


def test_float_square_test_is_exact_below_2_52():
    # class_group's test: below 2^52, v is a square exactly when sqrt(v) is integral
    m = np.array([2, 3, 1 << 13, (1 << 26) - 3, (1 << 26) - 1], dtype=np.float64)
    v = np.concatenate((m * m - 1, m * m, m * m + 1))
    assert v.max() < 2.0**52
    root = np.sqrt(v)
    assert (root == np.floor(root)).tolist() == [False] * 5 + [True] * 5 + [False] * 5


def test_budgets_raise_before_any_work(monkeypatch):
    # representations: the scan over the shorter variable, isqrt(4*min(a, c)*n/|d|) + 1 values
    with pytest.raises(ResourceLimitError, match="scan 1000000000000001 values"):
        representations(QuadForm(1, 0, 1), 10**30 + 1)
    monkeypatch.setattr(quadform, "REPS_SCAN_BUDGET", 1001)
    assert representations(QuadForm(1, 0, 1), 10**6).count == 28  # scans 1001 values
    with pytest.raises(ResourceLimitError):
        representations(QuadForm(1, 0, 1), 1002**2)
    with pytest.raises(ResourceLimitError):
        representations(QuadForm(1, 0, 7), 7 * 1002**2)  # scans y of [7, 0, 1]
    # find_rep checks its budget as it scans, so a first solution below it returns
    assert find_rep(1, 1, 10**40 + 1) == (1, 10**20)
    # class_group: the sum over a <= isqrt(|d|/3) of a/4 + 1 cells
    with pytest.raises(ResourceLimitError, match="class group of -100000000000000 may search"):
        class_group(-(10**14))
    monkeypatch.setattr(quadform, "CLASS_GROUP_CELL_BUDGET", 258 * 259 // 8 + 258)
    assert len(class_group(-200000)) == 200  # a <= 258
    with pytest.raises(ResourceLimitError):
        class_group(-201244)  # a <= 259
    # a bad discriminant is a ValueError before it is a resource limit
    with pytest.raises(ValueError, match="not a negative discriminant"):
        class_group(-(10**14) - 1)


def test_quadform_value_semantics():
    # what callers rely on: immutable, ordered and hashed as (a, b, c)
    form = QuadForm(2, -1, 3)
    with pytest.raises(AttributeError):
        form.a = 5
    with pytest.raises(AttributeError):
        form.d = 5
    forms = [QuadForm(2, 1, 3), QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(1, 0, 6)]
    assert sorted(forms) == [QuadForm(1, 0, 6), QuadForm(1, 1, 6), form, QuadForm(2, 1, 3)]
    assert hash(QuadForm(2, -1, 3)) == hash(form) and len({form, QuadForm(2, -1, 3)}) == 1
    assert form == (2, -1, 3)  # a form also equals the plain tuple
    assert repr(form) == "QuadForm(a=2, b=-1, c=3)" and str(form) == "[2, -1, 3]"
    assert (form.a, form.b, form.c) == tuple(form)
    # the principal form comes first
    assert class_group(-23).classes[0] == principal(-23) == QuadForm(1, 1, 6)
    assert class_group(-60).classes[0] == principal(-60) == QuadForm(1, 0, 15)
    assert class_group(-4).classes[0] == principal(-4) == QuadForm(1, 0, 1)
    assert all(isinstance(f, QuadForm) for f in class_group(-4000003))


def test_class_group_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        class_group(5)
    with pytest.raises(ValueError):
        class_group(-5)
    with pytest.raises(ValueError):
        class_group(0)


def test_reduce_fixes_class_group_members():
    for d in [-12, -20, -24, -28, -40, -60, -84]:
        for form in class_group(d):
            assert is_reduced(form)
            assert reduce(form) == form


def test_compose_examples():
    assert compose(QuadForm(1, 0, 15), QuadForm(3, 0, 5)) == QuadForm(3, 0, 5)
    assert compose(QuadForm(3, 0, 5), QuadForm(3, 0, 5)) == QuadForm(1, 0, 15)
    for d in GROUP_DISCS:
        e = principal(d)
        assert compose(e, e) == e


def test_compose_validation():
    with pytest.raises(ValueError):
        compose(QuadForm(1, 0, 1), QuadForm(1, 0, 3))
    with pytest.raises(ValueError):
        compose(QuadForm(2, 0, 2), QuadForm(2, 0, 2))


def test_compose_group_laws():
    for d in GROUP_DISCS:
        group = class_group(d)
        forms = list(group.classes)
        assert len(set(forms)) == len(forms)
        e = principal(d)
        assert e in forms
        table = {(f, g): compose(f, g) for f in forms for g in forms}
        for f in forms:
            assert table[(f, e)] == f and table[(e, f)] == f
            assert compose(f, inverse(f)) == e
            assert table[(f, f)] in forms
        for f in forms:
            for g in forms:
                assert table[(f, g)] == table[(g, f)]
                for h in forms:
                    assert compose(table[(f, g)], h) == compose(f, table[(g, h)])
        # closure: composition lands on a listed reduced class
        assert all(v in forms for v in table.values())


def test_class_numbers_against_character_sum():
    # independent route for fundamental d < -4 with unit weight 2:
    # h(d) = |sum_{k < |d|} (d|k) k| / |d|
    fund = [
        -7, -8, -11, -15, -19, -20, -23, -24, -31, -35, -39, -40, -43, -47,
        -51, -52, -55, -56, -67, -68, -71, -79, -84, -88, -91, -95, -103,
        -104, -115, -120, -127, -131, -136, -148, -152, -155, -163, -164,
        -168, -179, -184, -187, -195, -199, -203, -211, -212, -215, -219, -223,
    ]
    for d in fund:
        assert oracle_conductor(d) == 1
        h = abs(sum(kronecker(d, k) * k for k in range(1, -d))) // -d
        assert len(class_group(d)) == h


def test_group_laws_on_cyclic_order_seven():
    # h(-71) = 7: a cyclic group large enough to exercise composition of
    # non-ambiguous classes in every slot
    group = class_group(-71)
    forms = list(group.classes)
    assert len(forms) == 7
    e = principal(-71)
    for f in forms:
        assert compose(f, inverse(f)) == e
        power = f
        for _ in range(6):
            power = compose(power, f)
        assert power == e  # order divides 7
    for f in forms:
        for g in forms:
            fg = compose(f, g)
            assert fg in forms
            for h in forms:
                assert compose(fg, h) == compose(f, compose(g, h))


def test_inverse_examples():
    assert inverse(QuadForm(1, 0, 3)) == QuadForm(1, 0, 3)
    assert inverse(QuadForm(3, 0, 5)) == QuadForm(3, 0, 5)
    f = QuadForm(2, 1, 3)
    g = inverse(f)
    assert g == QuadForm(2, -1, 3)
    assert compose(f, g) == principal(-23)
    with pytest.raises(ValueError, match="not primitive"):
        inverse(QuadForm(2, 2, 2))


def _np_form(form):
    return QuadForm(*(np.int64(v) for v in form))


BIG = QuadForm(3000000001, 1, 3000000001)  # b^2 - 4ac wraps in int64


@pytest.mark.parametrize(
    "name, args",
    [
        ("compose", (BIG, BIG)),  # [1, 1, 9000000006000000001]
        ("compose", (QuadForm(2, 1, 3), QuadForm(2, -1, 3))),
        ("compose", (QuadForm(1, 0, 1), QuadForm(1, 0, 3))),  # discriminants differ
        ("compose", (QuadForm(2, 0, 2), QuadForm(2, 0, 2))),  # not primitive
        ("compose", (QuadForm(1, 5, 1), QuadForm(1, 5, 1))),  # indefinite
        ("reduce", (BIG,)),
        ("reduce", (QuadForm(5, 6, 2),)),
        ("reduce", (QuadForm(1, 2, 1),)),  # degenerate
        ("inverse", (BIG,)),
        ("inverse", (QuadForm(2, 1, 3),)),
        ("inverse", (QuadForm(2, 2, 2),)),  # not primitive
    ],
)
def test_numpy_integers_at_form_entry_points(name, args):
    # an np.int64 argument gives what the Python int gives: the same result
    # with Python-int fields, or the same exception and message
    fn = {"compose": compose, "reduce": reduce, "inverse": inverse}[name]
    as_numpy = [_np_form(a) if isinstance(a, QuadForm) else np.int64(a) for a in args]
    want = outcome_of(lambda: fn(*args))
    got = outcome_of(lambda: fn(*as_numpy))
    assert got == want
    if not isinstance(got[0], type):  # a result, not an exception
        assert all(type(v) is int for v in got)


def test_representation_counts_printed():
    assert representations(QuadForm(3, 0, 5), 8).count == 4
    assert representations(QuadForm(1, 0, 15), 8).count == 0
    assert representations(QuadForm(1, 0, 15), 16).count == 6
    assert representations(QuadForm(3, 0, 5), 16).count == 0
    assert representations(QuadForm(3, 0, 5), 8).pairs == (
        (-1, -1),
        (-1, 1),
        (1, -1),
        (1, 1),
    )


def test_representations_match_box_scan():
    # a < c scans [c, b, a] over y and swaps back; a >= c scans over x
    forms = ((1, 0, 3), (2, 1, 3), (3, 2, 3), (2, 2, 11), (2, 2, 3))
    forms += ((5, 0, 2), (7, 3, 2), (11, 2, 3))
    for a, b, c in forms:
        for n in range(1, 120):
            assert list(representations(QuadForm(a, b, c), n).pairs) == oracle_reps(a, b, c, n)


def _with_mirrors(scan):
    return tuple(sorted(scan + [(-x, -y) for x, y in scan if x > 0]))


@st.composite
def _form_and_point(draw):
    """A positive definite form, some with a coefficient past int64, and a
    point (x0, y0) with x0 past the third chunk of CHUNK values."""
    coeff = st.one_of(st.integers(1, 40), st.integers(2**63, 2**70))
    a, c = draw(coeff), draw(coeff)
    b = draw(st.integers(-min(a, c), min(a, c)))  # b^2 <= ac < 4ac
    x0 = draw(st.integers(3 * CHUNK, 8 * CHUNK))
    # c*y0^2 <= a*x0^2, so the scan stays below about 2*x0
    bound = isqrt(a * x0 * x0 // c)
    y0 = draw(st.integers(-bound, bound))
    return QuadForm(a, b, c), a * x0 * x0 + b * x0 * y0 + c * y0 * y0, (x0, y0)


@given(_form_and_point())
@settings(max_examples=40, deadline=None)
def test_scan_matches_unfiltered_loop(case):
    form, n, point = case
    want = oracle_scan(form.a, form.b, form.c, n)
    assert point in want
    with mock.patch.object(quadform, "_SCAN_CHUNK", CHUNK):
        assert list(_scan(form, n)) == want
        assert representations(form, n).pairs == _with_mirrors(want)


def test_scan_solutions_at_chunk_boundaries():
    # the chunks end at x = k * CHUNK; these straddle the ends of the first and third
    with mock.patch.object(quadform, "_SCAN_CHUNK", CHUNK):
        for k in (1, 3):
            for x0 in (k * CHUNK - 1, k * CHUNK, k * CHUNK + 1):
                for a, b, c in ((1, 0, 2), (2, 1, 3)):
                    n = a * x0 * x0 + b * x0 * 5 + c * 25
                    want = oracle_scan(a, b, c, n)
                    assert (x0, 5) in want
                    assert representations(QuadForm(a, b, c), n).pairs == _with_mirrors(want)


@pytest.mark.parametrize("squares_min", [0, 16, 10**9], ids=["always", "default", "never"])
def test_scan_int64_square_pass_at_its_edge(squares_min, monkeypatch):
    # the int64 square test runs only while 4cn and -d are below 2^62; with
    # a = 2^40 - 1 the scan over x is about 1000 values long, and 4cn lands
    # on either side of 2^62 as y0 moves by one
    monkeypatch.setattr(quadform, "_SCAN_SQUARES_MIN", squares_min)
    a, x0 = (1 << 40) - 1, 1000
    for b in (0, 1):  # the forms [a, b, 1]

        def k_at(y):
            return 4 * (a * x0 * x0 + b * x0 * y + y * y)

        y_edge = isqrt((1 << 60) - a * x0 * x0)
        while k_at(y_edge) >= 1 << 62:
            y_edge -= 1
        while k_at(y_edge + 1) < 1 << 62:
            y_edge += 1  # now the last y0 with 4cn < 2^62
        for y0 in (y_edge - 1, y_edge, y_edge + 1, y_edge + 2):
            n = k_at(y0) // 4
            want = oracle_scan(a, b, 1, n)
            assert (x0, y0) in want
            assert list(_scan(QuadForm(a, b, 1), n)) == want
    # a small 4cn with -d = 2^64, past int64: the scan stays in Python ints
    assert list(_scan(QuadForm(1 << 62, 0, 1), 25)) == [(0, -5), (0, 5)]


def test_find_rep_stops_at_first_solution():
    # the scan would run to x = 10**20; the first x that solves is 1
    assert find_rep(1, 1, 10**40 + 1) == (1, 10**20)


def test_find_rep_stops_at_the_scan_budget(monkeypatch):
    monkeypatch.setattr(quadform, "_SCAN_CHUNK", 64)
    monkeypatch.setattr(quadform, "REPS_SCAN_BUDGET", 256)
    # 999999 = 3^3 * 7 * 11 * 13 * 37 is no sum of two squares: the scan would walk x to 999
    want = r"^scan for 999999 by \[1, 0, 1\] reached x = 256 of 1000, budget is 256$"
    with pytest.raises(ResourceLimitError, match=want):
        find_rep(1, 1, 999999)
    # the bound is on x: 186741 = 279^2 + 330^2 has its first solution past it
    with pytest.raises(ResourceLimitError, match=r"reached x = 256 of 433,"):
        find_rep(1, 1, 186741)
    # a solution below the budget returns, from the first chunk or a later one
    assert find_rep(1, 1, 10**40 + 1) == (1, 10**20)
    assert find_rep(1, 1, 82053) == (198, 207)
    # a prime target takes Cornacchia's algorithm, which scans nothing
    assert find_rep(1, 1, 10**6 + 3) is None
    assert find_rep(1, 1, 186701) == (301, 310)
    monkeypatch.setattr(quadform, "REPS_SCAN_BUDGET", 1000)
    assert find_rep(1, 1, 999999) is None


def test_representations_validation():
    with pytest.raises(ValueError):
        representations(QuadForm(1, 0, 3), 0)
    with pytest.raises(ValueError):
        representations(QuadForm(1, 5, 1), 3)


def test_representation_count_symmetric_under_inverse():
    for d in GROUP_DISCS:
        for form in class_group(d):
            inv = inverse(form)
            mirror = QuadForm(form.a, -form.b, form.c)
            for n in range(1, 201):
                count = representations(form, n).count
                assert count == representations(inv, n).count
                assert count == representations(mirror, n).count


def test_normalized_reps_examples():
    assert sorted(normalized_reps(QuadForm(1, 0, 3), 28)) == [(1, -3), (5, 1)]
    assert normalized_reps(QuadForm(1, 0, 1), 2) == [(1, 1)]
    assert normalized_reps(QuadForm(1, 0, 7), 8) == [(1, 1)]
    with pytest.raises(ValueError):
        normalized_reps(QuadForm(2, 1, 3), 4)


def test_find_rep_examples():
    assert find_rep(1, 1, 5) == (1, 2)
    assert find_rep(1, 7, 11) == (2, 1)
    assert find_rep(3, 5, 17) == (2, 1)
    assert find_rep(1, 1, 3) is None
    with pytest.raises(ValueError):
        find_rep(0, 1, 5)


def _next_prime(n):
    while n < 2 or any(n % d == 0 for d in range(2, isqrt(n) + 1)):
        n += 1
    return n


_COEFF = st.one_of(st.just(1), st.integers(1, 60))  # often 1, so that x^2 + y^2 comes up


@given(st.one_of(st.integers(2, 60), st.integers(61, 10**7)).map(_next_prime), _COEFF, _COEFF)
@settings(max_examples=300, deadline=None)
def test_prime_targets_equal_the_scan(p, a, c):
    # odd primes prime to ac take Cornacchia's algorithm when gcd(a, c) = 1; p = 2,
    # p | ac and non-primitive forms take the scan; every answer is the scan's
    want = oracle_scan(a, 0, c, p)
    assert representations(QuadForm(a, 0, c), p).pairs == _with_mirrors(want)
    assert normalized_reps(QuadForm(a, 0, c), p) == [
        (x, y) for x, y in _with_mirrors(want) if x % 4 == 1 and y % 4 == 1
    ]
    assert find_rep(a, c, p) == next(((x, y) for x, y in want if y >= 0), None)


@given(st.integers(2, 999_983).map(_next_prime), _COEFF, _COEFF)
@example(5, 1, 1)  # x^2 + y^2: the swaps too
@example(11, 1, 7)
@settings(max_examples=300, deadline=None)
def test_prime_route_yields_what_the_scan_yields(p, a, c):
    # where Cornacchia's route answers, it returns _scan's list: the pairs with
    # x >= 0 in ascending x and then y, so its callers assemble both alike
    form = QuadForm(a, 0, c)
    pairs = quadform._prime_reps(form, p)
    if pairs is not None:
        assert pairs == list(_scan(form, p))


@pytest.mark.parametrize("p", [17, 41, 73, 97, 193, 257, 65537, 7340033])
def test_sqrt_mod_at_primes_one_mod_8(p):
    # p = 1 (mod 8) leaves 2^e | p - 1 with e >= 3, so Tonelli-Shanks runs its
    # order-halving steps (65537 = 2^16 + 1 and 7340033 = 7 * 2^20 + 1 run the most)
    assert p % 8 == 1
    for q in range(1, min(p, 3000)):
        r = quadform._sqrt_mod(q, p)
        if pow(q, (p - 1) // 2, p) == 1:
            assert r is not None and r * r % p == q, q
        else:
            assert r is None, q


def test_probable_prime_past_the_proven_bound_takes_the_scan():
    # is_prime cannot prove 10^40 + 121 = (10^20)^2 + 11^2 prime, so the search
    # takes the scan: representations meets its budget, find_rep its solution at x = 11
    p = 10**40 + 121
    with pytest.raises(ResourceLimitError, match=rf"^representations of {p} by \[1, 0, 1\] scan"):
        representations(QuadForm(1, 0, 1), p)
    assert find_rep(1, 1, p) == (11, 10**20)


# the inert-prime exit's gate is one wheel period, 4032 values, where the box
# oracle would take seconds per target; the property moves the gate to
# _SHORT_GATE values, and its targets' scans fall on both sides of it
_SHORT_GATE = 12
_FACTORED_MAX = 20_000
_SMALL_PRIMES = oracle_primes(60)[1:]
_REST_PRIMES = [q for q in oracle_primes(1100) if q > 1000]  # past quadform._INERT_BOUND
_COMPOSITE_PRIMES = [q for q in oracle_primes(5000) if q > 1000]


@st.composite
def _form_and_factored_target(draw):
    """A form, diagonal, non-diagonal or k times one (imprimitive for k > 1),
    and n <= _FACTORED_MAX built from k, odd primes inert or split for its
    discriminant d ((d|q) = -1 or 1), each to a power 1-3, and sometimes a
    prime past quadform._INERT_BOUND as the rest of n.  Otherwise n is
    sometimes k times a composite rest instead, the product of two or three
    primes between 1000 and 5000, each inert or split, which only the
    exit's Kronecker symbol can rule out."""
    a, c = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    b = draw(st.one_of(st.just(0), st.integers(-min(a, c), min(a, c))))  # b^2 <= ac < 4ac
    k = draw(st.sampled_from((1, 1, 2, 3)))
    form = QuadForm(k * a, k * b, k * c)
    d = form.discriminant()
    n = draw(st.sampled_from((1, k)))
    if draw(st.booleans()):
        n *= draw(st.sampled_from(_REST_PRIMES))
    elif draw(st.booleans()):
        rest = {s: [q for q in _COMPOSITE_PRIMES if kronecker(d, q) == s] for s in (-1, 1)}
        for _ in range(draw(st.integers(2, 3))):
            n *= draw(st.sampled_from(rest[draw(st.sampled_from((-1, 1)))]))
        return form, n
    by_symbol = {s: [q for q in _SMALL_PRIMES if kronecker(d, q) == s] for s in (-1, 1)}
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.sampled_from(by_symbol[draw(st.sampled_from((-1, 1)))]))
        e = draw(st.integers(1, 3))
        if n * q**e <= _FACTORED_MAX:
            n *= q**e
    return form, n


@given(_form_and_factored_target())
@example((QuadForm(1, 0, 1), 3 * 7**2 * 11))  # 3 and 11 inert, to odd powers; 7 to an even one
@example((QuadForm(2, 2, 6), 2 * 1019))  # the rest of n, 1019, inert for d = -44
@example((QuadForm(1, 0, 1), 1019 * 1031 * 1039))  # three inert primes: (-4|n) = -1
@example((QuadForm(1, 0, 1), 1019 * 1013))  # one inert, one split: (-4|n) = -1
@example((QuadForm(1, 0, 1), 1019 * 1031))  # two inert: (-4|n) = 1, left to the scan
@settings(max_examples=150, deadline=None)
def test_inert_exit_equals_the_box_scan(case):
    form, n = case
    # a composite rest puts n past 10^6, where the box would take seconds: the
    # unfiltered per-x scan with its mirrors lists the same pairs
    if n <= _FACTORED_MAX:
        want = oracle_reps(*form, n)
    else:
        want = list(_with_mirrors(oracle_scan(*form, n)))
    if quadform._inert_obstruction(form.discriminant(), n):
        assert want == []
    with mock.patch.object(quadform, "_WHEEL_PERIOD", _SHORT_GATE):
        assert list(representations(form, n).pairs) == want


def test_obstructed_long_targets_take_no_scan():
    # each n has an inert prime q ((d|q) = -1) to an odd power, and a scan past
    # one wheel period: 3 * 10^17 by x^2 + y^2 would walk 5.5 * 10^8 values
    targets = [
        (QuadForm(1, 0, 1), 3 * 10**17),  # 3^1
        (QuadForm(1, 0, 1), 7**3 * 5**4 * 2**8),  # 7^3, with the split 5 to an even power
        (QuadForm(1, 0, 1), 25 * 1000003),  # the rest of n, 1000003 = 3 (mod 4), is prime
        (QuadForm(2, 1, 3), 5**9 * 2**8),  # d = -23, non-diagonal: 5^9
        (QuadForm(2, 0, 2), 2 * 3 * 5**10),  # d = -16, imprimitive: 3^1
    ]
    # composites with no prime factor below 1000, ruled out by the Kronecker
    # symbol of n alone: 300000149 is inert for d = -68 and 330000001 splits
    # (both are 1 mod 4); 1047979, 1047971 and 1047923 are all 3 (mod 4)
    composites = [
        (QuadForm(1, 0, 17), 300000149 * 330000001),
        (QuadForm(1, 0, 1), 1047979 * 1047971 * 1047923),
    ]
    assert composites[0][1] == 99000049470000149
    assert [kronecker(-68, q) for q in (300000149, 330000001)] == [-1, 1]
    assert all(is_prime(q) and q % 4 == 3 for q in (1047979, 1047971, 1047923))

    def no_scan(form, n):
        raise AssertionError(f"scan for {n} by {form}")

    with mock.patch.object(quadform, "_scan", no_scan):
        for form, n in targets + composites:
            assert representations(form, n).pairs == ()
        assert normalized_reps(QuadForm(1, 0, 1), 3 * 10**17) == []
    for form, n in targets + composites:
        searched = min(form.a, form.c)
        assert isqrt(4 * searched * n // -form.discriminant()) + 1 > quadform._WHEEL_PERIOD
    # the second composite's scan of 1,072,792,204 values stays under the budget,
    # so the exit, not the budget check, answers it
    form, n = composites[1]
    assert isqrt(n) + 1 == 1_072_792_204 <= quadform.REPS_SCAN_BUDGET
    for form, n in targets[1:]:  # what the scan gives, where it is short enough to run
        assert representations(form, n).pairs == _with_mirrors(list(_scan(form, n)))


def test_inert_exit_proves_no_prime():
    # the exit reads the Kronecker symbol of n's rest and never asks whether it is prime
    cases = [
        (-4, 25 * 1000003, True),  # the rest 1000003 is a prime, 3 (mod 4)
        (-44, 2 * 1019, True),  # the rest 1019 is inert for -44
        (-68, 300000149 * 330000001, True),  # an inert and a split prime
        (-4, 1019 * 1031, False),  # two inert primes, each to an odd power: (-4|n) = 1
        (-4, 5 * 1000033, False),  # 5 and 1000033 split
        (-28, 11 * 1000037, True),  # 11 splits for -28, 1000037 is inert
        (-28, 2 * 7 * 1000037 * 1000039, False),  # two inert primes past 1000, 7 | d
        (-60, 8 * 2000147, False),  # T5.3's first read at a member of its classes
        (-60, 40 * 1000117, True),  # T5.3's last read off its classes
    ]

    def no_proof(n):
        raise AssertionError(f"is_prime({n})")

    with mock.patch.object(quadform, "is_prime", no_proof):
        got = [quadform._inert_obstruction(d, n) for d, n, _ in cases]
    assert got == [want for _, _, want in cases]


def test_find_rep_finds_iff_representable():
    for a, b in ((2, 3), (1, 1), (1, 7), (3, 5), (1, 15)):
        for m in range(1, 400):
            got = find_rep(a, b, m)
            brute = [(x, y) for x, y in oracle_reps(a, 0, b, m) if x >= 0 and y >= 0]
            if brute:
                assert got is not None and got in brute
                assert got[0] == min(x for x, _ in brute)
            else:
                assert got is None


# --- multiplicative counting rules used by the harness ---------------------


def _rep_count(form, n):
    return representations(form, n).count


def test_prime_representation_rule(primes_500):
    # primes are represented iff the symbol is 0 or 1 (conductor primes
    # excluded); counts follow the 0 / w / 2w pattern
    for d in [-12, -20, -24, -40, -60]:
        conductor, w = oracle_conductor(d), unit_weight(d)
        group = class_group(d)
        for p in primes_500:
            if conductor % p == 0:
                continue
            counts = {K: _rep_count(K, p) for K in group}
            total = sum(counts.values())
            sym = kronecker(d, p)
            assert (total > 0) == (sym in (0, 1))
            if sym == 1:
                represented = [K for K, c in counts.items() if c > 0]
                assert represented
                A = represented[0]
                assert sorted(represented) == sorted({A, inverse(A)})
                for K in group:
                    if K == A == inverse(A):
                        assert counts[K] == 2 * w
                    elif K in (A, inverse(A)):
                        assert counts[K] == w
                    else:
                        assert counts[K] == 0
            if sym == 0:
                represented = [K for K, c in counts.items() if c > 0]
                assert len(represented) == 1
                A = represented[0]
                assert A == inverse(A)
                assert counts[A] == w


def test_coprime_convolution_rule():
    # w(d) R(K, n1 n2) equals the composition-convolution of the counts
    bound = 60
    for d in [-12, -20, -24, -40, -52, -60, -84]:
        group = list(class_group(d))
        small = {K: [0] + [_rep_count(K, n) for n in range(1, bound + 1)] for K in group}
        products: dict[int, dict] = {}
        mult = {(K1, K2): compose(K1, K2) for K1 in group for K2 in group}
        for n1 in range(1, bound + 1):
            for n2 in range(1, bound + 1):
                if gcd(n1, n2) != 1:
                    continue
                m = n1 * n2
                if m not in products:
                    products[m] = {K: _rep_count(K, m) for K in group}
                for K in group:
                    conv = sum(
                        small[K1][n1] * small[K2][n2]
                        for K1 in group
                        for K2 in group
                        if mult[(K1, K2)] == K
                    )
                    assert unit_weight(d) * products[m][K] == conv


def _odd_coprime_pairs(limit):
    for a in range(1, limit + 1, 2):
        for b in range(a, limit + 1, 2):
            if gcd(a, b) == 1:
                yield a, b


def test_scaled_prime_count_and_solution_set(primes_500):
    # representing (ab+1)p: count 8 (12 when ab+1 is a square) and the
    # solution set is the one constructed from any representation of p
    for a, b in _odd_coprime_pairs(9):
        form = QuadForm(a, 0, b)
        m = a * b + 1
        root = isqrt(m)
        is_square = root * root == m
        for p in primes_500:
            if p == 2 or p in (a, b) or m % p == 0:
                continue
            rep = find_rep(a, b, p)
            if rep is None:
                continue
            x, y = rep
            target = m * p
            got = representations(form, target)
            assert got.count == (12 if is_square else 8)
            built = set()
            for s1 in (1, -1):
                for s2 in (1, -1):
                    built.add((s1 * (x + b * y), s2 * (a * x - y)))
                    built.add((s1 * (x - b * y), s2 * (a * x + y)))
            if is_square:
                for s1 in (1, -1):
                    for s2 in (1, -1):
                        built.add((s1 * root * x, s2 * root * y))
            assert set(got.pairs) == built


def test_sum_weight_count_and_solution_set(primes_500):
    # representing (a+b)p by [a, 0, b] when p = x^2 + ab y^2
    for a, b in _odd_coprime_pairs(9):
        if (a - 1) * (b - 1) == 0 and isqrt(a + b) ** 2 == a + b:
            continue
        form = QuadForm(a, 0, b)
        for p in primes_500:
            if p == 2 or p == a * b or p == a * b + 1:
                continue
            rep = find_rep(1, a * b, p)
            if rep is None:
                continue
            x, y = rep
            got = representations(form, (a + b) * p)
            assert got.count == 8
            built = set()
            for s1 in (1, -1):
                for s2 in (1, -1):
                    built.add((s1 * (x + b * y), s2 * (x - a * y)))
                    built.add((s1 * (x - b * y), s2 * (x + a * y)))
            assert set(got.pairs) == built


def test_twice_prime_count(primes_500):
    # R([a,0,b], 2p) is 0 or 2 w(-4ab) when ab = 1 (mod 4), gcd(a,b) = 1
    for a, b in [(1, 1), (1, 5), (1, 9), (5, 9), (3, 7), (1, 13)]:
        form = QuadForm(a, 0, b)
        w = unit_weight(-4 * a * b)
        for p in primes_500:
            if p == 2:
                continue
            count = representations(form, 2 * p).count
            assert count in (0, 2 * w)


def test_four_prime_count_on_ambiguous_classes(primes_500):
    # R(K, 4p) is 0 or 2 w(-ab) for K = K^{-1}, ab = 3 (mod 4), p not | ab
    for a, b in [(1, 3), (1, 7), (3, 5), (5, 7), (3, 9), (7, 9), (1, 11)]:
        if (a * b) % 4 != 3:
            continue
        w = unit_weight(-a * b)
        for K in class_group(-4 * a * b):
            if K != inverse(K):
                continue
            for p in primes_500:
                if p == 2 or (a * b) % p == 0:
                    continue
                count = representations(K, 4 * p).count
                assert count in (0, 2 * w), (a, b, K, p, count)


@given(
    st.sampled_from([(1, 1), (1, 7), (2, 3), (3, 5), (5, 5)]),
    st.integers(min_value=-1, max_value=2000),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=11),
)
@settings(max_examples=30, deadline=None)
def test_lattice_points_equal_representations(form, t_max, mod, residue):
    # the sweep lists exactly the non-negative representations of every kept value
    a, b = form
    keep = lambda t: t % mod == residue % mod
    t, x, y = lattice_points(a, b, t_max, keep)
    assert t.dtype == x.dtype == y.dtype == np.int64
    assert (t == a * x * x + b * y * y).all()
    got = sorted(zip(t.tolist(), x.tolist(), y.tolist()))
    want = [
        (n, x, y)
        for n in range(1, t_max + 1)
        if keep(n)
        for x, y in representations(QuadForm(a, 0, b), n).pairs
        if x >= 0 and y >= 0
    ]
    if t_max >= 0 and keep(0):
        want.insert(0, (0, 0, 0))
    assert got == want


@given(
    st.one_of(st.integers(min_value=1, max_value=60), st.just(10**20 + 1)),
    st.one_of(st.integers(min_value=1, max_value=60), st.just(10**20 + 1)),
    st.integers(min_value=-1, max_value=3000),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=11),
    st.sampled_from([1, 2, 7, 64]),
)
@settings(max_examples=200, deadline=None)
def test_lattice_points_chunks_equal_rows(a, b, t_max, mod, residue, cells):
    # any chunking of the rows gives the row-by-row arrays, order and dtype included
    import etaquad.quadform as qf

    keep = lambda t: t % mod == residue % mod
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qf, "_LATTICE_CELLS", cells)
        got = lattice_points(a, b, t_max, keep)
    want = oracle_lattice_points(a, b, t_max, keep)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)


@pytest.mark.parametrize("x_class", [None, 0, 1])
@pytest.mark.parametrize("y_class", [None, 0, 1])
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-1, max_value=10**5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=11),
    st.sampled_from([1, 7, 1 << 15]),
)
@settings(max_examples=25, deadline=None)
def test_lattice_points_class_equals_filtered_sweep(
    x_class, y_class, a, b, t_max, mod, residue, cells
):
    # a class sweep steps over the other parity, in chunks down to one row each,
    # and lists the full sweep's points of its classes, in the same order
    keep = lambda t: t % mod == residue % mod
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadform, "_LATTICE_CELLS", cells)
        got = lattice_points(a, b, t_max, keep, x_class, y_class)
    t, x, y = lattice_points(a, b, t_max, keep)
    mask = np.ones(len(t), dtype=bool)
    for c, cls in ((x, x_class), (y, y_class)):
        if cls is not None:
            mask &= c % 2 == cls
    rows = oracle_lattice_points(a, b, t_max, keep, x_class, y_class)
    for g, w, o in zip(got, (t[mask], x[mask], y[mask]), rows):
        assert g.dtype == np.int64
        assert np.array_equal(g, w) and np.array_equal(g, o)


def test_isqrt_int64_exact():
    # the float root of k^2 - 1 rounds up to k for large k; the fix-up undoes it
    k = np.array([1, 2, 3, 2**26 - 1, 2**26, 2**26 + 1, 2**31 - 1, 3037000499], dtype=np.int64)
    rng = np.random.default_rng(13)
    values = np.concatenate(
        [np.arange(300), k * k - 1, k * k, k * k + 1, rng.integers(0, 2**63 - 1, 3000), [2**63 - 1]]
    ).astype(np.int64)
    assert _isqrt_int64(values).tolist() == [isqrt(v) for v in values.tolist()]


def test_lattice_points_order_and_errors():
    t, x, y = lattice_points(1, 2, 12, lambda t: t % 3 == 0)
    # ordered by y, then x
    points = [(0, 0, 0), (9, 3, 0), (3, 1, 1), (6, 2, 1), (9, 1, 2), (12, 2, 2)]
    assert list(zip(t.tolist(), x.tolist(), y.tolist())) == points
    assert all(len(c) == 0 for c in lattice_points(1, 1, -1, lambda t: t >= 0))
    with pytest.raises(ValueError, match="positive definite"):
        lattice_points(0, 1, 10, lambda t: t >= 0)
    with pytest.raises(ValueError, match="classes are 0, 1 or None"):
        lattice_points(1, 1, 10, lambda t: t >= 0, 2)
    # a class with no row to its first x or y lists no point
    assert all(len(c) == 0 for c in lattice_points(1, 5, 4, lambda t: t >= 0, None, 1))
    assert all(len(c) == 0 for c in lattice_points(7, 1, 6, lambda t: t >= 0, 1))


def test_lattice_points_coefficient_past_t_max():
    # a coefficient past int64 meets only x = 0 (or y = 0) and is capped first
    t = [3 * k * k for k in range(1, 12)]
    ones = list(range(1, 12))
    got = lattice_points(10**20 + 1, 3, 388, lambda t: t > 0)
    assert [c.tolist() for c in got] == [t, [0] * 11, ones]
    got = lattice_points(3, 10**20 + 1, 388, lambda t: t > 0)
    assert [c.tolist() for c in got] == [t, ones, [0] * 11]
