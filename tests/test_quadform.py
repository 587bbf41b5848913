"""Forms, reduction, class groups, composition, and representation
counts, including the numeric checks of the multiplicative counting
rules the verification harness relies on."""

from math import gcd, isqrt

import numpy as np
import pytest
from conftest import oracle_class_group, oracle_lattice_points, oracle_reps, oracle_scan
from hypothesis import given, settings
from hypothesis import strategies as st

from etaquad import (
    QuadForm,
    class_group,
    compose,
    discriminant_info,
    find_rep,
    inverse,
    kronecker,
    lattice_points,
    normalized_reps,
    reduce,
    representations,
)
from etaquad.quadform import _SCAN_CHUNK, _isqrt_int64, _scan

GROUP_DISCS = [-12, -20, -23, -24, -28, -40, -52, -60, -84]


def test_reduce_examples():
    assert reduce(QuadForm(1, 0, 3)) == QuadForm(1, 0, 3)
    assert reduce(QuadForm(3, 2, 3)) == QuadForm(3, 2, 3)
    assert reduce(QuadForm(5, 6, 2)) == QuadForm(1, 0, 1)
    # |b| <= a <= c fails; then the boundary cases |b| = a and a = c need b >= 0
    assert not QuadForm(2, 3, 5).is_reduced()
    assert not QuadForm(3, -1, 3).is_reduced()
    assert QuadForm(3, 1, 3).is_reduced()


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
    assert red.is_reduced()
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
    assert group.principal() == QuadForm(1, 1, 6)


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
    # a cell budget that leaves one row of a per band gives the same classes
    import etaquad.quadform as qf

    want = _triples(class_group(-4000004))
    assert len(want) == 1032
    monkeypatch.setattr(qf, "_CLASS_GROUP_CELLS", 1)
    assert _triples(class_group(-4000004)) == want


def test_class_group_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        class_group(5)
    with pytest.raises(ValueError):
        class_group(-5)
    with pytest.raises(ValueError):
        class_group(0)


@pytest.mark.parametrize(
    "d,conductor,weight",
    [(-3, 1, 6), (-4, 1, 4), (-12, 2, 2), (-28, 2, 2), (-60, 2, 2), (-20, 1, 2), (-48, 4, 2)],
)
def test_discriminant_info(d, conductor, weight):
    info = discriminant_info(d)
    assert info.conductor == conductor
    assert info.unit_weight == weight


def test_reduce_fixes_class_group_members():
    for d in [-12, -20, -24, -28, -40, -60, -84]:
        for form in class_group(d):
            assert form.is_reduced()
            assert reduce(form) == form


def test_compose_examples():
    assert compose(QuadForm(1, 0, 15), QuadForm(3, 0, 5)) == QuadForm(3, 0, 5)
    assert compose(QuadForm(3, 0, 5), QuadForm(3, 0, 5)) == QuadForm(1, 0, 15)
    for d in GROUP_DISCS:
        e = class_group(d).principal()
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
        e = group.principal()
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
        assert discriminant_info(d).conductor == 1
        h = abs(sum(kronecker(d, k) * k for k in range(1, -d))) // -d
        assert len(class_group(d)) == h


def test_group_laws_on_cyclic_order_seven():
    # h(-71) = 7: a cyclic group large enough to exercise composition of
    # non-ambiguous classes in every slot
    group = class_group(-71)
    forms = list(group.classes)
    assert len(forms) == 7
    e = group.principal()
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
    assert compose(f, g) == class_group(-23).principal()
    with pytest.raises(ValueError, match="not primitive"):
        inverse(QuadForm(2, 2, 2))


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
    for a, b, c in ((1, 0, 3), (2, 1, 3), (3, 2, 3), (2, 2, 11), (2, 2, 3)):
        for n in range(1, 120):
            assert list(representations(QuadForm(a, b, c), n).pairs) == oracle_reps(a, b, c, n)


def _with_mirrors(scan):
    return tuple(sorted(scan + [(-x, -y) for x, y in scan if x > 0]))


@st.composite
def _form_and_point(draw):
    """A positive definite form, some with a coefficient past int64, and a
    point (x0, y0) with x0 past the second chunk of the scan."""
    coeff = st.one_of(st.integers(1, 40), st.integers(2**63, 2**70))
    a, c = draw(coeff), draw(coeff)
    b = draw(st.integers(-min(a, c), min(a, c)))  # b^2 <= ac < 4ac
    first = _SCAN_CHUNK[0]
    x0 = draw(st.integers(3 * first, 8 * first))
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
    assert list(_scan(form, n)) == want
    assert representations(form, n).pairs == _with_mirrors(want)


def test_scan_solutions_at_chunk_boundaries():
    first = _SCAN_CHUNK[0]
    # the first two chunks end at x = first and x = 3 * first
    for x0 in (first - 1, first, first + 1, 3 * first - 1, 3 * first, 3 * first + 1):
        for a, b, c in ((1, 0, 2), (2, 1, 3)):
            n = a * x0 * x0 + b * x0 * 5 + c * 25
            want = oracle_scan(a, b, c, n)
            assert (x0, 5) in want
            assert representations(QuadForm(a, b, c), n).pairs == _with_mirrors(want)


def test_find_rep_stops_at_first_solution():
    # the scan would run to x = 10**20; the first x that solves is 1
    assert find_rep(1, 1, 10**40 + 1) == (1, 10**20)


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
        info = discriminant_info(d)
        group = class_group(d)
        for p in primes_500:
            if info.conductor % p == 0:
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
                        assert counts[K] == 2 * info.unit_weight
                    elif K in (A, inverse(A)):
                        assert counts[K] == info.unit_weight
                    else:
                        assert counts[K] == 0
            if sym == 0:
                represented = [K for K, c in counts.items() if c > 0]
                assert len(represented) == 1
                A = represented[0]
                assert A == inverse(A)
                assert counts[A] == info.unit_weight


def test_coprime_convolution_rule():
    # w(d) R(K, n1 n2) equals the composition-convolution of the counts
    bound = 60
    for d in [-12, -20, -24, -40, -52, -60, -84]:
        info = discriminant_info(d)
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
                    assert info.unit_weight * products[m][K] == conv


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
        w = discriminant_info(-4 * a * b).unit_weight
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
        w = discriminant_info(-a * b).unit_weight
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


def test_lattice_points_coefficient_past_t_max():
    # a coefficient past int64 meets only x = 0 (or y = 0) and is capped first
    t = [3 * k * k for k in range(1, 12)]
    ones = list(range(1, 12))
    got = lattice_points(10**20 + 1, 3, 388, lambda t: t > 0)
    assert [c.tolist() for c in got] == [t, [0] * 11, ones]
    got = lattice_points(3, 10**20 + 1, 388, lambda t: t > 0)
    assert [c.tolist() for c in got] == [t, ones, [0] * 11]
