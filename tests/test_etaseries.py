"""The four independent coefficient routes and their agreement."""

from unittest import mock

import numpy as np
import pytest
from conftest import oracle_product_table
from hypothesis import given, settings
from hypothesis import strategies as st

from etaquad import (
    InternalInconsistencyError,
    LambdaParams,
    PartitionCapError,
    ResourceLimitError,
    jacobi_cube,
    lambda_at,
    lambda_from_reps,
    lambda_multinomial,
    lambda_table,
    partition_terms,
)
from etaquad.etaseries import (
    _INT64_SAFE,
    EXACT_FLOAT_CEILING,
    METHODS,
    TABLE_BUDGET_BYTES,
    CoeffTable,
    _sparse_partial_sum_bound,
    _table_sparse,
)


def test_jacobi_cube_examples():
    assert [(t.exponent, t.coefficient) for t in jacobi_cube(0)] == [(0, 1)]
    assert [(t.exponent, t.coefficient) for t in jacobi_cube(6)] == [
        (0, 1),
        (1, -3),
        (3, 5),
        (6, -7),
    ]
    assert [(t.exponent, t.coefficient) for t in jacobi_cube(2)] == [(0, 1), (1, -3)]


def test_jacobi_cube_structure():
    terms = jacobi_cube(500)
    for t in terms:
        assert t.exponent == t.k * (t.k + 1) // 2
        assert abs(t.coefficient) == 2 * t.k + 1
        assert t.coefficient == (2 * t.k + 1) * (-1) ** t.k
    assert [t.exponent for t in terms] == sorted(t.exponent for t in terms)


def test_params_validation():
    with pytest.raises(ValueError):
        LambdaParams(0, 1)
    with pytest.raises(ValueError):
        LambdaParams(1, -2)


@pytest.mark.parametrize("method", ["sparse", "newton", "naive"])
def test_table_examples(method):
    assert lambda_table(LambdaParams(1, 1), 2, method).values() == [1, -6]
    assert lambda_table(LambdaParams(1, 3), 4, method).values() == [1, -3, 0, 2]
    assert lambda_table(LambdaParams(4, 7), 1, method).values() == [1]


@pytest.mark.parametrize("method", ["sparse", "newton", "naive"])
def test_table_frozen_heads(method):
    assert lambda_table(LambdaParams(1, 1), 8, method).values() == [1, -6, 9, 10, -30, 0, 11, 42]
    assert lambda_table(LambdaParams(1, 3), 8, method).values() == [1, -3, 0, 2, 9, 0, -22, 0]


def test_table_validation():
    with pytest.raises(ValueError):
        lambda_table(LambdaParams(1, 1), 0)
    with pytest.raises(ValueError):
        lambda_table(LambdaParams(1, 1), 4, "fft")
    # an unknown method is a usage error even where no table would fit
    with pytest.raises(ValueError, match="unknown method"):
        lambda_table(LambdaParams(1, 1), 2**40, "fft")


def test_table_value_indexing():
    table = lambda_table(LambdaParams(1, 3), 8)
    assert table.value(1) == 1 and table.value(7) == -22
    assert len(table) == 8
    assert repr(table) == "CoeffTable(a=1, b=3, limit=8, method='sparse')"
    with pytest.raises(IndexError):
        table.value(0)
    with pytest.raises(IndexError):
        table.value(9)


def test_table_is_immutable():
    for method in METHODS:
        table = lambda_table(LambdaParams(1, 1), 16, method)
        assert isinstance(table._vals, np.ndarray) and table._vals.dtype == np.int64
        with pytest.raises(ValueError):
            table._vals[0] = 99


def test_table_value_ranges():
    table = lambda_table(LambdaParams(1, 1), 8)
    assert table.values(3, 5) == [9, 10, -30]
    assert table.values(8) == [42]
    assert table.values(1, 8) == table.values()
    with pytest.raises(IndexError):
        table.values(0, 2)
    with pytest.raises(IndexError):
        table.values(1, 9)
    with pytest.raises(IndexError):
        table.values(9)
    with pytest.raises(IndexError):
        table.values(6, 2)


def test_table_take():
    table = lambda_table(LambdaParams(1, 1), 8)
    got = table.take(np.array([8, 3, 3, 1]))
    assert got.dtype == np.int64 and got.tolist() == [42, 9, 9, 1]
    assert table.take([]).tolist() == []
    got[0] = 0  # a copy, not a view of the read-only table
    assert table.value(8) == 42
    for bad in ([0, 2], [1, 9]):
        with pytest.raises(IndexError, match=r"^table covers 1\.\.8, got index (0|9)$"):
            table.take(bad)


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 5), (4, 6), (5, 5)])
def test_methods_agree(a, b):
    params = LambdaParams(a, b)
    want = oracle_product_table(a, b, 300)
    for method in ("sparse", "newton", "naive"):
        assert lambda_table(params, 300, method).values() == want
    for n in range(60):
        assert lambda_from_reps(params, n) == want[n]


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 5)])
def test_naive_promotes_to_python_ints(a, b, monkeypatch):
    # with the int64 headroom lowered to 2^6 the tables leave int64 after a
    # few factors and finish in Python ints, with the same values
    import etaquad.etaseries as es

    params = LambdaParams(a, b)
    assert es._table_naive(params, 300).dtype == np.int64
    monkeypatch.setattr(es, "_NAIVE_INT64_HEADROOM", 1 << 6)
    assert es._table_naive(params, 300).dtype == object
    for limit in (1, 2, 17, 300):
        want = lambda_table(params, limit, "sparse").values()
        assert lambda_table(params, limit, "naive").values() == want


def test_naive_promotes_on_its_own():
    # (1, 1) crosses the 2^59 headroom between N = 2000 and 3000
    import etaquad.etaseries as es

    params = LambdaParams(1, 1)
    assert es._table_naive(params, 2000).dtype == np.int64
    vals = es._table_naive(params, 3000)
    assert vals.dtype == object
    assert vals.tolist() == lambda_table(params, 3000, "sparse").values()


@pytest.mark.parametrize("a,b", [(2**70, 1), (1, 2**70)], ids=["a", "b"])
def test_multiplier_past_int64(a, b):
    # a multiplier >= limit meets only k = 0, so no route may put it in int64;
    # the limit stays small so that the partition sums stay cheap
    params = LambdaParams(a, b)
    for limit in (1, 2, 12):
        want = oracle_product_table(a, b, limit)
        for method in METHODS:
            assert lambda_table(params, limit, method).values() == want


def test_table_budget_checked_before_any_method():
    over = TABLE_BUDGET_BYTES // 8 + 1
    for method in METHODS:
        with pytest.raises(ResourceLimitError, match=f"^table to {over} needs {8 * over} bytes"):
            lambda_table(LambdaParams(1, 1), over, method)


def test_sparse_bound_fits_int64_within_budget():
    # the bound shrinks as a and b grow, so (1, 1) at the largest table
    # the budget allows is the worst case; this is why sparse has no
    # big-int route
    assert _sparse_partial_sum_bound(1, 1, TABLE_BUDGET_BYTES // 8) <= _INT64_SAFE


def test_int64_guard():
    # the one conversion point keeps every value in int64, never wrapping
    params = LambdaParams(1, 1)
    table = CoeffTable(params, 2, "naive", [(1 << 63) - 1, -(1 << 63)])
    assert table.values() == [(1 << 63) - 1, -(1 << 63)]
    with pytest.raises(OverflowError):
        CoeffTable(params, 1, "naive", [1 << 63])
    with pytest.raises(OverflowError):
        CoeffTable(params, 2, "naive", [2, -(1 << 63) - 1])


def test_partition_terms_counts():
    # partition numbers p(0)..p(10)
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(want):
        terms = list(partition_terms(n))
        assert len(terms) == count
        for term in terms:
            assert sum((i + 1) * k for i, k in enumerate(term.multiplicities)) == n
    with pytest.raises(ValueError):
        partition_terms(-1)


def test_multinomial_examples():
    assert lambda_multinomial(LambdaParams(1, 1), 1) == -6
    assert lambda_multinomial(LambdaParams(1, 1), 2) == 9
    assert lambda_multinomial(LambdaParams(9, 2), 0) == 1


@pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (1, 7), (3, 5)])
def test_multinomial_matches_table(a, b):
    params = LambdaParams(a, b)
    table = lambda_table(params, 14)
    for n in range(13):
        assert lambda_multinomial(params, n) == table.value(n + 1)


def test_multinomial_table_up_to_cap():
    # entry n + 1 is the partition sum of n, so the cap of 40 allows 41 entries
    params = LambdaParams(1, 1)
    assert lambda_table(params, 41, "multinomial").values() == oracle_product_table(1, 1, 41)
    with pytest.raises(PartitionCapError):
        lambda_table(params, 42, "multinomial")


def test_multinomial_cap_checked_before_any_sum(monkeypatch):
    import etaquad.etaseries as es

    def no_sums(n):
        raise AssertionError(f"partition sum of {n} computed before the cap check")

    monkeypatch.setattr(es, "partition_terms", no_sums)
    for limit in (42, 2**28):
        with pytest.raises(PartitionCapError, match="^partition sum capped at 40, got index 41$"):
            lambda_table(LambdaParams(1, 1), limit, "multinomial")


def test_multinomial_cap():
    with pytest.raises(PartitionCapError):
        lambda_multinomial(LambdaParams(1, 1), 41)
    with pytest.raises(PartitionCapError):
        lambda_multinomial(LambdaParams(1, 1), 13, cap=12)
    with pytest.raises(ValueError):
        lambda_multinomial(LambdaParams(1, 1), -1)


def test_from_reps_examples():
    assert lambda_from_reps(LambdaParams(1, 3), 3) == 2
    assert lambda_from_reps(LambdaParams(1, 1), 0) == 1
    assert lambda_from_reps(LambdaParams(1, 7), 0) == 1
    with pytest.raises(ValueError):
        lambda_from_reps(LambdaParams(1, 7), -1)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_exchange_symmetry(a, b):
    n = 120
    assert (
        lambda_table(LambdaParams(a, b), n).values()
        == lambda_table(LambdaParams(b, a), n).values()
    )


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_sparse_loop_order_is_invisible(a, b, limit):
    # the sparse loop runs over the larger multiplier whichever order (a, b)
    # comes in; both orders give one array, and it equals the recurrence
    if a == b:
        b = a % 40 + 1
    ab = _table_sparse(LambdaParams(a, b), limit)
    ba = _table_sparse(LambdaParams(b, a), limit)
    assert ab.dtype == ba.dtype == np.int64
    assert np.array_equal(ab, ba)
    assert ab.tolist() == lambda_table(LambdaParams(a, b), limit, "newton").values()


@pytest.mark.parametrize("c", [2, 3, 4])
@pytest.mark.parametrize("a,b", [(1, 1), (1, 3)])
def test_rescaling(c, a, b):
    # the (ca, cb) table is the (a, b) table spread to indices c(n-1)+1
    n_max = 200
    base = lambda_table(LambdaParams(a, b), n_max)
    scaled = lambda_table(LambdaParams(c * a, c * b), c * (n_max - 1) + 1)
    for m in range(1, len(scaled) + 1):
        if (m - 1) % c == 0:
            assert scaled.value(m) == base.value((m - 1) // c + 1)
        else:
            assert scaled.value(m) == 0


def test_lambda_17_multiplicative():
    from math import gcd

    table = lambda_table(LambdaParams(1, 7), 500)
    for m in range(1, 501):
        for n in range(1, 500 // m + 1):
            if gcd(m, n) == 1:
                assert table.value(m * n) == table.value(m) * table.value(n)


def test_newton_table_dtype_paths():
    # the int64 fast path and the big-int path share the recurrence
    sparse = lambda_table(LambdaParams(2, 6), 400, "sparse")
    newton = lambda_table(LambdaParams(2, 6), 400, "newton")
    assert sparse.values() == newton.values()
    assert isinstance(newton._vals, np.ndarray) and newton._vals.dtype == np.int64


def test_newton_resume_midstream(monkeypatch):
    # the big-int inner sums must agree no matter where they take over:
    # step n switches when sum(c) * max|L[0..n-1]| first exceeds the
    # safety bound, so a switch can only happen where |L[n-1]| is a new
    # running maximum
    import etaquad.etaseries as es
    from etaquad.arith import weighted_sigma

    want = oracle_product_table(2, 3, 120)
    csum = sum(weighted_sigma(2, 3, k) for k in range(1, 120))

    def peak(n):
        return max(abs(v) for v in want[:n])

    records = [1] + [n for n in range(2, 120) if peak(n) > peak(n - 1)]
    # the first step, one mid-table, and the last step of a table cut
    # right after the last record (L[114]; the entries above stay smaller)
    mid, last = records[len(records) // 2], records[-1]
    for start, limit in ((1, 120), (mid, 120), (last, last + 1)):
        monkeypatch.setattr(es, "_INT64_SAFE", csum * peak(start) - 1)
        assert start == 1 or csum * peak(start - 1) <= es._INT64_SAFE
        table = lambda_table(LambdaParams(2, 3), limit, "newton")
        assert table.values() == want[:limit]
        assert table._vals.dtype == np.int64 and not table._vals.flags.writeable


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=120, deadline=None)
def test_from_reps_matches_table_random(a, b, n):
    params = LambdaParams(a, b)
    assert lambda_from_reps(params, n) == lambda_table(params, n + 1).value(n + 1)


_PAIRS = st.one_of(
    st.integers(min_value=1, max_value=15).flatmap(
        lambda b: st.tuples(st.integers(min_value=b + 1, max_value=16), st.just(b))
    ),
    st.integers(min_value=1, max_value=16).map(lambda b: (b, b)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda ab: (2 * ab[0], 2 * ab[1])),
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
)


@given(
    _PAIRS,
    st.integers(min_value=1, max_value=3000),
    st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=12),
    st.sampled_from([1, 5, 1 << 16]),
)
@settings(max_examples=120, deadline=None)
def test_lambda_at_matches_table(pair, limit, draws, cells):
    # random indices of a random table, in one call; small chunks of the scan too
    import etaquad.etaseries as es

    params = LambdaParams(*pair)
    indices = [1 + d % limit for d in draws]
    with mock.patch.object(es, "_KERNEL_CELLS", cells):
        got = lambda_at(params, indices)
    assert got.dtype == np.int64
    assert got.tolist() == lambda_table(params, limit).take(indices).tolist()


def test_lambda_at_examples():
    assert lambda_at(LambdaParams(1, 1), []).tolist() == []
    assert lambda_at(LambdaParams(1, 7), [1, 11, 11]).tolist() == [1, -6, -6]
    assert lambda_at(LambdaParams(1, 7), [300000031]).tolist() == [
        lambda_from_reps(LambdaParams(1, 7), 300000030)
    ]
    with pytest.raises(ValueError, match=">= 1"):
        lambda_at(LambdaParams(1, 7), [3, 0])


def test_lambda_at_ceiling(monkeypatch):
    import etaquad.etaseries as es

    # just below the ceiling: a = b = 2^51 - 1 gives t = 2^52 - 2 at n = 1
    big = LambdaParams(2**51 - 1, 2**51 - 1)
    assert lambda_at(big, [1]).tolist() == [1]
    # at and past it the check raises before numpy allocates anything
    monkeypatch.setattr(es, "np", None)
    for params, n in ((big, 2), (LambdaParams(1, 7), 2**49), (LambdaParams(1, 7), 2**49 + 1)):
        t = 8 * (n - 1) + params.a + params.b
        assert t >= EXACT_FLOAT_CEILING == 2**52
        with pytest.raises(ResourceLimitError, match=rf"= {t}, past the exact-float ceiling 2\^52"):
            lambda_at(params, [1, n])


def test_big_int_fallbacks_forced(monkeypatch):
    # shrink the partial-sum safety bound: newton bails out to its big-int
    # route, which must agree with the oracle exactly; sparse has no such
    # route, so a failed bound there is reported as a bug
    import etaquad.etaseries as es

    want = oracle_product_table(1, 3, 150)
    monkeypatch.setattr(es, "_INT64_SAFE", 10)
    with pytest.raises(InternalInconsistencyError, match="may leave int64"):
        lambda_table(LambdaParams(1, 3), 150, "sparse")
    newton = lambda_table(LambdaParams(1, 3), 150, "newton")
    assert newton.values() == want
