"""Acceptance suite: one test per criterion, one printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact integer equality; the only tolerances are the
stated wall-clock and memory budgets of the performance criterion.
"""

import json
import subprocess
import sys
import time
from math import gcd

import pytest
from conftest import compose, gauss_doubling, jacobsthal, oracle_primes, unit_weight

from etaquad import (
    LambdaParams,
    QuadForm,
    TableCache,
    class_group,
    closed_form,
    find_rep,
    lambda_from_reps,
    lambda_multinomial,
    lambda_table,
    make_case,
    range_report,
    representations,
)


def _finish(num: int, name: str, ok: bool, extra: str = ""):
    suffix = f" ({extra})" if extra else ""
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def primes_10k():
    return oracle_primes(10**4)[1:]


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for a in range(1, 7):
        for b in range(1, 7):
            params = LambdaParams(a, b)
            sparse = lambda_table(params, 1000, "sparse").values()
            newton = lambda_table(params, 1000, "newton").values()
            naive = lambda_table(params, 1000, "naive").values()
            ok = ok and sparse == newton == naive
            ok = ok and all(lambda_from_reps(params, n) == sparse[n] for n in range(200))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _finish(1, "four-route table equivalence, (a,b) in {1..6}^2, N=1000", ok, f"{elapsed:.1f}s")


def test_criterion_02_partition_formula():
    start = time.perf_counter()
    ok = True
    for a, b in [(1, 1), (1, 3), (1, 7), (3, 5)]:
        params = LambdaParams(a, b)
        table = lambda_table(params, 20)
        ok = ok and all(lambda_multinomial(params, n) == table.value(n + 1) for n in range(19))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    _finish(2, "partition formula matches tables, n <= 18", ok, f"{elapsed:.1f}s")


def test_criterion_03_single_prime_tables(primes_10k):
    r16 = range_report("E1.6", 10**4)
    r17 = range_report("E1.7", 10**4)
    r18 = range_report("E1.8", 10**4)
    want16 = sum(1 for p in primes_10k if p % 7 in (1, 2, 4))
    want17 = sum(1 for p in primes_10k if p % 4 == 1)
    want18 = sum(1 for p in primes_10k if p % 3 == 1)
    ok = (
        not r16.falsified
        and not r17.falsified
        and not r18.falsified
        and r16.checked == want16
        and r17.checked == want17
        and r18.checked == want18
    )
    extra = f"checked {r16.checked}/{r17.checked}/{r18.checked} primes"
    _finish(3, "fixed-coefficient identities to p <= 10^4", ok, extra)


def test_criterion_04_odd_pair_grid():
    grid = [(a, b) for a in range(1, 10, 2) for b in range(1, 10, 2)]
    report = range_report("T3.1", 3000, grid=grid)
    ok = not report.falsified and report.checked > 0
    extra = f"checked {report.checked}, not applicable {report.skipped}"
    _finish(4, "odd-pair construction grid a,b <= 9, p <= 3000", ok, extra)


def test_criterion_05_remaining_construction_cases():
    odd_coprime = [
        (a, b)
        for a in range(1, 10, 2)
        for b in range(a, 10, 2)
        if gcd(a, b) == 1
    ]
    mixed = [
        (a, b)
        for a in range(1, 10, 2)
        for b in (2, 4, 6, 10, 12)
        if gcd(a, b) == 1
    ]
    full_mixed = [(a, b) for a in range(1, 10, 2) for b in (2, 4, 6, 10, 12)]
    jobs = [
        ("T3.2i", odd_coprime),
        ("T3.2ii", mixed),
        ("T3.3", full_mixed),
        ("C3.1", None),
        ("C3.2", None),
        ("C3.3", odd_coprime),
        ("C3.4", [1, 3, 5, 7, 9]),
        ("C3.5", mixed),
        ("E3.1", None),
        ("E3.2", None),
        ("E3.3", None),
        ("E3.4", None),
        ("E3.5", None),
        ("E3.6", None),
    ]
    cache = TableCache()
    ok = True
    checked = 0
    for case_id, grid in jobs:
        report = range_report(case_id, 5000, grid=grid, cache=cache)
        ok = ok and not report.falsified and report.checked > 0
        checked += report.checked
    _finish(5, "remaining construction and equality cases, p <= 5000", ok, f"checked {checked}")


def test_criterion_06_product_identities():
    cache = TableCache()
    ok = True
    checked = 0
    for case_id in ("T4.1", "T4.2", "T4.3"):
        grid = []
        for a in range(1, 13):
            for b in range(1, 13):
                try:
                    make_case(case_id, a, b)
                except ValueError:
                    continue
                grid.append((a, b))
        report = range_report(case_id, 2000, grid=grid, cache=cache)
        ok = ok and not report.falsified and report.checked > 0
        checked += report.checked
    _finish(6, "product identities and square recovery, a,b <= 12, p <= 2000", ok, f"checked {checked}")


def test_criterion_07_closed_forms():
    cache = TableCache()
    t13 = cache.get(1, 3, 2001)
    t17 = cache.get(1, 7, 4001)
    t35 = cache.get(3, 5, 4001)
    t115 = cache.get(1, 15, 8001)
    t11 = cache.get(1, 1, 1001)
    ok = True
    for n in range(0, 2001):
        ok = ok and closed_form("L13", n) == t13.value(n + 1)
        ok = ok and closed_form("L17", n) == t17.value(2 * n + 1)
        ok = ok and closed_form("L35", n) == t35.value(2 * n + 1)
        ok = ok and closed_form("L115", n) == t115.value(4 * n + 1)
    for n in range(0, 1001):
        ok = ok and closed_form("KF", n) == t11.value(n + 1)
    report = range_report("T5.3", 5000, cache=cache)
    ok = ok and not report.falsified and report.checked > 0
    _finish(7, "closed forms to 4001 and the four-index case split to p <= 5000", ok)


def test_criterion_08_form_ground_truth():
    ok = [(f.a, f.b, f.c) for f in class_group(-12)] == [(1, 0, 3)]
    ok = ok and [(f.a, f.b, f.c) for f in class_group(-28)] == [(1, 0, 7)]
    ok = ok and [(f.a, f.b, f.c) for f in class_group(-60)] == [(1, 0, 15), (3, 0, 5)]
    ok = ok and representations(QuadForm(3, 0, 5), 8).count == 4
    ok = ok and representations(QuadForm(1, 0, 15), 8).count == 0
    ok = ok and representations(QuadForm(1, 0, 15), 16).count == 6
    ok = ok and representations(QuadForm(3, 0, 5), 16).count == 0
    # coprime convolution rule over the seven listed discriminants
    bound = 60
    for d in [-12, -20, -24, -40, -52, -60, -84]:
        group = list(class_group(d))
        small = {
            K: [0] + [representations(K, n).count for n in range(1, bound + 1)] for K in group
        }
        mult = {(K1, K2): compose(K1, K2) for K1 in group for K2 in group}
        products = {}
        for n1 in range(1, bound + 1):
            for n2 in range(1, bound + 1):
                if gcd(n1, n2) != 1:
                    continue
                m = n1 * n2
                if m not in products:
                    products[m] = {K: representations(K, m).count for K in group}
                for K in group:
                    conv = sum(
                        small[K1][n1] * small[K2][n2]
                        for K1 in group
                        for K2 in group
                        if mult[(K1, K2)] == K
                    )
                    ok = ok and unit_weight(d) * products[m][K] == conv
    _finish(8, "printed class groups, printed counts, convolution rule", ok)


def test_criterion_09_classical_concordance():
    ok = True
    for p in oracle_primes(2000):
        if p % 4 != 1:
            continue
        x, y = find_rep(1, 1, p)
        if x % 2 == 0:
            x, y = y, x
        if x % 4 != 1:
            x = -x
        ok = ok and (2 * x) % p == gauss_doubling(p)
        ok = ok and jacobsthal(p) == -2 * x
    _finish(9, "classical single-prime constructions agree to p <= 2000", ok)


_PERF_CHILD = r"""
import json, resource, time
from etaquad import LambdaParams, lambda_table
t0 = time.perf_counter()
table = lambda_table(LambdaParams(1, 1), 10**7, "sparse")
elapsed = time.perf_counter() - t0
head = [table.value(n) for n in range(1, 65)]
print(json.dumps({
    "elapsed": elapsed,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "head": head,
}))
"""


def test_criterion_10_performance():
    proc = subprocess.run(
        [sys.executable, "-c", _PERF_CHILD],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    newton_ref = lambda_table(LambdaParams(1, 1), 64, "newton")
    head_ok = stats["head"] == newton_ref.values()

    t0 = time.perf_counter()
    newton_big = lambda_table(LambdaParams(1, 1), 10**4, "newton")
    newton_elapsed = time.perf_counter() - t0
    sparse_big = lambda_table(LambdaParams(1, 1), 10**4, "sparse")
    newton_ok = newton_big.values() == sparse_big.values() and newton_elapsed <= 5

    ok = head_ok and stats["elapsed"] <= 10 and stats["maxrss_mb"] <= 200 and newton_ok
    extra = (
        f"sparse 1e7: {stats['elapsed']:.2f}s, {stats['maxrss_mb']:.0f} MB; "
        f"newton 1e4: {newton_elapsed:.2f}s"
    )
    _finish(10, "performance envelope", ok, extra)
