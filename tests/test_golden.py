"""Golden outputs: every case, byte for byte, frozen from trusted code.

Four fixtures under ``tests/golden/``:

* ``cli_verify.json`` -- stdout and exit code of ``verify`` (TSV and
  ``--json``) for every case over ``GRID`` at ``CLI_P_MAX``;
* ``verdicts.json``   -- the full verdict tuple (status, witness, index,
  lhs, rhs, reason, details) of every case and grid entry at every odd
  prime below ``VERDICT_P_MAX``;
* ``falsified.json``  -- the same tuple of every falsified verdict, and the
  type and message of every raised fault, that each fault of ``FAULTS``
  gives at those instances and primes;
* ``table_limits.json`` -- the coefficient tables ``range_report`` sizes
  up front for every case and grid entry at each of ``TABLE_P_MAXES``.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only from
a commit whose outputs are already trusted; a refactor must pass against
the fixture as committed.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import HighCache, NegatedCache, oracle_primes, outcome_of, sign_mutants

import etaquad.theorems as th
from etaquad import (
    FALSIFIED,
    TableCache,
    case_arity,
    case_ids,
    make_case,
    range_report,
    verify_construction,
    verify_product,
    verify_thm53,
)
from etaquad.cli import main

GOLDEN = Path(__file__).parent / "golden"
CLI_P_MAX = 10**4
VERDICT_P_MAX = 360
# tiny values where the product-case clamp to limit 1 applies, and non-primes
TABLE_P_MAXES = (3, 5, 7, 11, 12, 100, 999, 2048)
PRODUCT_CASES = ("T4.1", "T4.2", "T4.3")

# 3-4 admissible parameter sets per parametrized case
GRID = {
    "C3.3": [(1, 3), (3, 5), (5, 7)],
    "C3.4": [(1,), (3,), (5,)],
    "C3.5": [(1, 2), (3, 2), (5, 4)],
    "T3.1": [(1, 1), (1, 3), (3, 5), (5, 7)],
    "T3.2i": [(1, 3), (1, 5), (3, 5), (5, 7)],
    "T3.2ii": [(1, 2), (1, 6), (3, 2), (5, 4)],
    "T3.3": [(1, 2), (3, 2), (5, 2), (3, 4)],
    "T4.1": [(1, 1), (1, 2), (2, 5), (3, 5)],
    "T4.2": [(1, 5), (3, 7), (1, 9)],
    "T4.3": [(1, 11), (5, 7), (3, 9)],
}


def instances():
    for case_id in case_ids():
        for params in GRID.get(case_id, [()]) if case_arity(case_id) else [()]:
            yield case_id, params


def label(case_id, params):
    return f"{case_id}({','.join(map(str, params))})" if params else case_id


def cli_outputs() -> dict:
    out = {}
    for case_id, params in instances():
        argv = ["verify", "--case", case_id, "--p-max", str(CLI_P_MAX)]
        for flag, value in zip(("--a", "--b"), params):
            argv += [flag, str(value)]
        for extra in ([], ["--json"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv + extra)
            out[" ".join(argv + extra)] = {
                "exit": code,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
            }
    return out


def verdict(case, p, cache):
    """The case's verdict at the odd prime p, through its verify_* entry."""
    if case.case_id == "T5.3":
        return verify_thm53(p, cache)
    if case.case_id in PRODUCT_CASES:
        return verify_product(case, p, cache)
    return verify_construction(case, p, cache)


def verdict_primes(case_id):
    """The odd primes below VERDICT_P_MAX where the case takes a verdict."""
    return [p for p in oracle_primes(VERDICT_P_MAX) if p > (5 if case_id == "T5.3" else 2)]


def verdict_fields(v) -> list:
    return [v.status, v.witness, v.index, v.lhs, v.rhs, v.reason, v.details]


def verdict_rows() -> dict:
    cache = TableCache()
    out = {}
    for case_id, params in instances():
        case = make_case(case_id, *params)
        rows = [[p, *verdict_fields(verdict(case, p, cache))] for p in verdict_primes(case_id)]
        # through JSON so tuples compare equal to the stored lists
        out[label(case_id, params)] = json.loads(json.dumps(rows))
    return out


def _signed(name):
    def install(mp):
        real = th._built_rule
        mp.setattr(th, "_built_rule", lambda cid, ps: dict(sign_mutants(real(cid, ps)))[name])

    return install


# each fault: (name, the test of the instances it applies to, the cache it
# reads through, and what it patches into etaquad.theorems)
FAULTS = (
    ("high", lambda case: True, HighCache, lambda mp: None),
    ("negated", lambda case: True, NegatedCache, lambda mp: None),
    ("sign + 1", lambda case: case._rule.sign is not None, TableCache, _signed("sign + 1")),
    ("sign x < 0", lambda case: case._rule.sign is not None, TableCache, _signed("sign x < 0")),
    (
        "normalized_reps (1, -3)",
        lambda case: case.case_id in PRODUCT_CASES,
        TableCache,
        lambda mp: mp.setattr(th, "normalized_reps", lambda form, t: [(1, -3)]),
    ),
    (
        "find_rep None",
        lambda case: case.case_id == "T5.3",
        TableCache,
        lambda mp: mp.setattr(th, "find_rep", lambda a, b, m: None),
    ),
)


def falsified_rows() -> dict:
    """Fault and instance -> [p, *fields] of each falsified verdict and
    [p, "raised", type, message] of each raised fault, primes ascending."""
    out = {}
    for name, applies, cache_type, install in FAULTS:
        cases = [make_case(case_id, *params) for case_id, params in instances()]
        cases = [case for case in cases if applies(case)]
        cache = cache_type()
        with pytest.MonkeyPatch.context() as mp:
            install(mp)
            for case in cases:
                rows = []
                for p in verdict_primes(case.case_id):
                    got = outcome_of(lambda: verdict(case, p, cache))
                    if isinstance(got, tuple):  # a raised fault's type and message
                        rows.append([p, "raised", got[0].__name__, got[1]])
                    elif got.status == FALSIFIED:
                        rows.append([p, *verdict_fields(got)])
                out[f"{name} {label(case.case_id, case.params())}"] = json.loads(json.dumps(rows))
    return out


class CountingCache(TableCache):
    """Records every table build and the largest limit asked per table."""

    def __init__(self):
        super().__init__()
        self.builds: list[tuple[int, int, int]] = []
        self.asked: dict[tuple[int, int], int] = {}

    def get(self, a, b, min_limit):
        key = (a, b) if a <= b else (b, a)
        before = self._tables.get(key)
        table = super().get(a, b, min_limit)
        if table is not before:
            self.builds.append((*key, table.limit))
        self.asked[key] = max(self.asked.get(key, 0), min_limit)
        return table


def presized(case_id, params, p_max) -> CountingCache:
    cache = CountingCache()
    range_report(case_id, p_max, [params] if params else None, cache=cache)
    return cache


def table_limits() -> dict:
    out = {}
    for case_id, params in instances():
        out[label(case_id, params)] = {
            str(p_max): [list(b) for b in presized(case_id, params, p_max).builds]
            for p_max in TABLE_P_MAXES
        }
    return out


def load(name):
    return json.loads((GOLDEN / name).read_text())


def test_golden_cli_verify():
    want = load("cli_verify.json")
    got = cli_outputs()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_golden_verdicts():
    want = load("verdicts.json")
    got = verdict_rows()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def test_golden_falsified():
    # every fault's falsified verdicts and raised faults, field by field; at
    # the fixture's commit each fault falsified at least one verdict
    want = load("falsified.json")
    got = falsified_rows()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
    assert {key.rsplit(" ", 1)[0] for key, rows in want.items() if rows} == {f[0] for f in FAULTS}


def test_tables_presized_once():
    # every table is built once, before the verdict loop, at the limit
    # the index rule gives at p_max; the loop never asks for more
    want = load("table_limits.json")
    for case_id, params in instances():
        for p_max in TABLE_P_MAXES:
            cache = presized(case_id, params, p_max)
            builds = want[label(case_id, params)][str(p_max)]
            assert [list(b) for b in cache.builds] == builds, (case_id, params, p_max)
            assert cache.asked == {(a, b): limit for a, b, limit in builds}


def test_grid_builds_each_table_once_through_the_callers_cache():
    # a whole GRID as one range builds each table once, in the caller's cache,
    # to the largest limit its instances ask for one at a time
    want = load("table_limits.json")
    for case_id, grid in GRID.items():
        cache = CountingCache()
        range_report(case_id, 2048, grid, cache=cache)
        limits = {}
        for params in grid:
            for a, b, limit in want[label(case_id, params)]["2048"]:
                limits[a, b] = max(limits.get((a, b), 0), limit)
        assert sorted(cache.builds) == sorted((*key, limit) for key, limit in limits.items())


def test_presized_limit_examples():
    assert presized("E1.6", (), 1000).builds == [(1, 7, 1000)]
    assert presized("T5.3", (), 100).builds == [(3, 5, 500)]
    assert presized("C3.1", (), 12).builds == [(1, 1, 3)]
    assert presized("C3.3", (3, 5), 100).builds == [(3, 5, 100), (1, 15, 199)]
    assert presized("C3.4", (3,), 12).builds == [(3, 4, 10)]
    assert presized("T3.3", (3, 2), 11).builds == [(2, 3, 10)]
    # (p_max - a - b) // 8 + 1 = 0 here: clamped to the minimum limit 1
    assert presized("T4.1", (3, 5), 3).builds == [(3, 5, 1)]
    assert presized("T4.3", (5, 7), 11).builds == [(5, 7, 5)]


def test_no_rule_lists_a_hypothesis_twice():
    # a repeated hypothesis is checked twice per prime, and the mutation test's
    # mutant that drops it by name would drop one copy and change nothing
    for case_id, params in instances():
        reasons = [why for _, why in make_case(case_id, *params)._rule.hypotheses]
        assert len(reasons) == len(set(reasons)), (label(case_id, params), reasons)


def write_rows(name, rows):
    """One line per key, keys sorted."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in sorted(rows.items())]
    (GOLDEN / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    cli = cli_outputs()
    (GOLDEN / "cli_verify.json").write_text(json.dumps(cli, indent=1, sort_keys=True) + "\n")
    write_rows("verdicts.json", verdict_rows())
    write_rows("falsified.json", falsified_rows())
    write_rows("table_limits.json", table_limits())
