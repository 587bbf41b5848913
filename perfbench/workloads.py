"""The timed operation lists and their correctness checks.

Every operation is timed on its own.  Once all are done, each output is
checked by a route other than the one that was timed (independent
enumeration, a second table method, sums over representations), outside
any span.  A digest over all outputs lets a run that skips the checks be
held to one that made them.

etaquad is called through the package and module attributes at call
time (`E.lambda_table`, `E.cli.main`, ...), so spans installed by
`tracing` see the same calls as an untraced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from math import isqrt

import numpy as np

import etaquad as E
import etaquad.cli
import etaquad.theorems

import gauge
import inputs

NEWTON_PREFIX = 400  # sparse builds are compared with the recurrence this far
TABLE_HEAD = 2_000  # leading values of a sparse table that enter the digest
REPS_HEAD = 1_000_000  # ... and that are compared with _reps_table when checking
DUMP_CHUNK_ROWS = 1 << 16
GAUGE_EVERY_S = 0.25  # read the speed gauge this often between operations


class Failure(Exception):
    """An operation returned a wrong result."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Failure(what)


def _lambda_ref(a: int, b: int, index: int) -> int:
    """Table value at `index` as a sum over representations."""
    return E.lambda_from_reps(E.LambdaParams(a, b), index - 1)


def _reps_table(a: int, b: int, n: int) -> np.ndarray:
    """L(a, b; 1..n) from the sums of x*y over a*x^2 + b*y^2 = 8(i-1) + a + b
    with x = y = 1 (mod 4), accumulated over the lattice points at once:
    the rule of `lambda_from_reps`, vectorized here as an independent table."""
    top = 8 * (n - 1) + a + b
    vals = np.zeros(n, dtype=np.int64)
    xmax = isqrt(top // a)
    for x in range(-xmax + (1 + xmax) % 4, xmax + 1, 4):
        rem = top - a * x * x
        if rem < b:
            continue
        ylim = isqrt(rem // b)
        y = np.arange(-ylim + (1 + ylim) % 4, ylim + 1, 4, dtype=np.int64)
        # y = 1 (mod 4) makes every |y|, hence every index, distinct for one x
        vals[(a * x * x + b * y * y - a - b) // 8] += x * y
    return vals


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(v)) for 0 <= v < 2^52, exactly."""
    x = np.floor(np.sqrt(v.astype(np.float64))).astype(np.int64)
    x -= x * x > v
    x += (x + 1) * (x + 1) <= v
    return x


def _nonneg_solutions(a: int, b: int, m: int) -> list[tuple[int, int]]:
    """All x, y >= 0 with a*x^2 + b*y^2 = m, by a vectorized scan over y."""
    y = np.arange(isqrt(m // b) + 1, dtype=np.int64)
    rem = m - b * y * y
    x2 = rem // a
    x = _isqrt(x2)
    hit = (rem % a == 0) & (x * x == x2)
    return sorted(zip(x[hit].tolist(), y[hit].tolist()))


def _representable(a: int, b: int, m: np.ndarray, odd_x=False, odd_y=False) -> np.ndarray:
    """r[i] true iff m[i] = a*x^2 + b*y^2 for some x, y >= 0 (odd where
    asked), by a scan over y.  Odd x and y are exactly the solutions that
    signs can turn into x = y = 1 (mod 4)."""
    found = np.zeros(len(m), dtype=bool)
    for y in range(1 if odd_y else 0, isqrt(int(m.max()) // b) + 1, 2 if odd_y else 1):
        rem = m - b * y * y
        x2 = np.maximum(rem, 0) // a
        x = _isqrt(x2)
        hit = (rem >= 0) & (rem % a == 0) & (x * x == x2)
        found |= hit & (x % 2 == 1) if odd_x else hit
    return found


def _applicable(case_id: str, params, primes) -> np.ndarray:
    """r[i] true iff the case's hypotheses hold at the odd prime primes[i],
    so that its verdict is `holds` and not `not_applicable`.  The
    hypotheses are restated from the paper and decided by a scan over y,
    not by etaquad's representation search."""
    p = np.asarray(primes, dtype=np.int64)
    a, b = params or (None, None)
    if case_id == "E1.6":
        return _representable(1, 7, p) & np.isin(p % 7, (1, 2, 4))
    if case_id == "C3.1":
        return _representable(1, 1, p, odd_x=True) & (p % 4 == 1)
    if case_id == "T3.1":
        return _representable(a, b, p) & (p != a) & (p != b) & ((a * b + 1) % p != 0)
    if case_id == "C3.3":
        return _representable(1, a * b, p) & (p != a * b) & (p != a * b + 1)
    if case_id == "T4.1":
        return _representable(a, b, p, True, True) & (p >= a + b) & ((p - a - b) % 8 == 0)
    if case_id == "T4.3":
        return _representable(a, b, 4 * p, True, True) & (a * b % p != 0)
    if case_id == "T5.3":
        return p > 5
    raise Failure(f"no hypotheses for case {case_id}")


def _reduced_forms(d: int) -> set[tuple[int, int, int]]:
    """Every reduced primitive form [a, b, c] of discriminant d < 0,
    enumerated over a <= sqrt(|d|/3) and -a < b <= a."""
    top = isqrt(-d // 3)
    a = np.arange(1, top + 1, dtype=np.int64)[:, None]
    b = np.arange(-top + 1, top + 1, dtype=np.int64)[None, :]
    num = b * b - d
    ok = (b > -a) & (b <= a) & (num % (4 * a) == 0)
    a, b = np.broadcast_to(a, ok.shape)[ok], np.broadcast_to(b, ok.shape)[ok]
    c = (b * b - d) // (4 * a)
    ok = ((c > a) | ((c == a) & (b >= 0))) & (np.gcd(np.gcd(a, b), c) == 1)
    return set(zip(a[ok].tolist(), b[ok].tolist(), c[ok].tolist()))


def _signed(pairs) -> set[tuple[int, int]]:
    return {(sx * x, sy * y) for x, y in pairs for sx in (1, -1) for sy in (1, -1)}


def _bracketing_gauges(gauges: list[tuple[int, float]], count: int) -> list[float]:
    """For each of `count` operations, the mean of the gauges taken just
    before and just after it; `gauges` holds (operations done, seconds)."""
    out, g = [], 0
    for i in range(count):
        while gauges[g + 1][0] <= i:
            g += 1
        out.append((gauges[g][1] + gauges[g + 1][1]) / 2)
    return out


def _verdict_data(v) -> dict:
    """The fields of a Verdict that the checks and the digest use."""
    return {
        "status": v.status,
        "reason": v.reason,
        "witness": list(v.witness) if v.witness else None,
        "index": v.index,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "details": [list(d) for d in v.details],
    }


# ---------------------------------------------------------------------------
# single-prime verdict checks (shared by verify-range samples and queries)


def _check_verdict(case_id: str, params, p: int, v: dict, applicable: bool) -> None:
    """A verdict is `holds` exactly where the case applies and
    `not_applicable` elsewhere; when it holds, its witness represents the
    target and its table values equal sums over reps."""
    status, index, lhs, rhs = v["status"], v["index"], v["lhs"], v["rhs"]
    want = "holds" if applicable else "not_applicable"
    _expect(status == want, f"{case_id} at p={p}: {status} ({v['reason']}), want {want}")
    if status != "holds":
        return
    x, y = v["witness"] or (None, None)
    if case_id in ("E1.6", "C3.1"):
        fb, ta, tb = (7, 1, 7) if case_id == "E1.6" else (1, 1, 1)
        _expect(x * x + fb * y * y == p, f"{case_id} witness {x},{y} does not give {p}")
        _expect(lhs == 4 * x * x - 2 * p, f"{case_id} left side {lhs} at p={p}")
        _expect(rhs == _lambda_ref(ta, tb, index), f"{case_id} table value at {index}")
    elif case_id == "T3.1":
        a, b = params
        _expect(a * x * x + b * y * y == p, f"T3.1 witness {x},{y} does not give {p}")
        _expect(rhs == _lambda_ref(a, b, index), f"T3.1 table value at {index}")
        _expect(abs(lhs) == abs(4 * a * x * x - 2 * p), f"T3.1 left side {lhs} at p={p}")
    elif case_id == "C3.3":
        a, b = params
        i2 = (a * b + 1) * (p - 1) // 8 + 1
        _expect(x * x + a * b * y * y == p, f"C3.3 witness {x},{y} does not give {p}")
        _expect(lhs == _lambda_ref(a, b, index), f"C3.3 ({a},{b}) value at {index}")
        _expect(rhs == _lambda_ref(1, a * b, i2), f"C3.3 (1,{a * b}) value at {i2}")
    elif case_id in ("T4.1", "T4.3"):
        a, b = params
        target = p if case_id == "T4.1" else 4 * p
        _expect(a * x * x + b * y * y == target, f"{case_id} witness {x},{y} misses {target}")
        _expect(x % 4 == 1 and y % 4 == 1, f"{case_id} witness {x},{y} not 1 (mod 4)")
        _expect(lhs == x * y, f"{case_id} left side {lhs} at p={p}")
        _expect(rhs == _lambda_ref(a, b, index), f"{case_id} table value at {index}")
    elif case_id == "T5.3":
        if x is not None:
            _expect(p in (x * x + 15 * y * y, 3 * x * x + 5 * y * y), f"T5.3 witness at {p}")
        for at, want, got in v["details"]:
            _expect(want == got == _lambda_ref(3, 5, at), f"T5.3 (3,5) value at {at}")
    else:
        raise Failure(f"no check for case {case_id}")


def _single(case_id: str, params, p: int, cache):
    """One direct single-prime verdict."""
    if case_id == "T5.3":
        return E.verify_thm53(p, cache)
    case = E.make_case(case_id, *(params or ()))
    if case_id.startswith("T4"):
        return E.verify_product(case, p, cache)
    return E.verify_construction(case, p, cache)


# ---------------------------------------------------------------------------
# workloads: each returns a list of (timed, keep, check) triples.  `timed`
# is the operation.  `keep` runs right after it, outside the timed region,
# and turns its result into plain data (the output digest is taken over
# it), so large results are released before the next operation.  `check`
# takes that data once every operation is done, so it adds nothing to the
# measured peak RSS.


def _verify_range_ops(inp: dict, out: dict):
    p_max = inp["p_max"]

    def op(case_id, params):
        argv = ["verify", "--case", case_id]
        if params:
            argv += ["--a", str(params[0]), "--b", str(params[1])]
        argv += ["--p-max", str(p_max), "--json"]

        def timed():
            # each case starts from a cold table cache, as one CLI process does
            E.theorems._SHARED_CACHE = E.theorems.TableCache()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = E.cli.main(argv)
            return rc, buf.getvalue()

        def keep(result):
            out["bytes_out"] += len(result[1].encode())
            return list(result)

        def check(kept):
            rc, text = kept
            doc = json.loads(text)
            _expect(rc == 0, f"verify {case_id} exited {rc}")
            _expect(doc["case"] == case_id and doc["p_max"] == str(p_max), "report header")
            _expect(doc["falsified"] == "0" and not doc["witnesses"], f"{case_id} falsified")
            primes = np.array(inputs.odd_primes_upto(p_max))
            holds_at = set(primes[_applicable(case_id, params, primes)].tolist())
            want = len(holds_at)
            checked, skipped = int(doc["checked"]), int(doc["skipped"])
            _expect(checked == want, f"{case_id}: {checked} primes checked, want {want}")
            _expect(skipped == inp["odd_primes"] - want, f"{case_id}: {skipped} primes skipped")
            # seeded sample primes through the direct single-prime route
            cache, holding = E.TableCache(), 0
            for p in inp["samples"][case_id]:
                v = _verdict_data(_single(case_id, params, p, cache))
                _check_verdict(case_id, params, p, v, p in holds_at)
                holding += v["status"] == "holds"
                if holding == inputs.VERIFY_SAMPLES_PER_CASE:
                    return
            raise Failure(f"{case_id}: too few applicable sample primes")

        return timed, keep, check

    return [op(case_id, params) for case_id, params in inp["cases"]]


def _table_dump_ops(inp: dict, out: dict, workdir: str, checking: bool):
    def build(method, pair, n):
        a, b = pair
        samples = sorted({s % n + 1 for s in inp["samples"]})
        head_len = n if method != "sparse" else TABLE_HEAD
        long_head = []  # filled only when checking; kept out of the digest

        def timed():
            return E.lambda_table(E.LambdaParams(a, b), n, method)

        def keep(table):
            if checking and method == "sparse":
                long_head.append(np.fromiter(map(table.value, range(1, REPS_HEAD + 1)), np.int64, REPS_HEAD))
            head = [table.value(i) for i in range(1, head_len + 1)]
            return [len(table), head, [table.value(s) for s in samples]]

        def check(kept):
            length, head, values = kept
            _expect(length == n, f"{method} table length {length}")
            if method == "sparse":
                ref = E.lambda_table(E.LambdaParams(a, b), NEWTON_PREFIX, "newton").values()
                _expect(head[:NEWTON_PREFIX] == ref, f"sparse {pair} differs from newton")
                head = long_head.pop()
            else:
                ref = E.lambda_table(E.LambdaParams(a, b), n, "sparse").values()
                _expect(head == ref, f"{method} {pair} differs from sparse")
            _expect(np.array_equal(head, _reps_table(a, b, len(head))), f"{method} {pair} differs from reps")
            for s, v in zip(samples, values):
                _expect(v == _lambda_ref(a, b, s), f"{method} {pair} value at {s}")

        return timed, keep, check

    def dump(pair, n):
        a, b = pair
        path = os.path.join(workdir, f"lambda-{a}-{b}.tsv")
        argv = ["lambda", "--a", str(a), "--b", str(b), "--n-max", str(n)]

        def timed():
            with open(path, "w") as f, contextlib.redirect_stdout(f):
                return E.cli.main(argv)

        def keep(rc):
            sha = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    sha.update(block)
            out["bytes_out"] += os.path.getsize(path)
            return [rc, sha.hexdigest()]

        def check(kept):
            rc, sha = kept
            _expect(rc == 0, f"lambda {pair} exited {rc}")
            want = _reps_table(a, b, n)
            for s in {s % n + 1 for s in inp["samples"]}:
                _expect(want[s - 1] == _lambda_ref(a, b, s), f"reps table ({a},{b}) at {s}")
            _expect(_check_dump(path, want) == sha, f"lambda {pair} file changed")

        out["files"].append(path)
        return timed, keep, check

    ops = [build(method, pair, n) for method, pair, n in inp["builds"]]
    return ops + [dump(pair, n) for pair, n in inp["dumps"]]


def _check_dump(path: str, want: np.ndarray) -> str:
    """Parse dumped `n<TAB>value` rows back, compare them with `want`
    (entry i-1 is the value of row i) and return the file's sha256."""
    sha = hashlib.sha256()
    row = 1
    with open(path, "rb") as f:
        while True:
            lines = f.readlines(DUMP_CHUNK_ROWS * 16)
            if not lines:
                break
            chunk = b"".join(lines)
            sha.update(chunk)
            cols = np.array(chunk.split(), dtype=np.int64).reshape(-1, 2)
            stop = row + len(cols)
            _expect(np.array_equal(cols[:, 0], np.arange(row, stop)), f"row numbering near row {row}")
            _expect(np.array_equal(cols[:, 1], want[row - 1 : stop - 1]), f"values near row {row}")
            row = stop
    _expect(row == len(want) + 1, f"{path} has {row - 1} rows, want {len(want)}")
    return sha.hexdigest()


def _point_query_ops(inp: dict, out: dict):
    cache = E.TableCache()
    cases = {"E1.6": None, "C3.1": None, "T4.1": (1, 2), "T5.3": None}
    queried = {case_id: [q[1] for q in inp["queries"] if q[0] == case_id] for case_id in cases}
    holds_at = {}  # filled at the first check of each case

    def verdict(case_id, p):
        params = cases[case_id]

        def timed():
            return _single(case_id, params, p, cache)

        def check(v):
            if case_id not in holds_at:
                primes = np.array(queried[case_id])
                holds_at[case_id] = set(primes[_applicable(case_id, params, primes)].tolist())
            _check_verdict(case_id, params, p, v, p in holds_at[case_id])

        return timed, _verdict_data, check

    def reps(c, n):
        form = E.QuadForm(1, 0, c)

        def check(pairs):
            pairs = [tuple(xy) for xy in pairs]
            _expect(all(x * x + c * y * y == n for x, y in pairs), f"reps of {n}: bad pair")
            want = _signed(_nonneg_solutions(1, c, n))
            _expect(len(pairs) == len(want) and set(pairs) == want, f"reps of {n} by x^2+{c}y^2")

        return (lambda: E.representations(form, n)), lambda r: [list(xy) for xy in r.pairs], check

    def find_rep(p):
        def check(rep):
            sols = _nonneg_solutions(3, 5, p)
            _expect(rep == (list(sols[0]) if sols else None), f"find_rep(3,5,{p}) = {rep}")

        return (lambda: E.find_rep(3, 5, p)), lambda r: None if r is None else list(r), check

    def class_group(d):
        def check(forms):
            got = {tuple(f) for f in forms}
            _expect(len(got) == len(forms), f"class_group({d}) repeats a form")
            want = _reduced_forms(d)
            _expect(got == want, f"class_group({d}): {len(got)} forms, want the {len(want)} reduced primitive ones")

        return (lambda: E.class_group(d)), lambda g: [[f.a, f.b, f.c] for f in g.classes], check

    ops = []
    for kind, *args in inp["queries"]:
        if kind == "reps":
            ops.append(reps(*args))
        elif kind == "find_rep":
            ops.append(find_rep(*args))
        elif kind == "class_group":
            ops.append(class_group(*args))
        else:
            ops.append(verdict(kind, *args))
    return ops


def run(workload: str, inp: dict, tracer, workdir: str, check: bool) -> dict:
    """Time every operation in turn, then (with `check`) check them all.

    Returns the latencies, for each operation the mean of the speed gauges
    read just before and just after it (gauges are read before the first
    operation, then once at least GAUGE_EVERY_S of operations have run,
    and after the last), the digest of every
    operation's output, the peak RSS reached before any check, and the
    failure count.  A child run without `check` is held to the digest of a
    checked one.
    """
    out = {"bytes_out": 0, "files": []}
    if workload == "verify-range":
        ops = _verify_range_ops(inp, out)
    elif workload == "table-dump":
        ops = _table_dump_ops(inp, out, workdir, check)
    else:
        ops = _point_query_ops(inp, out)
    latencies, kept, errors = [], [], {}
    gauges = [(0, gauge.seconds())]
    try:
        for i, (timed, keep, _) in enumerate(ops):
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = timed()
            except Exception:  # a raising operation counts as failed
                errors[i] = traceback.format_exc()
                result = None
            finally:
                latencies.append(time.perf_counter() - start)
                if tracer:
                    tracer.active = False
            kept.append(None if i in errors else keep(result))
            del result
            if sum(latencies[gauges[-1][0] :]) >= GAUGE_EVERY_S or i + 1 == len(ops):
                gauges.append((i + 1, gauge.seconds()))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for i, (_, _, check_op) in enumerate(ops):
            if check and i not in errors:
                try:
                    check_op(kept[i])
                except Exception:
                    errors[i] = traceback.format_exc()
            if i in errors:
                print(f"perfbench: {workload} operation {i + 1} failed:\n{errors[i]}", file=sys.stderr)
    finally:
        for path in out.pop("files"):
            if os.path.exists(path):
                os.remove(path)
    out.update(
        wall_s=sum(latencies),
        latencies=latencies,
        gauges=_bracketing_gauges(gauges, len(ops)),
        attempted=len(ops),
        failed=len(errors),
        outputs=inputs.digest(kept),
        peak_rss_mb=peak_rss_mb,
    )
    return out
