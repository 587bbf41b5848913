"""etaquad benchmark: three closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload verify-range --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every metric of every workload
    python3 perfbench/run.py --selfcheck                 # seed determinism

Run from the repository root; etaquad is imported from ./src.  Each
repetition runs in a fresh child process (perfbench/child.py) that
executes the workload's operation list one call after another, with no
threads.  The first child checks every output once all are timed; every
other child must produce the same output digest.  A run starts a fixed
number of children, set by --seconds alone (children_per_run), and
records that number.

Every time reported is scaled by the interpreter-speed gauge (gauge.py),
which each child reads right after its import, before its first
operation, between operations and after its last one: an operation's
time is scaled by the mean of the gauges read just before and just after
it, set-up time by the gauge read after the import.  The record line
keeps each child's raw wall time and gauges next to the scaled ones.

wall_s is the median over children of their scaled wall times (the sum
of their operations' scaled times), and ops_per_s the work over it.
query_p50_ms and query_p95_ms are the median over children of each
child's median and 95th percentile (nearest rank) over its own scaled
operation times.  An operation is one query on point-queries, one CLI
call on verify-range and one build or dump on table-dump, so on the last
two query_p95_ms is the slowest operation (T4.3 and a CLI dump).  Set-up
time (process start until `import etaquad.cli` returns) is the median
over every child plus extra import-only children.
peak_rss_mb is the median over children of each child's own ru_maxrss,
read when its last operation ends and before its checks; `os.wait4`
gives the peak with checks.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced children, prints the per-layer metrics (unscaled) of the
traced child with the median scaled wall time and `trace.overhead_ratio`
(median scaled wall of the traced children over that of the untraced
ones, minus 1), and requires both kinds of child to produce the same
output digest.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it is a record of the machine, source, seed,
inputs and work counts.  fail_ratio is failed/attempted from that object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil

import gauge
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "work")

# Children per run.  A run starts round(seconds / CHILD_S) untraced
# children (at least MIN_REPS), a number that depends only on --seconds,
# so a faster and a slower commit take their medians over equally many.
# CHILD_S is a little over one child plus its set-up sample at this commit
# on a 2-core x86-64 VM.  --trace 1 starts half as many
# untraced + traced pairs.
CHILD_S = {"verify-range": 5.7, "table-dump": 5.7, "point-queries": 4.0}
MIN_REPS = 3  # untraced children per --trace 0 run
MIN_PAIRS = 2  # untraced + traced child pairs per --trace 1 run
SETUP_PER_REP = 1  # import-only children after each untraced child
LIMIT_S = 140  # no child starts later than this, so a slow commit still ends in time

UNITS_OF = {
    "verify-range": "verdicts",
    "table-dump": "coefficients built plus rows written",
    "point-queries": "queries",
}
END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark itself could not run (no program, a child died)."""


def _spawn(extra: list[str]) -> tuple[dict, float, float]:
    """Run one child; returns (its JSON result, start time, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *extra]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(extra)} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]), start, usage.ru_maxrss / 1024.0


def _rep(workload: str, seed: int, trace: int, check: bool = True) -> dict:
    extra = ["--workload", workload, "--seed", str(seed), "--trace", str(trace), "--check", str(int(check))]
    result, start, rss = _spawn(extra)
    result["setup_s"] = gauge.scaled(result["imported"] - start, result["setup_gauge"])
    result["rss_with_checks_mb"] = rss
    result["scaled"] = [gauge.scaled(t, g) for t, g in zip(result["latencies"], result["gauges"])]
    result["scaled_wall_s"] = sum(result["scaled"])
    return result


def _setup_sample() -> float:
    result, start, _ = _spawn(["--setup-only"])
    return gauge.scaled(result["imported"] - start, result["setup_gauge"])


def _nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def _git_sha() -> str | None:
    """HEAD of the checkout, read without running git (None outside a repo)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def children_per_run(workload: str, seconds: float, trace: int) -> int:
    """Untraced children of one run (as many traced ones with --trace 1)."""
    if trace:
        return max(MIN_PAIRS, round(seconds / (2 * CHILD_S[workload])))
    return max(MIN_REPS, round(seconds / CHILD_S[workload]))


def _quantiles_ms(child: dict) -> tuple[float, float]:
    lat = child["scaled"]
    return 1e3 * _nearest_rank(lat, 0.50), 1e3 * _nearest_rank(lat, 0.95)


def measure(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run the workload in a fixed number of children; returns (result line, record)."""
    planned = children_per_run(workload, seconds, trace)
    plain, traced, setups = [], [], []
    start = time.monotonic()
    while len(plain) < planned:
        plain.append(_rep(workload, seed, 0, check=not plain))
        if trace:
            traced.append(_rep(workload, seed, 1, check=False))
        else:
            setups += [_setup_sample() for _ in range(SETUP_PER_REP)]
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > LIMIT_S:
            break
    reps = plain + traced
    setups += [r["setup_s"] for r in reps]

    digests = {r["outputs"] for r in reps}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    same_inputs = len({r["inputs"] for r in reps}) == 1
    correct = failed == 0 and len(digests) == 1 and same_inputs and attempted > 0

    if trace:
        middle = sorted(traced, key=lambda r: r["scaled_wall_s"])[len(traced) // 2]
        layers = dict(middle["layers"])
        layers["cli.bytes_out"] = middle["bytes_out"]
        overhead = statistics.median(r["scaled_wall_s"] for r in traced) / statistics.median(
            r["scaled_wall_s"] for r in plain
        )
        layers["trace.overhead_ratio"] = overhead - 1.0
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        wall = statistics.median(r["scaled_wall_s"] for r in plain)
        quantiles = [_quantiles_ms(r) for r in plain]
        values = {
            "wall_s": wall,
            "ops_per_s": plain[0]["units"] / wall,
            "query_p50_ms": statistics.median(q[0] for q in quantiles),
            "query_p95_ms": statistics.median(q[1] for q in quantiles),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    first = reps[0]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": first["python"],
            "numpy": first["numpy"],
            "platform": platform.platform(),
        },
        "git_sha": _git_sha(),
        "inputs_digest": first["inputs"],
        "outputs_digests": sorted(digests),
        "work": {"units": first["units"], "unit": UNITS_OF[workload], "operations": first["attempted"]},
        "children": {
            "planned": planned,
            "untraced": len(plain),
            "traced": len(traced),
            "setup_samples": len(setups),
        },
        "fail_ratio": f"{failed}/{attempted}",
        "wall_s_per_child": [r["wall_s"] for r in reps],
        "scaled_wall_s_per_child": [r["scaled_wall_s"] for r in reps],
        "gauge_s_median_per_child": [statistics.median(r["gauges"]) for r in reps],
        "peak_rss_mb_with_checks": max(r["rss_with_checks_mb"] for r in reps),
        "setup_s_samples": setups,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def selfcheck(seed: int) -> bool:
    """Same seed: same inputs and outputs; another seed: other inputs and
    outputs at nearly the same work counts."""
    ok = True
    for workload in inputs.WORKLOADS:
        a, again, b = inputs.make(workload, seed), inputs.make(workload, seed), inputs.make(workload, seed + 1)
        runs = [_rep(workload, seed, 0), _rep(workload, seed, 1), _rep(workload, seed + 1, 0)]
        checks = {
            "same seed, same inputs": inputs.digest(a) == inputs.digest(again) == runs[0]["inputs"],
            "same seed, same outputs (untraced and traced)": runs[0]["outputs"] == runs[1]["outputs"],
            "other seed, other inputs": inputs.digest(a) != inputs.digest(b),
            "other seed, other outputs": runs[0]["outputs"] != runs[2]["outputs"],
            "other seed, work within 2%": abs(a["units"] - b["units"]) <= 0.02 * a["units"],
            "no failed operation": all(r["failed"] == 0 for r in runs),
        }
        for what, passed in checks.items():
            print(f"{workload:14s} {'ok  ' if passed else 'FAIL'} {what}")
            ok = ok and passed
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*inputs.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="check seed determinism and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "etaquad", "__init__.py")):
        print(f"perfbench: no etaquad sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        if args.selfcheck:
            return 0 if selfcheck(args.seed) else 1
        if args.workload != "all":
            result, record = measure(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"record": record}))
            print(json.dumps(result))
            return 0
        summary = {}
        for workload in inputs.WORKLOADS:
            result, record = measure(workload, args.seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                print(f"{workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
            print(f"{workload:14s} {'fail_ratio':40s} {record['fail_ratio']:>14s} failed/attempted")
            summary[workload] = result
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
