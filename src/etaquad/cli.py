"""Command-line front end.

Subcommands: ``lambda`` (coefficient tables), ``verify`` (identity range
reports), ``reps`` (representation listing), ``classgroup`` (reduced
form classes), ``closed`` (closed-form evaluators).  Each one parses its
flags, calls the library function that owns the input, and prints; every
check on the input lives in that function, and ``main`` maps its
exceptions to exit codes.

Exit codes: 0 success, 1 an identity was falsified, 2 usage error,
3 coefficient overflow, 4 a resource budget would be exceeded or memory
ran out, 5 an internal inconsistency (a bug), 141 (EXIT_BROKEN_PIPE, the
shell's status for SIGPIPE) the reader closed stdout early, as
``etaquad lambda ... | head`` does, and the rest of the output was dropped
without a message.  Output is deterministic: identical flags give
byte-identical output regardless of the --threads hint.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .closed import CLOSED_FAMILIES, closed_form
from .errors import InternalInconsistencyError, ResourceLimitError
from .etaseries import METHODS, LambdaParams, lambda_table
from .quadform import QuadForm, class_group, representations
from .theorems import case_ids, make_case, range_report

EXIT_BROKEN_PIPE = 141


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etaquad",
        description="Exact coefficient tables for the cubed two-factor eta-type product "
        "and verification of prime representation identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lambda = sub.add_parser("lambda", help="print a coefficient table as n<TAB>value rows")
    p_lambda.add_argument("--a", type=int, required=True)
    p_lambda.add_argument("--b", type=int, required=True)
    p_lambda.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_lambda.add_argument(
        "--method",
        choices=list(METHODS),
        default="sparse",
        help="computation route (default sparse)",
    )

    p_verify = sub.add_parser("verify", help="run one identity case over a prime range")
    p_verify.add_argument("--case", required=True, help=f"one of {', '.join(case_ids())}")
    p_verify.add_argument("--a", type=int)
    p_verify.add_argument("--b", type=int)
    p_verify.add_argument("--p-max", type=int, required=True, dest="p_max")
    p_verify.add_argument("--json", action="store_true", help="emit the JSON report")
    p_verify.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker hint; output does not depend on it",
    )

    p_reps = sub.add_parser("reps", help="list all (x, y) with form(x, y) = n")
    p_reps.add_argument("--form", required=True, help="a,b,c")
    p_reps.add_argument("--n", type=int, required=True)

    p_cg = sub.add_parser("classgroup", help="list the reduced primitive forms of a discriminant")
    p_cg.add_argument("--disc", type=int, required=True)

    p_closed = sub.add_parser("closed", help="evaluate a closed-form coefficient formula")
    p_closed.add_argument("--family", required=True, choices=list(CLOSED_FAMILIES))
    p_closed.add_argument("--n", type=int, required=True)
    p_closed.add_argument("--a", type=int)
    p_closed.add_argument("--b", type=int)

    return parser


# rows per write of the lambda dump, so a dump never holds all its rows as text
_DUMP_ROWS = 1 << 16


def _run_lambda(args) -> int:
    rows = lambda_table(LambdaParams(args.a, args.b), args.n_max, args.method).values
    for first in range(1, args.n_max + 1, _DUMP_ROWS):
        last = min(first + _DUMP_ROWS - 1, args.n_max)
        # one % format per chunk over the interleaved indices and values
        cells = [0] * (2 * (last - first + 1))
        cells[0::2] = range(first, last + 1)
        cells[1::2] = rows(first, last)
        sys.stdout.write("%d\t%d\n" * (last - first + 1) % tuple(cells))
    return 0


def _run_verify(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    case = make_case(args.case, args.a, args.b)
    report = range_report(args.case, args.p_max, [case.params()] if case.params() else None)
    if args.json:
        print(_report_json(report))
    else:
        params = ";".join(",".join(str(v) for v in combo) for combo in report.params) or "-"
        print(f"case\t{report.case_id}")
        print(f"params\t{params}")
        print(f"p_max\t{report.p_max}")
        print(f"checked\t{report.checked}")
        print(f"skipped\t{report.skipped}")
        print(f"falsified\t{len(report.falsified)}")
    return 0 if report.ok else 1


def _report_json(report) -> str:
    # all numbers as decimal strings: JSON consumers must not round-trip
    # these through 64-bit floats
    def s(v):
        return None if v is None else str(v)

    if report.params and len(report.params[0]) == 2:
        params = {"a": s(report.params[0][0]), "b": s(report.params[0][1])}
    elif report.params and len(report.params[0]) == 1:
        params = {"a": s(report.params[0][0]), "b": None}
    else:
        params = None
    witnesses = []
    for v in report.falsified:
        x, y = v.witness if v.witness is not None else (None, None)
        witnesses.append(
            {
                "p": s(v.p),
                "x": s(x),
                "y": s(y),
                "index": s(v.index),
                "lhs": s(v.lhs),
                "rhs": s(v.rhs),
            }
        )
    doc = {
        "case": report.case_id,
        "params": params,
        "p_max": s(report.p_max),
        "checked": s(report.checked),
        "skipped": s(report.skipped),
        "falsified": s(len(report.falsified)),
        "witnesses": witnesses,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _run_reps(args) -> int:
    try:
        a, b, c = (int(part) for part in args.form.split(","))
    except ValueError as exc:
        raise ValueError(f"--form must be three comma-separated integers, got {args.form!r}") from exc
    rep_set = representations(QuadForm(a, b, c), args.n)
    for x, y in rep_set.pairs:
        print(f"{x}\t{y}")
    print(f"count\t{rep_set.count}")
    return 0


def _run_classgroup(args) -> int:
    group = class_group(args.disc)
    for form in group.classes:
        print(f"{form.a}\t{form.b}\t{form.c}")
    return 0


def _run_closed(args) -> int:
    value = closed_form(args.family, args.n, args.a, args.b)
    print(value)
    return 0


_HANDLERS = {
    "lambda": _run_lambda,
    "verify": _run_verify,
    "reps": _run_reps,
    "classgroup": _run_classgroup,
    "closed": _run_closed,
}


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--form" in argv[:-1]:  # argparse would read a value such as -1,0,-1 as a flag
        i = argv.index("--form")
        argv[i : i + 2] = [f"--form={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except OverflowError as exc:
        print(f"etaquad: overflow: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"etaquad: error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"etaquad: resource limit: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("etaquad: resource limit: out of memory", file=sys.stderr)
        return 4
    except InternalInconsistencyError as exc:
        print(f"etaquad: internal inconsistency: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
