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
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

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


@functools.cache  # built at the first dump, so other commands never pay for it
def _digit_cells() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of each group 0..9999 as one little-endian uint32
    cell, in two 20,000-entry tables.  Entry g holds all four digits of g,
    for a group with more digits above it; entry 10000 + g holds g with its
    leading zeros as NUL bytes, for the leading group.  The tables differ
    only at entry 10000: the first, for a number's lowest group, writes 0 as
    "0"; the second, for its higher groups, writes it as four NULs, since a
    higher group with nothing above it and no digit of its own lies past
    the number's highest digit."""
    n = np.arange(10000, dtype=np.uint32)
    full = np.zeros_like(n)
    lead = np.zeros_like(n)
    for j, place in enumerate((1000, 100, 10, 1)):
        digit = (ord("0") + n // place % 10) << (8 * j)
        full |= digit
        lead |= np.where(n >= place, digit, 0)
    higher = np.concatenate([full, lead])
    lowest = higher.copy()
    lowest[10000] = ord("0") << 24
    for cells in (lowest, higher):
        cells.setflags(write=False)  # shared by every dump
    return lowest, higher


def _groups(top: int) -> int:
    """Number of four-digit groups in the decimal form of top >= 0."""
    return -(-len(str(top)) // 4)


def _write_digits(rows: np.ndarray, offset: int, width: int, mags: np.ndarray, top: int) -> None:
    """Write the uint64 magnitudes mags, none above top, as decimal digits
    into the `width` four-byte cells that start at byte offset of each row
    of the uint8 array rows, lowest group in the last cell."""
    table, higher = _digit_cells()
    for col in range(width - 1, -1, -1):
        if top < 1 << 32:  # uint32 division is about three times as fast
            mags = mags.astype(np.uint32, copy=False)
        # floor division and a product: np.divmod costs about ten times as much
        rest = mags // 10000
        # below 10^4, so read as signed it adds exactly to the int64 offset
        # below, where uint64 + int64 would promote to float64
        group = (mags - rest * 10000).view(np.int64 if mags.itemsize == 8 else np.int32)
        top //= 10000
        # the cell column as an unaligned uint32 view, one row's bytes apart
        cells = np.ndarray(len(rows), "<u4", rows, offset + 4 * col, (rows.strides[0],))
        # a group is the leading one where nothing is left above it
        cells[:] = table.take(group + 10000 * (rest == 0))
        mags = rest
        table = higher


def _dump_text(indices: np.ndarray, values: np.ndarray) -> str:
    """The rows "n<TAB>value\\n" for int64 arrays of indices n >= 1 and values.

    Each row is a run of bytes of one fixed width: the index digits in
    four-byte cells, TAB, the sign ("-" or NUL), the value digits in
    four-byte cells, and the newline, with NUL for every digit a shorter
    number lacks; dropping the NULs leaves the rows.  With 7-digit indices
    and 8-digit values a row is 19 bytes.
    """
    negative = values < 0
    # |-2^63| wraps to -2^63, whose bits read as uint64 are 2^63
    mags = np.abs(values).view(np.uint64)
    index_top, value_top = int(indices.max()), int(mags.max())
    index_width, value_width = _groups(index_top), _groups(value_top)
    tab = 4 * index_width
    rows = np.empty((len(values), tab + 4 * value_width + 3), dtype=np.uint8)
    _write_digits(rows, 0, index_width, indices.view(np.uint64), index_top)
    rows[:, tab] = ord("\t")
    rows[:, tab + 1] = negative * np.uint8(ord("-"))
    _write_digits(rows, tab + 2, value_width, mags, value_top)
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _run_lambda(args) -> int:
    table = lambda_table(LambdaParams(args.a, args.b), args.n_max, args.method)
    # one str per chunk, its digits written by numpy (_dump_text), one write each
    for first in range(1, args.n_max + 1, _DUMP_ROWS):
        indices = np.arange(first, min(first + _DUMP_ROWS, args.n_max + 1), dtype=np.int64)
        sys.stdout.write(_dump_text(indices, table.take(indices)))
    return 0


def _run_verify(args) -> int:
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

    # the first combo's a and b (b null for one parameter), null with no combo
    combo = [*map(s, report.params[0]), None] if report.params and report.params[0] else None
    params = combo and {"a": combo[0], "b": combo[1]}
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
