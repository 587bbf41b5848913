"""CLI contract: output shapes, exit codes, determinism, JSON schema."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaquad import LambdaParams, case_ids, closed_form, lambda_table, make_case, range_report
from etaquad.cli import EXIT_BROKEN_PIPE, main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["case", "params", "p_max", "checked", "skipped", "falsified", "witnesses"],
    "additionalProperties": False,
    "properties": {
        "case": {"type": "string"},
        "params": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["a", "b"],
                    "additionalProperties": False,
                    "properties": {
                        "a": {"type": "string", "pattern": "^-?[0-9]+$"},
                        "b": {"type": ["string", "null"], "pattern": "^-?[0-9]+$"},
                    },
                },
            ]
        },
        "p_max": {"type": "string", "pattern": "^-?[0-9]+$"},
        "checked": {"type": "string", "pattern": "^[0-9]+$"},
        "skipped": {"type": "string", "pattern": "^[0-9]+$"},
        "falsified": {"type": "string", "pattern": "^[0-9]+$"},
        "witnesses": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["p", "x", "y", "index", "lhs", "rhs"],
                "additionalProperties": False,
                "properties": {
                    key: {"type": ["string", "null"], "pattern": "^-?[0-9]+$"}
                    for key in ("p", "x", "y", "index", "lhs", "rhs")
                },
            },
        },
    },
}


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "etaquad", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def test_lambda_rows(capsys):
    assert main(["lambda", "--a", "1", "--b", "3", "--n-max", "4"]) == 0
    assert capsys.readouterr().out == "1\t1\n2\t-3\n3\t0\n4\t2\n"


def test_lambda_newton(capsys):
    assert main(["lambda", "--a", "1", "--b", "1", "--n-max", "2", "--method", "newton"]) == 0
    assert capsys.readouterr().out == "1\t1\n2\t-6\n"


def test_lambda_multinomial(capsys):
    assert main(["lambda", "--a", "1", "--b", "1", "--n-max", "3", "--method", "multinomial"]) == 0
    assert capsys.readouterr().out == "1\t1\n2\t-6\n3\t9\n"


def test_lambda_dump_streams_in_chunks(monkeypatch):
    # rows are written a chunk at a time, so the dump's peak memory is the
    # 8 MB table plus one chunk, not every row as Python ints and text
    import etaquad.cli as cli_mod

    class Sink:
        # keeps only the size of each write, so the output itself takes
        # no traced memory
        def __init__(self):
            self.sizes = []

        def write(self, text):
            self.sizes.append(len(text))

        def flush(self):
            pass

    n_max = 10**6
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["lambda", "--a", "1", "--b", "1", "--n-max", str(n_max)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    assert len(sink.sizes) == -(-n_max // cli_mod._DUMP_ROWS)


def test_lambda_dump_chunk_boundaries(capsys, monkeypatch):
    import etaquad.cli as cli_mod

    want = "".join(f"{n}\t{v}\n" for n, v in enumerate([1, -6, 9, 10, -30, 0, 11, 42], 1))
    for rows in (1, 3, 8, 100):
        monkeypatch.setattr(cli_mod, "_DUMP_ROWS", rows)
        for method in ("sparse", "newton", "naive", "multinomial"):
            assert main(["lambda", "--a", "1", "--b", "1", "--n-max", "8", "--method", method]) == 0
            assert capsys.readouterr().out == want


@settings(max_examples=60, deadline=None)
@given(
    a=st.one_of(st.integers(1, 20), st.just(2**70)),
    b=st.integers(1, 20),
    n_max=st.integers(1, 5000),
    method=st.sampled_from(["sparse", "newton", "naive"]),
    dump_rows=st.sampled_from([1, 7, 64, 65536]),
)
def test_lambda_dump_matches_rows(a, b, n_max, method, dump_rows):
    # the dump is byte for byte one n<TAB>value line per table entry, with
    # negative values and a multiplier past int64, at any chunk size
    import etaquad.cli as cli_mod

    n_max = n_max if method == "sparse" else min(n_max, 600)
    rows = lambda_table(LambdaParams(a, b), n_max, method).values()
    want = "".join(f"{n}\t{v}\n" for n, v in enumerate(rows, 1))
    out = io.StringIO()
    with mock.patch.object(cli_mod, "_DUMP_ROWS", dump_rows), redirect_stdout(out):
        argv = ["lambda", "--a", str(a), "--b", str(b), "--n-max", str(n_max), "--method", method]
        assert main(argv) == 0
    assert out.getvalue() == want


def test_lambda_multiplier_past_int64(capsys):
    # a multiplier past int64 meets only its k = 0 term, on every route
    for method in ("sparse", "newton", "naive", "multinomial"):
        argv = ["lambda", "--a", str(10**20), "--b", "1", "--n-max", "5", "--method", method]
        assert main(argv) == 0
        assert capsys.readouterr().out == "1\t1\n2\t-3\n3\t0\n4\t5\n5\t0\n"


def test_lambda_flag_errors(capsys):
    assert main(["lambda", "--a", "0", "--b", "1", "--n-max", "1"]) == 2
    assert main(["lambda", "--a", "1", "--b", "1", "--n-max", "0"]) == 2
    capsys.readouterr()


def test_reps_output(capsys):
    assert main(["reps", "--form", "3,0,5", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert out == "-1\t-1\n-1\t1\n1\t-1\n1\t1\ncount\t4\n"


def test_reps_flag_errors(capsys):
    assert main(["reps", "--form", "3,0", "--n", "8"]) == 2
    assert main(["reps", "--form", "1,5,1", "--n", "8"]) == 2
    assert main(["reps", "--form", "1,0,1", "--n", "0"]) == 2
    capsys.readouterr()
    # a value that starts with "-" reaches the library check, with or without "="
    for argv in (["--form", "-1,0,-1"], ["--form=-1,0,-1"]):
        assert main(["reps", *argv, "--n", "5"]) == 2
        assert capsys.readouterr().err == "etaquad: error: form [-1, 0, -1] is not positive definite\n"


def test_classgroup_output(capsys):
    assert main(["classgroup", "--disc", "-60"]) == 0
    assert capsys.readouterr().out == "1\t0\t15\n3\t0\t5\n"
    assert main(["classgroup", "--disc", "5"]) == 2
    capsys.readouterr()


def test_closed_output(capsys):
    assert main(["closed", "--family", "L13", "--n", "1"]) == 0
    assert capsys.readouterr().out == "-3\n"
    assert main(["closed", "--family", "LEMMA51", "--n", "6", "--a", "1", "--b", "3"]) == 0
    assert capsys.readouterr().out == "-22\n"
    assert main(["closed", "--family", "LEMMA51", "--n", "6"]) == 2
    assert main(["closed", "--family", "L13", "--n", "5", "--a", "3"]) == 2
    capsys.readouterr()


def test_verify_tsv_and_exit(capsys):
    assert main(["verify", "--case", "E1.6", "--p-max", "100"]) == 0
    out = capsys.readouterr().out
    assert "case\tE1.6" in out
    assert "checked\t9" in out
    assert "skipped\t15" in out
    assert "falsified\t0" in out


def test_verify_with_params(capsys):
    assert main(["verify", "--case", "T3.1", "--a", "1", "--b", "3", "--p-max", "200"]) == 0
    out = capsys.readouterr().out
    assert "falsified\t0" in out


def test_verify_unknown_case(capsys):
    assert main(["verify", "--case", "bogus", "--p-max", "10"]) == 2
    assert main(["verify", "--case", "T3.1", "--p-max", "10"]) == 2  # missing params
    assert main(["verify", "--case", "E1.6", "--a", "1", "--b", "7", "--p-max", "10"]) == 2
    capsys.readouterr()


def test_verify_json_schema(capsys):
    assert main(["verify", "--case", "T3.1", "--a", "1", "--b", "3", "--p-max", "100", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["case"] == "T3.1"
    assert doc["params"] == {"a": "1", "b": "3"}
    assert doc["falsified"] == "0"

    assert main(["verify", "--case", "C3.4", "--a", "3", "--p-max", "50", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["params"] == {"a": "3", "b": None}

    assert main(["verify", "--case", "E1.7", "--p-max", "50", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["params"] is None


def test_byte_identical_runs_and_thread_hint():
    args = ["verify", "--case", "T3.1", "--a", "3", "--b", "5", "--p-max", "300", "--json"]
    first = run_cli(*args)
    second = run_cli(*args)
    third = run_cli(*args, "--threads", "4")
    assert first.returncode == second.returncode == third.returncode == 0
    assert first.stdout == second.stdout == third.stdout

    assert run_cli("verify", "--case", "E1.6", "--p-max", "10", "--threads", "0").returncode == 2


def test_console_invocation_smoke():
    proc = run_cli("lambda", "--a", "2", "--b", "6", "--n-max", "3")
    assert proc.returncode == 0
    assert proc.stdout == "1\t1\n2\t0\n3\t-3\n"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # the reader takes one line and closes the pipe while 10^6 rows remain
        (["lambda", "--a", "1", "--b", "1", "--n-max", "1000000"], b"1\t1\n"),
        # the pipe is closed before the report, still in the buffer, is flushed
        (["verify", "--case", "E1.6", "--p-max", "1000", "--json"], None),
    ],
)
def test_closed_pipe_exits_quietly(argv, first_line):
    # block-buffered stdout, as in a plain shell pipeline
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "etaquad", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_parser_built_once(capsys):
    import etaquad.cli as cli_mod

    assert main(["lambda", "--a", "1", "--b", "3", "--n-max", "2"]) == 0
    parser = cli_mod._build_parser()
    assert main(["closed", "--family", "KF", "--n", "5"]) == 0
    assert cli_mod._build_parser() is parser
    assert capsys.readouterr().out == "1\t1\n2\t-3\n" + f"{closed_form('KF', 5)}\n"


def test_argparse_usage_error_is_exit_2():
    proc = run_cli("lambda", "--a", "1")  # missing required flags
    assert proc.returncode == 2
    proc = run_cli("nonsense")
    assert proc.returncode == 2


def test_verify_exit_1_on_falsification(capsys, monkeypatch):
    # no true identity falsifies, so splice in a poisoned verdict source
    import etaquad.cli as cli_mod
    from etaquad import RangeReport, Verdict, make_case

    def fake_report(case_id, p_max, grid=None, cache=None):
        bad = Verdict(
            "falsified", make_case("E1.6"), 11, witness=(2, 1), index=11, lhs=-6, rhs=5
        )
        return RangeReport(case_id, (), p_max, checked=1, skipped=0, falsified=(bad,))

    monkeypatch.setattr(cli_mod, "range_report", fake_report)
    assert main(["verify", "--case", "E1.6", "--p-max", "20"]) == 1
    out = capsys.readouterr().out
    assert "falsified\t1" in out

    assert main(["verify", "--case", "E1.6", "--p-max", "20", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["witnesses"] == [
        {"p": "11", "x": "2", "y": "1", "index": "11", "lhs": "-6", "rhs": "5"}
    ]


def test_overflow_exit_3(capsys, monkeypatch):
    import etaquad.cli as cli_mod

    def boom(*args, **kwargs):
        # what numpy raises when a table value does not fit int64
        raise OverflowError("Python int too large to convert to C long")

    monkeypatch.setattr(cli_mod, "lambda_table", boom)
    assert main(["lambda", "--a", "1", "--b", "1", "--n-max", "4"]) == 3
    capsys.readouterr()


def test_resource_limit_exit_4(capsys):
    # the sieve and the table check their byte budgets before allocating anything
    for argv, message in (
        (["verify", "--case", "E1.6", "--p-max", "300000000"], "sieve to 300000000 needs"),
        (["lambda", "--a", "1", "--b", "1", "--n-max", str(10**10)], "table to 10000000000 needs"),
        (
            ["lambda", "--a", "1", "--b", "1", "--n-max", str(10**10), "--method", "multinomial"],
            "table to 10000000000 needs",
        ),
    ):
        tracemalloc.start()
        try:
            assert main(argv) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"etaquad: resource limit: {message}")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--a", "0", "--b", "1", "--n-max", "5"],
        ["lambda", "--a", "1", "--b", "1", "--n-max", "0"],
        # passes the table budget, then the partition cap stops it at entry 42
        ["lambda", "--a", "1", "--b", "1", "--n-max", str(2**28), "--method", "multinomial"],
        ["verify", "--case", "bogus", "--p-max", "10"],
        ["verify", "--case", "T3.1", "--a", "3", "--p-max", "10"],
        ["verify", "--case", "C3.4", "--b", "3", "--p-max", "10"],
        ["verify", "--case", "E1.6", "--a", "1", "--p-max", "10"],
        ["verify", "--case", "T3.1", "--a", "2", "--b", "3", "--p-max", "10"],
        ["verify", "--case", "E1.6", "--p-max", "-1"],
        ["verify", "--case", "E1.6", "--p-max", "10", "--threads", "0"],
        ["reps", "--form", "3,0", "--n", "8"],
        ["reps", "--form", "1,5,1", "--n", "8"],
        ["reps", "--form", "1,0,1", "--n", "0"],
        ["reps", "--form", "-1,0,-1", "--n", "5"],
        ["classgroup", "--disc", "5"],
        ["closed", "--family", "L13", "--n", "5", "--a", "3"],
        ["closed", "--family", "L13", "--n", "-1"],
        ["closed", "--family", "LEMMA51", "--n", "6"],
        ["closed", "--family", "LEMMA51", "--n", "6", "--a", "1", "--b", "1"],
    ],
)
def test_usage_error_is_one_stderr_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("etaquad: error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@given(
    st.sampled_from(case_ids() + ["X9.9"]),
    st.none() | st.integers(min_value=-2, max_value=40),
    st.none() | st.integers(min_value=-2, max_value=40),
)
@settings(max_examples=300, deadline=None)
def test_verify_rejects_what_make_case_rejects(case_id, a, b):
    # the CLI adds no parameter rule of its own, and range_report's grid
    # holds the parameters positionally, so all three agree
    try:
        make_case(case_id, a, b)
        rejected = False
    except ValueError:
        rejected = True
    argv = ["verify", "--case", case_id, "--p-max", "0"]
    for flag, value in (("--a", a), ("--b", b)):
        if value is not None:
            argv += [flag, str(value)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) == (2 if rejected else 0)
    grid = None if a is None and b is None else [(a,) if b is None else (a, b)]
    if rejected:
        with pytest.raises(ValueError):
            range_report(case_id, 0, grid)
    else:
        assert range_report(case_id, 0, grid).scanned == 0


def test_memory_error_exit_4(capsys, monkeypatch):
    import etaquad.cli as cli_mod

    def boom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "lambda_table", boom)
    assert main(["lambda", "--a", "1", "--b", "1", "--n-max", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "etaquad: resource limit: out of memory\n"


def test_internal_inconsistency_exit_5(capsys, monkeypatch):
    import etaquad.cli as cli_mod
    from etaquad import InternalInconsistencyError

    def boom(*args, **kwargs):
        raise InternalInconsistencyError("sparse/recurrence mismatch at index 3")

    monkeypatch.setattr(cli_mod, "range_report", boom)
    assert main(["verify", "--case", "E1.6", "--p-max", "20"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "etaquad: internal inconsistency: sparse/recurrence mismatch at index 3\n"


def test_readme_command_line_examples(capsys):
    # every command of README's "Command line" block runs, and the JSON
    # example shows what its --json command really prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    lines = [shlex.split(line, comments=True) for line in commands.splitlines()]
    assert lines and all(line[0] == "etaquad" for line in lines)
    json_runs = 0
    for _, *argv in lines:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--json" in argv:
            json_runs += 1
            doc = json.loads(out)
            for key in ("case", "params", "p_max", "checked", "skipped", "falsified"):
                assert doc[key] == example[key], key
    assert json_runs == 1
