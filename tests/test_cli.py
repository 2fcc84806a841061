"""End-to-end tests of the command line interface and rendering helpers."""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from test_acceptance import MULT_RECORDS
from test_chains import (
    D3_RECORDS_TO_10_7,
    numerators_that_break_divisibility,
    wrong_digit_at_step_3,
)

from ceildyn import chains, cli, multmaps, padic, squaring, window
from ceildyn.cli import _ABSENT, _SPECIAL, _VALUE
from ceildyn.cli import CLIError, COMMANDS, FORMATS, Column, export_bfile, main
from ceildyn.rational import InternalCheckError
from ceildyn.squaring import StoppingReport, trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent

GOLDEN = json.loads((REPO_ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
THETA2_BFILE = "1 1\n2 2\n3 1\n4 3\n"
CENSUS_D3_BFILE = "3 0\n4 2\n5 6\n6 0\n7 1\n8 1\n9 0\n10 5\n11 2\n"


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_golden_output(case, capsys):
    # One small command per subcommand in every format: None/False left out
    # of tables, true/false/null in JSON, a quoted CSV cell (chains), an
    # empty census, dist --scan 0, unresolved rows, and exit 2 with its error
    # line where a format cannot hold the result.
    code = main(case["argv"].split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_csv_header_names_every_column_some_row_carries(capsys):
    argv = ("padic-tree", "--p", "3", "--k", "2", "--levels", "3", "--format", "csv")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,size,children_min,children_max,formula,estimate"
    assert lines[1] == "1,6,6,6,,"
    assert lines[-1] == "dim,,,,0.8154648768,0.8154648768"
    argv = ("traj", "--num", "7", "--den", "5", "--max-steps", "3", "--format", "csv")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        "input,step,value,truncated",
        "7/5,0,7/5,",
        "7/5,1,14/5,",
        "7/5,2,42/5,",
        "7/5,3,378/5,true",
    ]


# The renderers as they were before table, JSON and CSV shared one line
# template (CSV went through csv.writer), kept as the reference.  They take
# rows; the CLI renderers take one sequence of cells per column.
def _cell_template(text: str, index: int, args) -> str:
    """text as a str.format template over a row whose cell is row[index],
    with text's named fields set from the command's arguments."""
    parts = []
    for literal, field, spec, _ in string.Formatter().parse(text):
        parts.append(literal.replace("{", "{{").replace("}", "}}"))
        if field == "":
            parts.append(f"{{{index}:{spec}}}")
        elif field is not None:
            parts.append(format(getattr(args, field), spec).replace("{", "{{").replace("}", "}}"))
    return "".join(parts)


def _by_shape(rows, columns, build) -> list:
    # each row's shape comes from that row, so 1 and True never share one
    made: dict = {}
    out = []
    for row in rows:
        shape = tuple(
            v if c.optional and any(v is s for s in _SPECIAL) else _VALUE
            for c, v in zip(columns, row)
        )
        if (f := made.get(shape)) is None:
            f = made[shape] = build(list(shape))
        out.append(f(*row))
    return out


def _cells(columns, shape, args, wrap=str, fixed=()):
    texts = [
        (i, _cell_template(c.text, 0, args).format)
        for i, (c, kind) in enumerate(zip(columns, shape))
        if c.text and kind is _VALUE
    ]

    def cells(*row):
        out = list(row)
        for i, fmt in texts:
            out[i] = wrap(fmt(out[i]))
        for i, text in fixed:
            out[i] = text
        return out

    return cells


def reference_table(rows, columns, args) -> str:
    def build(shape):
        parts = [
            f"{c.name}=" + ("true" if kind is True else _cell_template(c.text or "{}", i, args))
            for i, (c, kind) in enumerate(zip(columns, shape))
            if c.table and kind is not None and kind is not False and kind is not _ABSENT
        ]
        return (" ".join(parts) + "\n").format

    return "".join(_by_shape(rows, columns, build))


def reference_json(rows, columns, args) -> str:
    def build(shape):
        parts = [
            f"{cli._json_string(c.name)}: " + (f"{{{i}}}" if kind is _VALUE else json.dumps(kind))
            for i, (c, kind) in enumerate(zip(columns, shape))
            if kind is not _ABSENT
        ]
        template = ("{{" + ", ".join(parts) + "}}\n").format
        cells = _cells(columns, shape, args, cli._json_string)
        return lambda *row: template(*cells(*row))

    return "".join(_by_shape(rows, columns, build))


def reference_csv(rows, columns, args) -> str:
    carried: set[int] = set()

    def build(shape):
        carried.update(i for i, kind in enumerate(shape) if kind is not _ABSENT)
        fixed = [
            (i, "" if kind is None or kind is _ABSENT else str(kind).lower())
            for i, kind in enumerate(shape)
            if kind is not _VALUE
        ]
        return _cells(columns, shape, args, fixed=fixed)

    lines = _by_shape(rows, columns, build)
    if not lines:
        return ""
    keep = sorted(carried)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([columns[i].name for i in keep])
    writer.writerows(lines if len(keep) == len(columns) else ([f[i] for i in keep] for f in lines))
    return buf.getvalue()


def transposed(rows, columns) -> list[list]:
    """rows as the CLI renderers take them: one list of cells per column."""
    return [[row[i] for row in rows] for i in range(len(columns))]


RENDERERS = {"table": reference_table, "json": reference_json, "csv": reference_csv}
# No command emits a carriage return, and csv.writer quotes a bare one on
# some Python versions only, so the alphabet leaves it out.
TEXT = st.text(alphabet=',"\n\\{}:a7 \u00e9\u20ac\U0001f600', max_size=6)


# Small ints meet the bools of an optional column: 0 == False, 1 == True.
INTS = st.one_of(st.integers(-1, 2), st.integers())
# Text around the cell that CSV or JSON quoting changes, so an int or
# Fraction cell there is quoted cell by cell, where the COMMANDS texts fold
# into the line template; and an optional column of ints and bools.
QUOTED = (
    Column("comma", "{},{den}"), Column("quote", '"{}"', optional=True),
    Column("backslash", "\\{}"), Column("accent", "{}\u00e9", optional=True),
    Column("flag", optional=True),
)


def column_cells(data, column):
    """A strategy for one column's cells: ints without text, numbers under a
    format spec, else ints, Fractions, floats or text; one type per column,
    and the four specials besides in an optional column."""
    if column.text is None:
        kinds = [INTS]
    elif ":" in column.text:
        kinds = [INTS, st.floats()]
    else:
        kinds = [INTS, st.fractions(), st.floats(), TEXT]
    cells = data.draw(st.sampled_from(kinds))
    return st.one_of(cells, st.sampled_from(_SPECIAL)) if column.optional else cells


def streamed(fmt, cells, columns, args, size: int) -> str:
    """cells as the CLI writes them, in pieces of size rows, joined."""
    with mock.patch.object(cli, "_CHUNK", size):
        return "".join(cli._pieces(fmt, cells, columns, args))


@pytest.mark.parametrize("command", [*sorted(COMMANDS), "quoted"])
# No shrink phase: shrinking lists of up to 30 rows per command took minutes
# to report a broken renderer; the failing example is shown unshrunk.
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_renderers_match_the_reference(command, data):
    columns = COMMANDS[command][1] if command in COMMANDS else QUOTED
    row = st.tuples(*(column_cells(data, c) for c in columns))
    rows = data.draw(st.lists(row, max_size=30))
    args = argparse.Namespace(den=data.draw(st.integers(min_value=1, max_value=99)))
    size = data.draw(st.integers(min_value=1, max_value=len(rows) + 1))
    cells = transposed(rows, columns)
    for fmt, reference in RENDERERS.items():
        want = reference(rows, columns, args)
        assert streamed(fmt, cells, columns, args, len(rows) + 1) == want
        assert streamed(fmt, cells, columns, args, size) == want


def test_renderers_match_the_reference_on_a_census():
    columns = COMMANDS["census"][1]
    thetas = chains.census_thetas(3, 1, 5000, 10)  # l = 1, 2 and 63 starts past window 10
    assert thetas.count(None) == 65
    rows = [(l, l, theta, theta is None) for l, theta in enumerate(thetas, start=1)]
    cells = [range(1, 5001), range(1, 5001), thetas, [theta is None for theta in thetas]]
    args = argparse.Namespace(den=3)
    for fmt, reference in RENDERERS.items():
        want = reference(rows, columns, args)
        for size in (1, 2, 999, 4999, 5000, 5001):
            assert streamed(fmt, cells, columns, args, size) == want


# What a renderer decides over all its rows holds across chunks: a CSV column
# no row of the first chunk carries, a lone empty field that is not alone in
# the whole output, and 1 and True on either side of a chunk boundary.
@pytest.mark.parametrize("fmt, command, rows, want", [
    ("csv", "theta", [(Fraction(1, 2), None, *[_ABSENT] * 2, True), (Fraction(5, 2), 2, 60, 2, False)],
     "input,theta,reached,digits,unresolved\n1/2,,,,true\n5/2,2,60,2,false\n"),
    ("csv", "theta", [("", *[_ABSENT] * 4), ("", 5, *[_ABSENT] * 3), ("", *[_ABSENT] * 4)],
     "input,theta\n,\n,5\n,\n"),
    ("table", "mahler", [(1, 1, False), (2, True, False), (3, 1, False)],
     "n=1 j=1\nn=2 j=true\nn=3 j=1\n"),
    ("json", "mahler", [(1, False, False), (2, 0, False)],
     '{"n": 1, "j": false, "unresolved": false}\n{"n": 2, "j": 0, "unresolved": false}\n'),
])
def test_chunks_join_to_the_whole_output(fmt, command, rows, want):
    columns = COMMANDS[command][1]
    cells = transposed(rows, columns)
    assert RENDERERS[fmt](rows, columns, None) == want
    for size in range(1, len(rows) + 1):
        assert streamed(fmt, cells, columns, None, size) == want


def test_bfile_fault_in_a_later_chunk_exits_2_before_any_output(monkeypatch, capsys):
    _, columns, bfile = COMMANDS["sigma"]
    # each chunk of two terms is increasing; the index falls across their boundary
    monkeypatch.setitem(COMMANDS, "sigma", (lambda args: [[1, 3, 2, 4], [5, 6, 7, 8]], columns, bfile))
    monkeypatch.setattr(cli, "_CHUNK", 2)
    code = main(["sigma", "--den", "3", "--k", "1", "--format", "bfile"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: b-file indices must be strictly increasing\n"


@pytest.mark.parametrize("values, err", [
    ([5, 6, True, 8], "b-file values must be integers"),
    ([5, 6, 10**1000, 8], "b-file values are limited to 1000 decimal digits"),
], ids=["bool", "1001-digits"])
def test_bfile_value_fault_in_a_later_chunk_exits_2_before_any_output(
        values, err, monkeypatch, capsys):
    _, columns, bfile = COMMANDS["sigma"]
    # export_bfile does not check its terms: run_command checks them over the whole columns
    monkeypatch.setitem(COMMANDS, "sigma", (lambda args: [[1, 2, 3, 4], values], columns, bfile))
    monkeypatch.setattr(cli, "_CHUNK", 2)
    code = main(["sigma", "--den", "3", "--k", "1", "--format", "bfile"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


# A shape key of raw cells would give 1 and True one template, so the first
# row's shape would decide the second's: "j=True", or JSON "j": False.
@pytest.mark.parametrize("fmt, rows, want", [
    ("table", [(1, 1, False), (2, True, False)], "n=1 j=1\nn=2 j=true\n"),
    ("table", [(2, True, False), (1, 1, False)], "n=2 j=true\nn=1 j=1\n"),
    ("json", [(1, 0, False), (2, False, False)],
     '{"n": 1, "j": 0, "unresolved": false}\n{"n": 2, "j": false, "unresolved": false}\n'),
])
def test_a_bool_cell_never_shares_a_template_with_an_equal_int(fmt, rows, want):
    columns = COMMANDS["mahler"][1]
    assert streamed(fmt, transposed(rows, columns), columns, None, len(rows)) == want
    assert RENDERERS[fmt](rows, columns, None) == want


def test_csv_quotes_a_row_of_one_empty_field():
    # an empty line would read back as a row of no fields
    columns = COMMANDS["theta"][1]
    rows = [("", *[_ABSENT] * 4), ("a,b", *[_ABSENT] * 4)]
    want = 'input\n""\n"a,b"\n'
    cells = transposed(rows, columns)
    assert streamed("csv", cells, columns, None, len(rows)) == want
    assert reference_csv(rows, columns, None) == want


def test_theta_exact_output_is_stable(capsys):
    code, out = run_cli(capsys, "theta", "--num", "5", "--den", "2")
    assert code == 0
    assert out == "theta=2 reached=60\n"


def test_theta_windowed_output_is_stable(capsys):
    code, out = run_cli(capsys, "theta", "--num", "6", "--den", "5", "--window", "25")
    assert code == 0
    assert out == "theta=18\n"


@pytest.mark.parametrize(
    "num,den,code,out,err",
    [
        # theta is 1444: the exact walk would head for 256 doubling steps
        (200, 199, 0, "unresolved=true\n", ""),
        # theta is 22: the exact walk would build 4,134,726 digits it cannot print
        (28, 3, 2, "", "error: the integer reached has about 4134726 digits, above the 2000000 "
         "the CLI prints; use --window for theta alone\n"),
    ],
)
def test_exact_theta_decides_before_the_exact_walk(num, den, code, out, err):
    result = subprocess.run(
        [sys.executable, "-m", "ceildyn.cli", "theta", "--num", str(num), "--den", str(den)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


@pytest.mark.parametrize(
    "argv,err",
    [
        # each iterate doubles its digits; theta is 22 for 28/3 and 1444 for 200/199
        (("traj", "--num", "28", "--den", "3"), "step 21 of 28/3"),
        (("traj", "--num", "200", "--den", "199"), "step 24 of 200/199"),
        (("traj", "--num", "-200", "--den", "199"), "step 25 of -200/199"),
        # theta2 composes y(y+1)/2 and stops at the step traj names for 524289/2
        (("theta2", "--l", "262144"), "step 19 of 524289/2"),
    ],
)
def test_exact_walks_stop_at_the_print_limit(argv, err):
    result = subprocess.run(
        [sys.executable, "-m", "ceildyn.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {err} passes the 2000000-digit limit\n"


def _main_output(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _deciding_look_ahead(decided: list[int]):
    """trajectory's print-limit look-ahead, appending each step it names to decided."""
    look_ahead = squaring._limit_step

    def wrapped(*args):
        if m := look_ahead(*args):
            decided.append(m)
        return m

    return mock.patch.object(squaring, "_limit_step", wrapped)


@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=5, max_value=300),
)
@settings(max_examples=300, deadline=None)
@example(d=199, l=200, max_steps=32, digits=300)
@example(d=3, l=28, max_steps=32, digits=300)
@example(d=31, l=169, max_steps=36, digits=7)  # numerator 2^B or more at step 3, x_3 below 2^B
@example(d=41, l=247, max_steps=19, digits=14)
def test_traj_magnitude_bound_exits_where_the_walk_does(d, l, max_steps, digits):
    # under a small print limit, traj with the walk's look-ahead prints what
    # the walk prints with the look-ahead patched out, which builds every product
    argv = ["traj", "--num", str(l), "--den", str(d), "--max-steps", str(max_steps)]
    decided: list[int] = []
    with mock.patch.object(cli, "_MAX_STR_DIGITS", digits), mock.patch.object(squaring, "_MAX_STR_DIGITS", digits):
        with _deciding_look_ahead(decided):
            bounded = _main_output(argv)
        with mock.patch.object(squaring, "_limit_step", lambda *args: 0):
            walked = _main_output(argv)
    assert bounded == walked
    if decided:
        assert walked[:2] == (2, "") and walked[2].endswith(f"passes the {digits}-digit limit\n")


def test_traj_magnitude_bound_decides_the_print_limit_repros():
    for q, max_steps, step, walked in [
        (Fraction(200, 199), 32, 24, None),
        (Fraction(28, 3), 32, 21, None),
        (Fraction(28, 3), 20, None, (20, True)),  # the walk ends at max_steps first
        (Fraction(5, 3), 32, None, (6, False)),  # theta 6: the walk ends at an integer
    ]:
        decided: list[int] = []
        with _deciding_look_ahead(decided):
            if step is None:
                t = trajectory(q, max_steps)
                assert (len(t.steps), t.truncated) == walked
            else:
                with pytest.raises(ValueError, match=f"^step {step} of {q} passes"):
                    trajectory(q, max_steps)
        assert bool(decided) == (step is not None)  # the look-ahead, not a built numerator, decides


def test_dist_counts_a_scan_past_2_to_the_63(capsys):
    code, out = run_cli(capsys, "dist", "--den", "3", "--depth", "5", "--scan", str(10**20))
    assert code == 0
    assert out.splitlines()[0] == "j=0 exact=1/3 empirical=33333333333333333333/100000000000000000000"


def test_theta2_bfile(capsys):
    code, out = run_cli(capsys, "theta2", "--scan", "4", "--format", "bfile")
    assert code == 0
    assert out == THETA2_BFILE


def test_census_bfile(capsys):
    code, out = run_cli(
        capsys, "census", "--den", "3", "--scan", "11", "--from", "3", "--format", "bfile"
    )
    assert code == 0
    assert out == CENSUS_D3_BFILE


def test_export_bfile_rules():
    top = 10**1000 - 1  # the largest magnitude with 1000 digits
    for indices, values, want in [([], [], ""), ([1, 3], [5, -2], "1 5\n3 -2\n"),
                                  (range(1, 3), [top, -top], f"1 {top}\n2 {-top}\n")]:
        assert cli._check_bfile(indices, values) is None
        assert export_bfile(indices, values) == want
    faults = {  # each fault in the first pair it can reach, then in later pairs
        "strictly increasing": [[(1, 1), (1, 2)], [(1, 1), (3, 2), (2, 3)],
                                [(1, 1), (2, 2), (3, 3), (3, 4)]],
        "must be integers": [[(1, True)], [(1, 1), (2, 2.0)], [(1, 1), (2, 2), (3, Fraction(3))]],
        "1000 decimal digits": [[(1, top + 1)], [(1, 1), (2, -top - 1)],
                                [(1, 1), (2, 2), (3, 10**1001)]],
    }
    for message, cases in faults.items():
        for pairs in cases:
            with pytest.raises(CLIError, match=message):
                cli._check_bfile(*map(list, zip(*pairs)))


def test_json_rows_are_valid_json_lines(capsys):
    code, out = run_cli(capsys, "theta", "--num", "5", "--den", "2", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert row["input"] == "5/2"
    assert row["theta"] == 2
    assert row["reached"] == "60"
    assert isinstance(row["digits"], int)
    assert row["unresolved"] is False


def test_csv_has_header_and_unix_newlines(capsys):
    code, out = run_cli(capsys, "census", "--den", "3", "--scan", "6", "--format", "csv")
    assert code == 0
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0].split(",")[:2] == ["input", "l"]
    assert len(lines) == 7


def test_traj_table(capsys):
    code, out = run_cli(capsys, "traj", "--num", "8", "--den", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].endswith("step=0 value=8/7")
    assert lines[-1].endswith("step=3 value=48")


def test_exceptional_custom_offsets(capsys):
    code, out = run_cli(
        capsys, "exceptional", "--r", "1/2", "--offsets=-2,1", "--bound", "8", "--format", "json"
    )
    assert code == 0
    values = [json.loads(line)["n"] for line in out.splitlines()]
    assert values == sorted(values)


@pytest.mark.parametrize(
    "argv",
    [["records", "--kind", "theta_mult", "--r", "1/0", "--bound", "5"], ["exceptional", "--r", "3/0"]],
)
def test_zero_denominator_ratio_exits_2_with_one_error_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_census_past_the_empty_range_exits_2_with_one_error_line(capsys):
    # --from 12 --scan 11 is the empty census (a golden case); a start past it is an error
    code = main(["census", "--den", "3", "--from", "50", "--scan", "10", "--format", "csv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: census needs --from <= --scan + 1\n")


@pytest.mark.parametrize("l,d", [(5, 3), (7, 4)])
def test_exceptional_census_of_a_map_off_blocks_matches_a_loop(l, d, capsys):
    # offsets 0..d-1 give n -> (l*n + n mod d)/d, which is not constant on
    # the blocks (d(q-1), dq], so the census sieves every residue; the loop
    # walks every start to the default depth, the least k with d^k >= x, + 3
    x = 10_000
    offsets = ",".join(map(str, range(d)))
    code, out = run_cli(capsys, "exceptional", "--r", f"{l}/{d}", f"--offsets={offsets}",
                        "--bound", str(x), "--format", "bfile")
    depth = 3 + next(k for k in range(x + 1) if d**k >= x)
    expected = []
    for n in range(-x, x + 1):
        v = n
        for _ in range(depth):
            v = (l * v + v % d) // d
            if v % d == 0:
                break
        else:
            expected.append(n)
    assert expected
    assert code == 0
    assert out == "".join(f"{i} {n}\n" for i, n in enumerate(expected, 1))


def test_exceptional_denominator2_reports_certification(capsys):
    code, out = run_cli(capsys, "exceptional", "--r", "1/2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows] == [1, 2]
    assert all(row["certified"] is True for row in rows)


def test_exceptional_denominator2_below_stabilization_depth_is_an_error(capsys):
    # no streak reaches the stabilization depth 8 in 7 levels: an empty list would decide nothing
    code = main(["exceptional", "--r", "1/2", "--offsets=-2,1", "--depth", "7"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "depth 7 is below the stabilization depth 8" in captured.err
    code, out = run_cli(capsys, "exceptional", "--r", "1/2", "--offsets=-2,1", "--depth", "8")
    assert code == 0
    assert out == "index=1 n=1 certified=true\n"


def test_records_table(capsys):
    code, out = run_cli(capsys, "records", "--kind", "theta_d3", "--bound", "100")
    assert code == 0
    pairs = []
    for line in out.splitlines():
        cells = dict(part.split("=", 1) for part in line.split())
        pairs.append((int(cells["arg"]), int(cells["record"])))
    assert pairs == [(3, 0), (4, 2), (5, 6), (28, 22)]
    code, out = run_cli(capsys, "records", "--kind", "theta_d3", "--bound", "50", "--format", "bfile")
    assert code == 0
    assert out == "3 0\n4 2\n5 6\n28 22\n"


def test_d3_records_regrow_starts_the_default_window_leaves_unresolved(capsys):
    # 7148/3 stops after 30 steps; window 25 alone would end the table at (19310, 25)
    code, out = run_cli(capsys, "records", "--kind", "theta_d3", "--bound", "100000")
    assert code == 0
    assert out.splitlines()[-1] == "arg=7148 record=30"


def run_cli_in_a_fresh_process(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter; its stderr is its peak RSS in kB.
    VmHWM is the peak RSS of this process's own memory; ru_maxrss would also
    count the pages of the test process it was forked from."""
    probe = (
        "import sys; from ceildyn.cli import main; code = main(sys.argv[1:]); "
        "print(*(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM')), "
        "file=sys.stderr); sys.exit(code)"
    )
    return subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def test_d3_records_to_10_7_stay_small_in_a_fresh_process():
    # the scan keeps the least start per theta, not a theta per start (148 MB).
    result = run_cli_in_a_fresh_process("records", "--kind", "theta_d3", "--bound", "10000000")
    assert result.returncode == 0
    assert result.stdout == "".join(f"arg={l} record={t}\n" for l, t in D3_RECORDS_TO_10_7)
    assert int(result.stderr) < 60 * 1024  # kB


def test_census_of_10_6_starts_stays_small_in_a_fresh_process():
    # the rows are columns and one %-template per row shape (120-130 MB on
    # CPython 3.11); as row tuples and one rendered line per row they took 280 MB
    result = run_cli_in_a_fresh_process("census", "--den", "3", "--scan", "1000000")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert (len(lines), lines[0], lines[-1]) == (10**6, "l=1 unresolved=true", "l=1000000 theta=3")
    assert hashlib.md5(result.stdout.encode()).hexdigest() == "6ee312fd5db3045a0ff7e88417dba958"
    assert int(result.stderr) < 180 * 1024  # kB


def test_census_json_of_10_6_starts_streams_in_a_fresh_process():
    # written _CHUNK rows at a time it peaks at about 40 MB on CPython 3.11;
    # rendered whole, as one string, it took 228 MB
    argv = ("census", "--den", "12", "--from", "20001", "--scan", "1000000", "--format", "json")
    result = run_cli_in_a_fresh_process(*argv)
    assert result.returncode == 0
    assert hashlib.md5(result.stdout.encode()).hexdigest() == "c8c837acd83311f99f45774b5c50290b"
    assert int(result.stderr) < 80 * 1024  # kB


def test_d3_records_exit_3_on_a_wrong_entry_at_the_last_split(monkeypatch, capsys):
    # law 1 never sees the children of the last split; without a certificate
    # the table would read arg=28 record=9 ... arg=68617 record=25
    split = chains._split

    def rotated(d, k, c, modulus, dk):
        out = split(d, k, c, modulus, dk)
        return out[1:] + out[:1] if k == 8 else out

    monkeypatch.setattr(chains, "_split", rotated)
    code = main(["records", "--kind", "theta_d3", "--bound", "100000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal check failed: record 28/3 does not stop after 9 steps" in captured.err


def test_d3_records_exit_2_on_a_start_unresolved_at_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(
        window, "stopping_time_windowed", lambda *a: StoppingReport(theta=None, unresolved_at=1 << 20)
    )
    code = main(["records", "--kind", "theta_d3", "--bound", "10000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "start 7148/3 is unresolved" in captured.err


def test_succ_records_exit_2_on_a_start_unresolved_at_the_cap(monkeypatch, capsys):
    kernel = window._window_theta
    monkeypatch.setattr(window, "_window_theta", lambda u, d, W: None if d == 7 else kernel(u, d, W))
    code = main(["records", "--kind", "theta_succ", "--bound", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "start 8/7 is unresolved at window 1048576" in captured.err


# A walk that never drops, and one in which every child stops: digit law 1
# fails at prime and composite d alike.
@pytest.mark.parametrize("kernel", [lambda u, d, m: [1] * (m + 1), lambda u, d, m: [0] * (m + 1)])
@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--den", "3", "--scan", "100"),
        ("dist", "--den", "3", "--scan", "100"),
        ("census", "--den", "12", "--scan", "100"),
        ("dist", "--den", "6", "--scan", "100"),
        ("chains", "--num", "31", "--den", "30", "--m", "5"),
        ("padic-tree", "--p", "3", "--k", "2"),
    ],
)
def test_broken_window_kernel_exits_3(argv, kernel, monkeypatch, capsys):
    monkeypatch.setattr(chains, "_numerators", kernel)
    assert main(list(argv)) == 3
    assert "internal check failed" in capsys.readouterr().err


# A fault in a kernel of the chain theorem is neither bad input (exit 2)
# nor a verdict to print (exit 0).
@pytest.mark.parametrize("fault, argv, message", [
    (numerators_that_break_divisibility, ["--num", "7", "--den", "6", "--m", "3"],
     "chain of 7/6: denominators must divide their predecessors"),
    (wrong_digit_at_step_3, ["--num", "14", "--den", "9", "--m", "4"],
     "digit law 1 fails for 14/9 at step 3: gcd(a0+1, d_k) = 1 but d_k/d_k+1 = 9"),
], ids=["divisibility", "digit-law-1"])
def test_a_broken_chain_theorem_exits_3(fault, argv, message, monkeypatch, capsys):
    fault(monkeypatch)
    code = main(["chains", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"internal check failed: {message}\n")


def test_theta2_exits_3_when_the_closed_form_names_a_wrong_step(monkeypatch, capsys):
    # the patched count for l = 2 is 3 steps, but 5/2 is integral at step 2
    valuation = squaring.padic_valuation
    monkeypatch.setattr(squaring, "padic_valuation", lambda n, p: valuation(n, p) + 1)
    with pytest.raises(InternalCheckError):
        squaring.theta_denominator2(2)
    assert main(["theta2", "--l", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal check failed" in captured.err


def test_dist_window_does_not_change_output(capsys):
    argv = ("dist", "--den", "3", "--depth", "9", "--scan", "5000")
    _, default = run_cli(capsys, *argv)
    _, narrow = run_cli(capsys, *argv, "--window", "1")
    assert narrow == default


def test_chains_counts_every_start_below_a_large_modulus(capsys):
    code, out = run_cli(capsys, "chains", "--num", "31", "--den", "30", "--m", "5")
    assert code == 0
    assert out == (
        "input=31/30 denominators=30,15,5,5,5,1 breaks=1:2;2:3;5:5 complete=true "
        "ap_predicted=4096 ap_modulus=1687500 ap_enumerated=4096 digit_laws=ok\n"
    )


def test_chains_runs_far_past_the_first_integral_iterate(capsys):
    code, out = run_cli(capsys, "chains", "--num", "14", "--den", "9", "--m", "40")
    assert code == 0
    assert out == (
        f"input=14/9 denominators=9,9,9,9{',1' * 37} breaks=4:9 complete=true "
        "ap_predicted=1296 ap_modulus=59049 ap_enumerated=1296 digit_laws=ok\n"
    )


def test_chains_checks_the_digit_laws_past_the_print_limit(capsys):
    # iterate 21 of 28/3 passes the 2,000,000-digit print limit, but the digit
    # laws read its residues only, so theta(28/3) = 22 shows
    code, out = run_cli(capsys, "chains", "--num", "28", "--den", "3", "--m", "22")
    assert code == 0
    assert out == (
        f"input=28/3 denominators={'3,' * 22}1 breaks=22:3 complete=true "
        "ap_predicted=4194304 ap_modulus=94143178827 digit_laws=ok\n"
    )


def test_chains_runs_300_fractional_steps_of_200_over_199(capsys):
    code, out = run_cli(capsys, "chains", "--num", "200", "--den", "199", "--m", "300")
    assert code == 0
    assert out == (
        f"input=200/199 denominators={','.join(['199'] * 301)} breaks=none "
        f"ap_predicted={198**301} ap_modulus={199**301} digit_laws=ok\n"
    )


def test_floorcheck_marks_starts_its_horizon_leaves_unresolved(capsys):
    # at one step only m = 5 of 6/5's ceiling orbits is integral
    code, out = run_cli(capsys, "floorcheck", "--den", "5", "--scan", "6", "--max-steps", "1")
    assert code == 0
    assert out == "".join(
        f"d=5 m={m} ok={'yes' if m == 5 else 'unresolved'}\n" for m in range(1, 7)
    )


def test_mult_records_print_the_pinned_4_thirds_table(capsys):
    code, out = run_cli(capsys, "records", "--kind", "theta_mult", "--r", "4/3", "--bound", "491729")
    assert code == 0
    assert out == "".join(f"arg={n} record={theta}\n" for n, theta in MULT_RECORDS)


def test_mult_records_exit_2_on_an_unresolved_start(capsys):
    # start 1 of 1/3 is a fixed point; a silent skip would print arg=7 record=2
    code = main(["records", "--kind", "theta_mult", "--r", "1/3", "--bound", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "start 1 is unresolved after max_steps=512 steps" in captured.err


# slope 6 is not a unit mod 3, so no child dies; offsets (0, 1, 1) make a
# step non-integral.  Either way a theorem check must fail loudly.
@pytest.mark.parametrize("l,offsets", [(6, (0, 0, 0)), (4, (0, 1, 1))])
@pytest.mark.parametrize(
    "argv",
    [
        ("exceptional", "--r", "4/3", "--bound", "50"),
        ("records", "--kind", "theta_mult", "--r", "4/3", "--bound", "50"),
    ],
)
def test_broken_sieve_map_exits_3(argv, l, offsets, monkeypatch, capsys):
    broken = multmaps.conjugate_g(Fraction(4, 3))
    object.__setattr__(broken, "l", l)
    object.__setattr__(broken, "offsets", offsets)
    monkeypatch.setattr(multmaps, "conjugate_g", lambda r: broken)
    assert main(list(argv)) == 3
    assert "internal check failed" in capsys.readouterr().err


def test_padic_tree_json(capsys):
    code, out = run_cli(capsys, "padic-tree", "--p", "3", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [len(level["prefixes"]) for level in doc["levels"]] == [2, 4, 8, 16]


def test_padic_tree_json_refuses_p_above_36_before_building_the_tree(monkeypatch, capsys):
    # the tree at --levels 4 has 36^4 (1.7M) nodes at its last level
    calls = []
    monkeypatch.setattr(padic, "omega_prefix_tree", lambda *args: calls.append(args))
    code = main(["padic-tree", "--p", "37", "--k", "1", "--levels", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: digit strings support p up to 36\n")
    assert calls == []


def test_cache_round_trip(tmp_path, capsys):
    args = ("census", "--den", "3", "--scan", "20", "--cache", str(tmp_path))
    code, first = run_cli(capsys, *args)
    assert code == 0
    cached_files = list(tmp_path.iterdir())
    assert len(cached_files) == 1
    code, second = run_cli(capsys, *args)
    assert code == 0
    assert second == first


def test_cache_entry_of_several_chunks_holds_the_whole_output(tmp_path, capsys):
    argv = ["census", "--den", "3", "--scan", "20000", "--format", "csv", "--cache", str(tmp_path)]
    _, whole = run_cli(capsys, *argv[:-2])
    assert whole.count("\n") > 2 * cli._CHUNK
    code, cold = run_cli(capsys, *argv)
    assert (code, cold) == (0, whole)
    (entry,) = tmp_path.iterdir()
    _, identity = cli._cache_entry(cli.build_parser().parse_args(argv))
    assert json.loads(entry.read_text(encoding="utf-8")) == {**identity, "output": whole}
    code, hit = run_cli(capsys, *argv)
    assert (code, hit) == (0, whole)


# Each format reaches its renderer by the module name, which bench/spans.py wraps.
@pytest.mark.parametrize("fmt, renderer, argv", [
    ("table", "render_table", ["census", "--den", "3", "--scan", "20000"]),
    ("json", "render_json", ["census", "--den", "3", "--scan", "20000"]),
    ("csv", "render_csv", ["census", "--den", "3", "--scan", "20000"]),
    ("bfile", "export_bfile", ["theta2", "--scan", "20000"]),
], ids=FORMATS)
def test_a_stream_that_fails_leaves_no_cache_entry(
        fmt, renderer, argv, tmp_path, monkeypatch, capsys):
    rendered = []

    def failing(*args):
        rendered.append(args)
        if len(rendered) == 2:
            raise RuntimeError("the second piece fails")
        return render(*args)

    render = getattr(cli, renderer)
    monkeypatch.setattr(cli, renderer, failing)
    with pytest.raises(RuntimeError):
        main([*argv, "--format", fmt, "--cache", str(tmp_path)])
    assert len(rendered) == 2
    assert list(tmp_path.iterdir()) == []


def test_a_cache_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    for path in (taken, taken / "sub"):
        code = main(["alpha", "--den", "6", "--cache", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: cannot write to cache directory {path}: ")
        assert captured.err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_an_unusable_cache_directory_is_refused_before_the_command_runs(
        tmp_path, monkeypatch, capsys):
    calls = []
    handler, *rest = COMMANDS["census"]
    monkeypatch.setitem(COMMANDS, "census", (lambda args: calls.append(args) or handler(args), *rest))
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    code = main(["census", "--den", "3", "--scan", "2000", "--cache", str(taken)])
    captured = capsys.readouterr()
    assert (code, captured.out, calls) == (2, "", [])
    assert captured.err.startswith(f"error: cannot write to cache directory {taken}: ")
    assert captured.err.count("\n") == 1


# dist checks the exact masses before it runs the sieve, so a broken phi never
# reaches the _phi_law that chains._split caches.
@pytest.mark.parametrize("phi, message", [
    (lambda t: t, "stop masses exceed total probability 1"),
    (lambda t: Fraction(1, 7), "stop mass denominator does not divide d^(j+1)"),
], ids=["sum-past-1", "denominator-7"])
def test_a_broken_stop_mass_exits_3(phi, message, monkeypatch, capsys):
    monkeypatch.setattr(chains, "euler_phi", phi)
    with pytest.raises(InternalCheckError) as raised:
        chains.chain_stop_masses(3, 3)
    assert str(raised.value) == message
    code = main(["dist", "--den", "3", "--depth", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"internal check failed: {message}\n")


def test_cache_corruption_recovers(tmp_path, capsys):
    args = ("theta", "--num", "5", "--den", "2", "--cache", str(tmp_path))
    _, first = run_cli(capsys, *args)
    cache_file = next(tmp_path.iterdir())
    cache_file.write_bytes(b"\x00\xff garbage")
    code, second = run_cli(capsys, *args)
    assert code == 0
    # the poisoned entry is ignored; the recomputed result is served
    assert second == first == "theta=2 reached=60\n"


@pytest.mark.parametrize("payload", [{"output": 5}, [1], {"engine": "x"}, "text", None])
def test_cache_entry_of_the_wrong_shape_is_a_miss(payload, tmp_path, capsys):
    args = ("census", "--den", "3", "--scan", "11", "--from", "3", "--format", "bfile")
    _, first = run_cli(capsys, *args, "--cache", str(tmp_path))
    cache_file = next(tmp_path.iterdir())
    cache_file.write_text(json.dumps(payload), encoding="utf-8")
    code, second = run_cli(capsys, *args, "--cache", str(tmp_path))
    assert code == 0
    assert second == first == CENSUS_D3_BFILE
    # the recomputed result replaced the bad entry
    assert json.loads(cache_file.read_text(encoding="utf-8"))["output"] == CENSUS_D3_BFILE


def test_cache_key_separates_formats(tmp_path, capsys):
    base = ("theta", "--num", "5", "--den", "2", "--cache", str(tmp_path))
    _, table_out = run_cli(capsys, *base)
    _, json_out = run_cli(capsys, *base, "--format", "json")
    assert len(list(tmp_path.iterdir())) == 2
    assert table_out == "theta=2 reached=60\n"
    assert json.loads(json_out)["theta"] == 2


def test_cache_key_tracks_the_source_digest(monkeypatch):
    args = cli.build_parser().parse_args(["census", "--den", "3", "--scan", "20", "--cache", "a"])

    def key():
        return os.path.basename(cli._cache_entry(args)[0])

    first = key()
    for workers, cache_dir in ((4, "a"), (1, "elsewhere")):
        args.workers, args.cache_dir = workers, cache_dir
        assert key() == first
    monkeypatch.setattr(cli, "_source_digest", lambda: "edited source")
    assert key() != first


def test_source_digest_is_only_computed_for_cached_runs(tmp_path, capsys):
    cli._source_digest.cache_clear()
    run_cli(capsys, "alpha", "--den", "6")
    assert cli._source_digest.cache_info().currsize == 0
    run_cli(capsys, "alpha", "--den", "6", "--cache", str(tmp_path))
    assert cli._source_digest.cache_info().misses == 1


def test_workers_flag_is_accepted_and_has_no_effect(capsys):
    argv = ("records", "--kind", "theta_d3", "--bound", "8000")
    _, default = run_cli(capsys, *argv)
    code, three = run_cli(capsys, *argv, "--workers", "3")
    assert code == 0
    assert three == default
    assert main([*argv, "--workers", "0"]) == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_cli_import_loads_no_process_pool():
    probe = (
        "import sys, ceildyn.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.stdout == "[]\n"


def test_cli_import_loads_no_map_spec_module():
    probe = "import sys, ceildyn.cli; print('ceildyn.maps' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.stdout == "False\n"


def test_missing_required_argument_exits_2(capsys):
    assert main(["theta", "--num", "5"]) == 2
    capsys.readouterr()


def test_subunit_start_reports_unresolved(capsys):
    code, out = run_cli(capsys, "theta", "--num", "2", "--den", "5")
    assert code == 0
    assert out == "unresolved=true\n"


def test_invalid_input_exits_2(capsys):
    assert main(["padic-tree", "--p", "4"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bfile_without_representation_exits_2(capsys):
    assert main(["alpha", "--den", "6", "--format", "bfile"]) == 2
    capsys.readouterr()


def test_bfile_refusal_runs_no_handler(monkeypatch, capsys):
    calls = []
    _, columns, bfile = COMMANDS["chains"]
    assert bfile is None
    monkeypatch.setitem(COMMANDS, "chains", (lambda args: calls.append(args) or [], columns, None))
    code = main(["chains", "--num", "200", "--den", "199", "--m", "2000", "--format", "bfile"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: chains output has no b-file representation\n"
    assert calls == []


def test_internal_check_failure_exits_3(monkeypatch, capsys):
    def broken(args):
        raise InternalCheckError("synthetic failure")

    monkeypatch.setitem(COMMANDS, "alpha", (broken, None, None))
    assert main(["alpha", "--den", "6"]) == 3
    assert "internal check failed" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "traj" in capsys.readouterr().out


def test_one_parser_serves_every_call_without_leaking_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    golden = {case["argv"]: case for case in GOLDEN}

    def check(argv: str) -> None:
        case = golden[argv]
        code = main(argv.split())
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])

    assert main(["theta", "--num", "5"]) == 2  # a parse that fails part-way
    assert "--den" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "traj" in capsys.readouterr().out
    for case in reversed(GOLDEN):
        check(case["argv"])
    # a value given once is not the default of the next call
    code, out = run_cli(capsys, "theta", "--num", "5", "--den", "2", "--window", "12")
    assert (code, out) == (0, "theta=2\n")
    check("theta --num 5 --den 2 --format table")
    # nor is a cache directory: poison the entry, then run without --cache
    argv = "alpha --den 12 --format table"
    code, out = run_cli(capsys, *argv.split(), "--cache", str(tmp_path))
    assert (code, out) == (0, golden[argv]["stdout"])
    (entry,) = tmp_path.iterdir()
    entry.write_text(json.dumps({"output": "poisoned\n"}), encoding="utf-8")
    assert run_cli(capsys, *argv.split(), "--cache", str(tmp_path)) == (0, "poisoned\n")
    check(argv)


def test_entry_point_builds_its_parser_in_a_fresh_interpreter():
    case = next(c for c in GOLDEN if c["argv"] == "padic-tree --p 3 --k 2 --levels 3 --format json")
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from ceildyn.cli import main; sys.exit(main(sys.argv[1:]))",
            *case["argv"].split(),
        ],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == case["code"]
    assert result.stdout == case["stdout"].encode("utf-8")
    assert result.stderr == case["stderr"].encode("utf-8")


def test_reproduce_tables_script_runs():
    def run(table: str) -> str:
        proc = subprocess.run(
            [sys.executable, "scripts/reproduce_tables.py", "--table", table],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert "4 3 268065" in run("half")
    expected = (REPO_ROOT / "tests" / "reproduce_tables_all.txt").read_text(encoding="utf-8")
    assert run("all") == expected

