"""Command-line harness for the ceiling-dynamics experiments.

Subcommands wrap the library modules: exact and windowed stopping times,
orbits, censuses, stopping-time distributions, denominator chains, density
exponents, exceptional-set explorations, p-adic prefix trees, and record
searches.  Results render as a plain table, JSON Lines, CSV, or an
OEIS-style b-file; runs can be cached on disk.  Every scan runs once, in
this process, on the library's residue sieves.

COMMANDS declares each subcommand's columns once; handlers return one
sequence of cells per column, which run_command checks once over every
row.  The renderers then take the output _CHUNK rows at a time, so no run
holds it whole.  Table, JSON and CSV share _render: one %-template per
row shape, joined over a chunk's rows and filled by a single % with every
shown cell, so a large census does no Python work per row, and no format
builds a cell it does not show.

A process builds its parser once (build_parser) and parses every command
with it, so main may be called repeatedly in one process, each call paying
only for its own command.

Exit codes: 0 success (rows may still be marked unresolved), 2 invalid
arguments, an impossible output request, or a record scan with a start
unresolved at --max-steps (theta_mult) or at the largest window
(theta_d3, theta_succ), 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import string
import sys
import tempfile
from collections.abc import Iterable
from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import is_, lt
from typing import NamedTuple

from ceildyn import chains as chainlib
from ceildyn import multmaps, padic
from ceildyn.rational import InternalCheckError, digits10, parse_rational
from ceildyn.squaring import (
    _MAX_STR_DIGITS, StoppingReport, stopping_time_exact, theta_denominator2, trajectory
)
from ceildyn.window import stopping_time_windowed, successor_records, track_magnitude

FORMATS = ("table", "json", "csv", "bfile")


class CLIError(Exception):
    """Invalid arguments or an output format that cannot hold the result."""


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


@functools.cache
def _source_digest() -> str:
    """sha256 over the ceildyn source files, so a cached result never
    outlives the code that produced it.  Computed once, on first use."""
    import hashlib  # only --cache needs it, so start-up skips it
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8") + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cache_entry(args: argparse.Namespace) -> tuple[str, dict]:
    """The cache file of a run and the identity its name hashes: the source
    digest and every set argument.  The cache directory says where results
    are stored, never what they are, so it stays out, as does --workers."""
    import hashlib
    skip = ("workers", "cache_dir")
    params = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    identity = {"engine": _source_digest(), "args": params}
    blob = json.dumps(identity, sort_keys=True, default=str).encode("utf-8")
    return os.path.join(args.cache_dir, hashlib.sha256(blob).hexdigest() + ".json"), identity


def cache_load(args: argparse.Namespace) -> str | None:
    if args.cache_dir is None:
        return None
    try:
        with open(_cache_entry(args)[0], encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    output = payload.get("output") if isinstance(payload, dict) else None
    return output if isinstance(output, str) else None  # any other shape is a miss


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

_ABSENT = object()  # the cell of a column that a row does not carry
_VALUE = object()  # the shape of a cell shown as its value
_SPECIAL = (None, True, False, _ABSENT)  # the cells whose shape is themselves
_KINDS = {id(s): s for s in _SPECIAL}  # a special cell's id -> its shape
_NOT_VALUES = {bool, type(None), object}  # the types of an optional column's special cells
_FOLDABLE = {int, Fraction, float} | _NOT_VALUES  # numbers, whose str is _PLAIN, and specials
_PLAIN = set(map(chr, range(32, 127))) - set(',"\\')  # text CSV and JSON leave unquoted


class Column(NamedTuple):
    """One output column of a subcommand; a handler returns one sequence of
    cells per column, all of one length, so row j holds each column's cell j.

    text formats a cell: a str.format template whose one "{}" is the cell
    and whose named fields are the command's arguments ("{}/{den}"), shown
    in JSON as a string.  Without text a cell is an int, shown as it is.
    Only an optional column's cells may be None, a bool or _ABSENT, and its
    other cells share one type.  The table leaves out None, False and
    _ABSENT cells, and the whole column when table is False.
    """

    name: str
    text: str | None = None
    optional: bool = False
    table: bool = True


def _lit(text: str) -> str:
    """text as the literal part of a %-template."""
    return text.replace("%", "%%")


def _cell_text(text: str, args) -> tuple[str, str, str]:
    """text as (prefix, spec, suffix) around its "{}" field, with its named
    fields set from the command's arguments."""
    parts, spec = [""], ""
    for literal, field, field_spec, _ in string.Formatter().parse(text):
        parts[-1] += literal
        if field == "":
            parts.append("")
            spec = field_spec
        elif field is not None:
            parts[-1] += format(getattr(args, field), field_spec)
    prefix, suffix = parts
    return prefix, spec, suffix


class _Templates(dict):
    """Line templates by shape key, each built by line(key) on first use."""

    def __init__(self, line):
        self.line = line

    def __missing__(self, key):
        template = self[key] = self.line(key)
        return template


def _render(cells, columns, args, piece, sep, ends, quote=None, wrap="") -> str:
    """One line per row, from one %-template per row shape, filled by one %
    over the rows given, a non-empty chunk: a row's line depends on its
    own cells alone.  Each optional cell in _SPECIAL stands for itself,
    every other cell is _VALUE.  piece(i, column, kind, value) is column i's
    part of the template, holding the %-placeholder value where it shows the
    cell, or None to leave the column out; the parts are joined by sep
    inside ends.  Every template consumes, in column order, each column
    whose cells some row shows, as "%.0s" where its own row does not.

    A shown text cell is text's prefix, the cell formatted by text's spec,
    and its suffix.  With quote that text is quoted cell by cell, unless no
    spec formats the column, its cells are _FOLDABLE and its prefix and
    suffix are _PLAIN: then quote only wraps it, and the template holds it."""
    n = len(cells[0])
    types = [set(map(type, col)) if c.optional or c.text and quote else None
             for c, col in zip(columns, cells)]
    optional = [i for i, c in enumerate(columns) if c.optional]
    keyed = [  # the shape key's columns: the cells, or their shapes where a bool meets 1 == True
        list(map(_KINDS.get, map(id, cells[i]), repeat(_VALUE)))
        if bool in types[i] and types[i] - _NOT_VALUES
        else cells[i]
        for i in optional
    ]
    value, filled, shown = ["%s"] * len(columns), set(), []
    for i, (c, col) in enumerate(zip(columns, cells)):
        if piece(i, c, _VALUE, "") is None or c.optional and types[i] <= _NOT_VALUES:
            continue  # no row shows this column's cells
        if c.text:
            prefix, spec, suffix = _cell_text(c.text, args)
            plain = not spec and _PLAIN >= set(prefix + suffix)
            if spec:  # a special cell is not shown as its value
                col = [v if id(v) in _KINDS else format(v, spec) for v in col]
            if quote is None or plain and types[i] <= _FOLDABLE:
                value[i] = wrap + _lit(prefix) + "%s" + _lit(suffix) + wrap
            else:
                col = list(map(quote, map("{}{}{}".format, repeat(prefix), col, repeat(suffix))))
        filled.add(i)
        shown.append(col)

    def line(key) -> str:
        kinds = dict(zip(optional, key))
        lead, parts = "", []
        for i, c in enumerate(columns):
            kind = _KINDS.get(id(kinds.get(i, _VALUE)), _VALUE)
            if (part := piece(i, c, kind, value[i])) is not None:
                parts.append(part)
            if i in filled and kind is not _VALUE:
                if parts:
                    parts[-1] += "%.0s"
                else:
                    lead += "%.0s"
        return _lit(ends[0]) + lead + _lit(sep).join(parts) + _lit(ends[1])

    body = "".join(map(_Templates(line).__getitem__, zip(*keyed))) if keyed else line(()) * n
    return body % tuple(chain.from_iterable(zip(*shown)))


def _csv_field(text: str) -> str:
    """text as a CSV field: quoted, with inner quotes doubled, when it holds
    a comma, a double quote or a newline (what csv.writer quotes)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def render_table(cells, columns, args) -> str:
    """One "name=value" group per row; None, False and absent cells are left out."""

    def piece(i, c, kind, value):
        if c.table and kind is not None and kind is not False and kind is not _ABSENT:
            return f"{_lit(c.name)}={'true' if kind is True else value}"

    return _render(cells, columns, args, piece, " ", ("", "\n"))


def render_json(cells, columns, args) -> str:
    """JSON Lines: one object per row holding the cells it carries."""

    def piece(i, c, kind, value):
        if kind is not _ABSENT:
            return f"{_lit(_json_string(c.name))}: {value if kind is _VALUE else json.dumps(kind)}"

    return _render(cells, columns, args, piece, ", ", ("{", "}\n"), _json_string, '"')


def _csv_head(cells, columns) -> tuple[list[bool], str]:
    """Which columns some row carries, and the CSV header naming them."""
    shown = [not (c.optional and all(map(is_, col, repeat(_ABSENT))))
             for c, col in zip(columns, cells)]
    return shown, ",".join(c.name for c, s in zip(columns, shown) if s) + "\n"


def render_csv(cells, columns, args, shown) -> str:
    """CSV lines of one chunk, without the header: shown marks the columns
    that _csv_head found some row of the whole output to carry.  None and
    absent cells are empty, bools lower-case."""
    empty = '""' if sum(shown) == 1 else ""  # csv.writer quotes a row's lone empty field

    def piece(i, c, kind, value):
        if shown[i]:
            return value if kind is _VALUE else {True: "true", False: "false"}.get(kind, empty)

    quote = (lambda text: _csv_field(text) or empty) if empty else _csv_field
    return _render(cells, columns, args, piece, ",", ("", "\n"), quote)


_BFILE_VALUE_LIMIT = 10**1000  # b-file values have at most 1000 decimal digits


def _check_bfile(indices, values) -> None:
    """Raise CLIError unless the terms can be written as a b-file."""
    if not len(indices):
        return
    if not all(map(lt, indices, indices[1:])):
        raise CLIError("b-file indices must be strictly increasing")
    if set(map(type, values)) != {int}:
        raise CLIError("b-file values must be integers")
    if max(values) >= _BFILE_VALUE_LIMIT or -min(values) >= _BFILE_VALUE_LIMIT:
        raise CLIError("b-file values are limited to 1000 decimal digits")


def export_bfile(indices, values) -> str:
    """OEIS b-file text of terms run_command checked: "index value" lines."""
    return "%s %s\n" * len(indices) % tuple(chain.from_iterable(zip(indices, values)))


# ---------------------------------------------------------------------------
# Commands: each returns one sequence of cells per column in COMMANDS
# ---------------------------------------------------------------------------


def cmd_traj(args) -> list:
    q = Fraction(args.num, args.den)
    t = trajectory(q, max_steps=args.max_steps)
    values = t.values()
    truncated = [_ABSENT] * len(values)
    if t.truncated:
        truncated[-1] = True
    return [[q] * len(values), range(len(values)), values, truncated]


def cmd_theta(args) -> list:
    q = Fraction(args.num, args.den)
    if args.num < args.den:
        rep = StoppingReport(theta=None, unresolved_at=0)
    else:  # the window decides theta first: the exact walk's digits double per step
        rep = stopping_time_windowed(args.num, args.den, args.window or args.max_steps, args.auto_grow)
        if rep.resolved and (args.window is None or rep.theta == 0):
            size = track_magnitude(args.num, args.den, rep.theta, digit_cap=64)
            if (log10 := size.log10_value - size.error_bound) >= _MAX_STR_DIGITS:
                # an error bound of 10^e or more leaves known only the digits above 10^e
                known = Decimal(1).scaleb(size.error_bound.adjusted() + 1)
                about = int(log10) + 1 if known <= 1 else f"{log10.quantize(known, ROUND_FLOOR):e}"
                raise CLIError(f"the integer reached has about {about} digits, above the "
                               f"{_MAX_STR_DIGITS} the CLI prints; use --window for theta alone")
            rep = stopping_time_exact(q, max_steps=rep.theta)
    reached = (rep.reached, digits10(rep.reached)) if rep.reached is not None else (_ABSENT, _ABSENT)
    return [[cell] for cell in (q, rep.theta, *reached, not rep.resolved)]


def cmd_theta2(args) -> list:
    ls = range(1, args.scan + 1) if args.scan is not None else [args.l]
    thetas, reached = zip(*map(theta_denominator2, ls))
    return [[2 * l + 1 for l in ls], ls, thetas, reached, [False] * len(ls)]


def cmd_census(args) -> list:
    if args.den < 2:
        raise CLIError("census needs --den >= 2")
    if args.lo > args.scan + 1:  # --from = --scan + 1 is the empty census
        raise CLIError("census needs --from <= --scan + 1")
    thetas = chainlib.census_thetas(args.den, args.lo, args.scan, args.window)
    ls = range(args.lo, args.lo + len(thetas))
    return [ls, ls, thetas, list(map(is_, thetas, repeat(None)))]


def cmd_dist(args) -> list:
    d = args.den
    if d < 2:
        raise CLIError("dist needs --den >= 2")
    masses = chainlib.chain_stop_masses(d, args.depth)  # checked before the sieve runs
    counts = list(chainlib.stop_counts(d, 1, args.scan, args.depth).values())
    counts.append(args.scan - sum(counts))
    seen = [Fraction(n, args.scan) if args.scan else _ABSENT for n in counts]
    return [[*range(args.depth + 1), "tail"], [*masses, 1 - sum(masses)], seen]


def cmd_chains(args) -> list:
    chain = chainlib.verify_digit_laws(args.num, args.den, args.m)
    ap = chainlib.ap_count_for_chain(chain)
    denominators = ",".join(str(t) for t in chain.denominators)
    breaks = ";".join(f"{j}:{r}" for j, r in chain.break_points) or "none"
    counts = (ap.predicted, ap.modulus, ap.enumerated)
    return [[cell] for cell in (args.num, denominators, breaks, chain.complete, *counts, "ok")]


def cmd_alpha(args) -> list:
    if args.den < 2:
        raise CLIError("alpha needs --den >= 2")
    a = chainlib.alpha_d(args.den)
    divisor_form = chainlib.alpha_d_divisor_form(args.den)
    row = (args.den, a.value, a.prime, a.multiplicity, divisor_form, chainlib.beta_d(args.den))
    return [[cell] for cell in row]


def cmd_padic_tree(args) -> list:
    tree = padic.omega_prefix_tree(args.p, args.k, args.levels)
    rows = [
        (l, len(level), min(counts), max(counts), _ABSENT, _ABSENT)
        for l, (level, counts) in enumerate(zip(tree.levels, tree.child_counts), start=1)
    ]
    estimate = padic.box_dimension_estimate(tree) if args.levels >= 3 else _ABSENT
    rows.append(("dim", None, None, None, padic.hausdorff_dimension(args.p, args.k), estimate))
    return list(zip(*rows))


def cmd_exceptional(args) -> list:
    r = parse_rational(args.r)
    l, d = r.numerator, r.denominator
    if d < 2:
        raise CLIError("exceptional needs a fractional --r l/d with d >= 2")
    if args.offsets is not None:
        offsets = tuple(int(part) for part in args.offsets.split(","))
        m = multmaps.PeriodicallyLinearMap(l, d, offsets)
    else:
        m = multmaps.conjugate_g(r)
    if d == 2:
        depth = args.depth or 64
        candidates = multmaps.exceptional_denominator2(m, depth_K=depth)
        rows = [(i, c.value, depth, c.certified) for i, c in enumerate(candidates, 1)]
        return list(zip(*rows)) or [()] * 4
    survivors = multmaps.exceptional_census(m, args.bound, args.depth).survivors
    n = len(survivors)
    return [range(1, n + 1), survivors, [_ABSENT] * n, [_ABSENT] * n]


def cmd_sigma(args) -> list:
    sigma = multmaps.sigma_literal if args.literal else multmaps.sigma_prime
    members = sorted(sigma(args.den, args.k))
    return [range(1, len(members) + 1), members]


def cmd_mahler(args) -> list:
    js = [multmaps.mahler_witness(n, args.max_steps) for n in range(1, args.scan + 1)]
    return [range(1, args.scan + 1), js, list(map(is_, js, repeat(None)))]


def cmd_floorcheck(args) -> list:
    d, ms = args.den, range(1, args.scan + 1)
    # the ceiling orbits of m under (d+1)/d, as numerators over d (at d = 1, 2/1 stops each at step 1)
    walks = multmaps._finish(multmaps.conjugate_g(Fraction(d + 1, d)), ((m, d * m) for m in ms),
                             0, args.max_steps)
    ok = ["unresolved" if j is None else "yes" for _, j, _ in walks]
    return [[d] * len(ms), ms, ok]


def cmd_records(args) -> list:
    if args.kind == "theta_d3":
        pairs = chainlib.squaring_records(3, 1, args.bound, args.window or 25)
    elif args.kind == "theta_mult":
        pairs = multmaps.mult_records(parse_rational(args.r), 0, args.bound, args.max_steps)
    else:
        pairs = successor_records(1, args.bound, args.window or 64)
    return list(zip(*pairs)) or [(), ()]


_INPUT = Column("input", "{}", table=False)
_UNRESOLVED = Column("unresolved", optional=True)

# command -> (handler, columns, b-file (index column, value column, what rows) or None)
COMMANDS = {
    "traj": (cmd_traj, (
        _INPUT, Column("step"), Column("value", "{}"), Column("truncated", optional=True),
    ), None),
    "theta": (cmd_theta, (
        _INPUT, Column("theta", optional=True), Column("reached", "{}", optional=True),
        Column("digits", optional=True, table=False), _UNRESOLVED,
    ), None),
    "theta2": (cmd_theta2, (
        Column("input", "{}/2", table=False), Column("l"), Column("theta"), Column("reached", "{}"),
        Column("unresolved", optional=True, table=False),
    ), ("l", "theta", "theta2")),
    "census": (cmd_census, (
        Column("input", "{}/{den}", table=False), Column("l"), Column("theta", optional=True),
        _UNRESOLVED,
    ), ("l", "theta", "census")),
    "dist": (cmd_dist, (
        Column("j", "{}"), Column("exact", "{}"), Column("empirical", "{}", optional=True),
    ), None),
    "chains": (cmd_chains, (
        Column("input", "{}/{den}"), Column("denominators", "{}"), Column("breaks", "{}"),
        Column("complete", optional=True), Column("ap_predicted"), Column("ap_modulus"),
        Column("ap_enumerated", optional=True), Column("digit_laws", "{}"),
    ), None),
    "alpha": (cmd_alpha, (
        Column("d"), Column("alpha", "{:.10g}"), Column("prime"), Column("multiplicity"),
        Column("divisor_form", "{:.10g}"), Column("beta", "{:.10g}"),
    ), None),
    "padic-tree": (cmd_padic_tree, (
        Column("level", "{}"), Column("size", optional=True), Column("children_min", optional=True),
        Column("children_max", optional=True), Column("formula", "{:.10g}", optional=True),
        Column("estimate", "{:.10g}", optional=True),
    ), None),
    "exceptional": (cmd_exceptional, (
        Column("index"), Column("n"), Column("verified_depth", optional=True, table=False),
        Column("certified", optional=True),
    ), ("index", "n", "exceptional")),
    "sigma": (cmd_sigma, (Column("index"), Column("n")), ("index", "n", "sigma")),
    "mahler": (cmd_mahler, (
        Column("n"), Column("j", optional=True), _UNRESOLVED,
    ), ("n", "j", "witness")),
    "floorcheck": (cmd_floorcheck, (Column("d"), Column("m"), Column("ok", "{}")), None),
    "records": (cmd_records, (Column("arg"), Column("record")), ("arg", "record", "records")),
}


# Rows rendered and written at a time: a 10^6-row census renders no faster
# with larger chunks, and from 32768 rows a chunk raises the peak memory.
_CHUNK = 8192


def run_command(args: argparse.Namespace) -> Iterable[str]:
    """The command's output, in pieces of _CHUNK rows; before it returns, the
    handler has run and every check that can refuse the output has passed,
    once over the whole columns, the b-file checks included."""
    if args.command == "padic-tree" and args.format == "json":
        padic.check_digit_base(args.p)  # the tree has phi(p^k)^levels nodes
        return [padic.tree_to_json(padic.omega_prefix_tree(args.p, args.k, args.levels)) + "\n"]
    handler, columns, bfile = COMMANDS[args.command]
    if args.format == "bfile" and bfile is None:
        raise CLIError(f"{args.command} output has no b-file representation")
    cells = handler(args)
    if args.format == "bfile":
        index, value, what = bfile
        names = [c.name for c in columns]
        cells = [cells[names.index(index)], cells[names.index(value)]]
        if None in cells[1]:
            raise CLIError(f"cannot export unresolved {what} rows as a b-file")
        _check_bfile(*cells)
    return _pieces(args.format, cells, columns, args)


def _pieces(fmt: str, cells, columns, args) -> Iterable[str]:
    """cells rendered in fmt, _CHUNK rows a piece, each piece rendered when
    it is read; no piece is empty.  The CSV header and its columns are decided
    over every row.  Each call looks the renderers up by name, so wrappers apply."""
    parts = ([col[i:i + _CHUNK] for col in cells] for i in range(0, len(cells[0]), _CHUNK))
    if fmt == "bfile":
        return (export_bfile(*part) for part in parts)
    if fmt == "csv":
        shown, header = _csv_head(cells, columns)
        rows = (render_csv(part, columns, args, shown) for part in parts)
        return chain([header], rows) if len(cells[0]) else rows
    render = render_table if fmt == "table" else render_json
    return (render(part, columns, args) for part in parts)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; callers parse with it
    and never change it.  parse_args returns a fresh Namespace on every call
    and no default is mutable, so every call of main can share it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--cache", dest="cache_dir", metavar="DIR", help="result cache directory")
    common.add_argument(
        "--workers", type=_positive, default=1, help="accepted but unused: scans run in process"
    )

    parser = argparse.ArgumentParser(
        prog="ceildyn", description="Experiments with x*ceil(x) and r*ceil(x) dynamics."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traj", parents=[common], help="exact orbit of num/den")
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--max-steps", type=_positive, default=32)

    p = sub.add_parser("theta", parents=[common], help="stopping time of num/den")
    p.add_argument("--num", type=_positive, required=True)
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--window", type=_positive, default=None, help="digit window; exact if absent")
    p.add_argument("--auto-grow", action="store_true")
    p.add_argument("--max-steps", type=_positive, default=256)

    p = sub.add_parser("theta2", parents=[common], help="closed form for (2l+1)/2 starts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=_positive)
    group.add_argument("--scan", type=_positive, help="all l up to this bound")

    p = sub.add_parser("census", parents=[common], help="stopping times of l/den for a range of l")
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--scan", type=_positive, required=True, help="largest l")
    p.add_argument("--from", dest="lo", type=_positive, default=1, help="smallest l")
    p.add_argument("--window", type=_positive, default=25)

    p = sub.add_parser("dist", parents=[common], help="stopping-time distribution over den")
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--depth", type=_nonnegative, default=5)
    p.add_argument("--scan", type=_nonnegative, default=10000, help="empirical sample bound")
    p.add_argument(
        "--window", type=_positive, default=48, help="accepted but unused: counts are exact"
    )

    p = sub.add_parser("chains", parents=[common], help="denominator chain of num/den")
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--m", type=_nonnegative, default=8, help="chain length (map steps)")

    p = sub.add_parser("alpha", parents=[common], help="density exponents for a denominator")
    p.add_argument("--den", type=_positive, required=True)

    p = sub.add_parser("padic-tree", parents=[common], help="p-adic exceptional prefix tree")
    p.add_argument("--p", type=_positive, required=True)
    p.add_argument("--k", type=_positive, default=1)
    p.add_argument("--levels", type=_positive, default=4)

    p = sub.add_parser("exceptional", parents=[common], help="exceptional set of n -> l*ceil(n/d)")
    p.add_argument("--r", required=True, metavar="L/D")
    p.add_argument("--offsets", default=None, help="comma-separated offsets for a custom map")
    p.add_argument("--bound", type=_positive, default=100, help="census interval [-bound, bound]")
    p.add_argument("--depth", type=_positive, default=None, help="sieve depth")

    p = sub.add_parser("sigma", parents=[common], help="digit-restricted always-exceptional set")
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--literal", action="store_true", help="use the uncorrected digit set")

    p = sub.add_parser("mahler", parents=[common], help="search 3*ceil(n/2) orbits for 3 mod 4 hits")
    p.add_argument("--scan", type=_positive, default=20)
    p.add_argument("--max-steps", type=_positive, default=256)

    p = sub.add_parser("floorcheck", parents=[common], help="floor/ceiling orbit shift identity")
    p.add_argument("--den", type=_positive, required=True)
    p.add_argument("--scan", type=_positive, default=100, help="check starts m = 1..scan")
    p.add_argument("--max-steps", type=_positive, default=512)

    p = sub.add_parser("records", parents=[common], help="record stopping times over a scan")
    p.add_argument("--kind", choices=("theta_d3", "theta_succ", "theta_mult"), required=True)
    p.add_argument("--bound", type=_positive, required=True)
    p.add_argument("--window", type=_positive, default=None)
    p.add_argument("--r", default="4/3", metavar="L/D", help="ratio for theta_mult")
    p.add_argument("--max-steps", type=_positive, default=512)

    return parser


def _write_output(args: argparse.Namespace) -> None:
    """Run the command and write each piece of its output to stdout and, with
    --cache, into the run's cache entry, the JSON document {"engine", "args",
    "output"}, which replaces the entry only once it is whole.  An unusable
    cache directory is refused before the command runs."""
    if args.cache_dir is None:
        sys.stdout.writelines(run_command(args))
        return
    path, identity = _cache_entry(args)
    try:
        os.makedirs(args.cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=args.cache_dir, suffix=".tmp")
    except OSError as exc:
        raise CLIError(f"cannot write to cache directory {args.cache_dir}: {exc.strerror}")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**identity, "output": ""}, default=str)[:-2])  # up to the output
            for piece in run_command(args):
                sys.stdout.write(piece)
                fh.write(_json_string(piece)[1:-1])
            fh.write('"}')
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    try:
        sys.set_int_max_str_digits(_MAX_STR_DIGITS)
    except (AttributeError, ValueError):
        pass
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cached = cache_load(args)
        if cached is not None:
            sys.stdout.write(cached)
            return 0
        _write_output(args)
    except (CLIError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
