"""Command-line harness for the ceiling-dynamics experiments.

Subcommands wrap the library modules: exact and windowed stopping times,
orbits, censuses, stopping-time distributions, denominator chains, density
exponents, exceptional-set explorations, p-adic prefix trees, and record
searches.  Results render as a plain table, JSON Lines, CSV, or an
OEIS-style b-file; runs can be cached on disk.  Every scan runs once, in
this process, on the library's residue sieves.

Exit codes: 0 success (rows may still be marked unresolved), 2 invalid
arguments, an impossible output request, or a record scan with a start
unresolved at --max-steps (theta_mult) or at the largest window
(theta_d3, theta_succ), 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from ceildyn import chains as chainlib
from ceildyn import multmaps, padic
from ceildyn.rational import InternalCheckError, format_rational, parse_rational
from ceildyn.squaring import StoppingReport, stopping_time_exact, theta_denominator2, trajectory
from ceildyn.window import stopping_time_windowed, successor_records

FORMATS = ("table", "json", "csv", "bfile")


class CLIError(Exception):
    """Invalid arguments or an output format that cannot hold the result."""


# ---------------------------------------------------------------------------
# Config and cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Semantic description of one run: command, parameters, output format.

    cache_dir says where results are stored, never what they are, so it
    stays outside the cache key, as does the no-op --workers flag.
    """

    command: str
    params: tuple[tuple[str, object], ...]
    fmt: str
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.fmt not in FORMATS:
            raise CLIError(f"unknown format {self.fmt!r}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> ExperimentConfig:
        skip = {"command", "format", "workers", "cache"}
        params = tuple(
            sorted((k, v) for k, v in vars(args).items() if k not in skip and v is not None)
        )
        return cls(
            command=args.command,
            params=params,
            fmt=args.format,
            cache_dir=getattr(args, "cache", None),
        )

    def cache_key(self) -> str:
        payload = {
            "engine": _source_digest(),
            "command": self.command,
            "params": dict(self.params),
            "format": self.fmt,
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.cache
def _source_digest() -> str:
    """sha256 over the ceildyn source files, so a cached result never
    outlives the code that produced it.  Computed once, on first use."""
    package = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8") + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cache_load(config: ExperimentConfig) -> str | None:
    if config.cache_dir is None:
        return None
    path = os.path.join(config.cache_dir, config.cache_key() + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["output"]
    except (OSError, ValueError, KeyError):
        return None


def cache_store(config: ExperimentConfig, output: str) -> None:
    if config.cache_dir is None:
        return
    os.makedirs(config.cache_dir, exist_ok=True)
    payload = {
        "engine": _source_digest(),
        "command": config.command,
        "params": dict(config.params),
        "format": config.fmt,
        "output": output,
    }
    fd, tmp = tempfile.mkstemp(dir=config.cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=str)
        os.replace(tmp, os.path.join(config.cache_dir, config.cache_key() + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def render_table(rows, keys=None) -> str:
    """One "key=value" group per row; None and False entries are omitted."""
    lines = []
    for row in rows:
        parts = [
            f"{k}={_cell(row[k])}"
            for k in (keys if keys is not None else row.keys())
            if k in row and row[k] is not None and row[k] is not False
        ]
        lines.append(" ".join(parts))
    return "".join(line + "\n" for line in lines)


def render_json(rows) -> str:
    """JSON Lines: one object per row, insertion-ordered keys."""
    return "".join(json.dumps(row) + "\n" for row in rows)


def render_csv(rows) -> str:
    if not rows:
        return ""
    keys = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow(["" if row.get(k) is None else _cell(row.get(k)) for k in keys])
    return buf.getvalue()


def export_bfile(pairs) -> str:
    """OEIS b-file text: one "index value" line per term, no header."""
    lines = []
    prev = None
    for index, value in pairs:
        if prev is not None and index <= prev:
            raise CLIError("b-file indices must be strictly increasing")
        prev = index
        if not isinstance(value, int) or isinstance(value, bool):
            raise CLIError("b-file values must be integers")
        if abs(value) >= 10**1000:
            raise CLIError("b-file values are limited to 1000 decimal digits")
        lines.append(f"{index} {value}")
    return "".join(line + "\n" for line in lines)


def _bfile_require(value, what: str) -> int:
    if value is None:
        raise CLIError(f"cannot export unresolved {what} rows as a b-file")
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_traj(args) -> list[dict]:
    q = Fraction(args.num, args.den)
    t = trajectory(q, max_steps=args.max_steps)
    label = format_rational(q)
    rows = [
        {"input": label, "step": j, "value": format_rational(v)}
        for j, v in enumerate(t.values())
    ]
    if t.truncated:
        rows[-1]["truncated"] = True
    return rows


def cmd_theta(args) -> list[dict]:
    q = Fraction(args.num, args.den)
    if args.num % args.den == 0:
        rep = stopping_time_exact(q)
    elif args.num < args.den:
        rep = StoppingReport(theta=None, unresolved_at=0)
    elif args.window is not None:
        rep = stopping_time_windowed(args.num, args.den, args.window, auto_grow=args.auto_grow)
    else:
        rep = stopping_time_exact(q, max_steps=args.max_steps)
    row: dict = {"input": format_rational(q), "theta": rep.theta}
    if rep.reached is not None:
        row["reached"] = str(rep.reached)
    if rep.digits is not None:
        row["digits"] = rep.digits
    row["unresolved"] = not rep.resolved
    return [row]


def cmd_theta2(args) -> list[dict]:
    ls = range(1, args.scan + 1) if args.scan is not None else [args.l]
    rows = []
    for l in ls:
        theta, reached = theta_denominator2(l)
        rows.append(
            {
                "input": f"{2 * l + 1}/2",
                "l": l,
                "theta": theta,
                "reached": str(reached),
                "unresolved": False,
            }
        )
    return rows


def cmd_census(args) -> list[dict]:
    d = args.den
    if d < 2:
        raise CLIError("census needs --den >= 2")
    thetas = chainlib.census_thetas(d, args.lo, args.scan, args.window)
    return [
        {"input": f"{l}/{d}", "l": l, "theta": theta, "unresolved": theta is None}
        for l, theta in enumerate(thetas, start=args.lo)
    ]


def cmd_dist(args) -> list[dict]:
    d = args.den
    if d < 2:
        raise CLIError("dist needs --den >= 2")
    exact = {j: chainlib.chain_stop_mass(d, j) for j in range(args.depth + 1)}
    counts = chainlib.stop_counts(d, 1, args.scan, args.depth)
    rows = []
    for j in range(args.depth + 1):
        row = {"j": str(j), "exact": format_rational(exact[j])}
        if args.scan:
            row["empirical"] = format_rational(Fraction(counts[j], args.scan))
        rows.append(row)
    tail = {"j": "tail", "exact": format_rational(1 - sum(exact.values(), Fraction(0)))}
    if args.scan:
        tail["empirical"] = format_rational(Fraction(args.scan - sum(counts.values()), args.scan))
    rows.append(tail)
    return rows


def cmd_chains(args) -> list[dict]:
    chain = chainlib.chain_of(args.num, args.den, args.m)
    ap = chainlib.ap_count_for_chain(chain)
    laws = chainlib.verify_digit_laws(args.num, args.den, args.m)
    return [
        {
            "input": f"{args.num}/{args.den}",
            "denominators": ",".join(str(t) for t in chain.denominators),
            "breaks": ";".join(f"{j}:{r}" for j, r in chain.break_points) or "none",
            "complete": chain.complete,
            "ap_predicted": ap.predicted,
            "ap_modulus": ap.modulus,
            "ap_enumerated": ap.enumerated,
            "digit_laws": "ok" if laws.ok else f"violated at step {laws.checked_steps}",
        }
    ]


def cmd_alpha(args) -> list[dict]:
    if args.den < 2:
        raise CLIError("alpha needs --den >= 2")
    a = chainlib.alpha_d(args.den)
    return [
        {
            "d": args.den,
            "alpha": f"{a.value:.10g}",
            "prime": a.prime,
            "multiplicity": a.multiplicity,
            "divisor_form": f"{chainlib.alpha_d_divisor_form(args.den):.10g}",
            "beta": f"{chainlib.beta_d(args.den):.10g}",
        }
    ]


def cmd_padic_tree(args) -> list[dict]:
    tree = padic.omega_prefix_tree(args.p, args.k, args.levels)
    rows = []
    for l, level in enumerate(tree.levels, start=1):
        counts = tree.child_counts[l - 1]
        rows.append(
            {
                "level": str(l),
                "size": len(level),
                "children_min": min(counts),
                "children_max": max(counts),
            }
        )
    summary = {"level": "dim", "size": None, "children_min": None, "children_max": None}
    summary["formula"] = f"{padic.hausdorff_dimension(args.p, args.k):.10g}"
    if args.levels >= 3:
        summary["estimate"] = f"{padic.box_dimension_estimate(tree):.10g}"
    rows.append(summary)
    return rows


def _render_padic_tree_json(args) -> str:
    tree = padic.omega_prefix_tree(args.p, args.k, args.levels)
    return padic.tree_to_json(tree) + "\n"


def cmd_exceptional(args) -> list[dict]:
    r = parse_rational(args.r)
    l, d = r.numerator, r.denominator
    if d < 2:
        raise CLIError("exceptional needs a fractional --r l/d with d >= 2")
    if args.offsets is not None:
        offsets = tuple(int(part) for part in args.offsets.split(","))
        m = multmaps.make_map(l, d, offsets)
    else:
        m = multmaps.conjugate_g(r)
    if d == 2:
        candidates = multmaps.exceptional_denominator2(m, depth_K=args.depth or 64)
        return [
            {"index": i, "n": c.value, "verified_depth": c.verified_depth, "certified": c.certified}
            for i, c in enumerate(candidates, start=1)
        ]
    census = multmaps.exceptional_census(m, args.bound, args.depth)
    return [{"index": i, "n": n} for i, n in enumerate(census.survivors, start=1)]


def cmd_sigma(args) -> list[dict]:
    members = (
        multmaps.sigma_literal(args.den, args.k)
        if args.literal
        else multmaps.sigma_prime(args.den, args.k)
    )
    return [{"index": i, "n": n} for i, n in enumerate(sorted(members), start=1)]


def cmd_mahler(args) -> list[dict]:
    rows = []
    for n in range(1, args.scan + 1):
        j = multmaps.mahler_witness(n, args.max_steps)
        rows.append({"n": n, "j": j, "unresolved": j is None})
    return rows


def cmd_floorcheck(args) -> list[dict]:
    rows = []
    for m in range(1, args.scan + 1):
        ok = multmaps.floor_shift_check(args.den, m, args.max_steps)
        rows.append({"d": args.den, "m": m, "ok": "yes" if ok else "no"})
    return rows


def cmd_records(args) -> list[dict]:
    if args.kind == "theta_d3":
        table = chainlib.squaring_records(3, 1, args.bound, args.window or 25)
    elif args.kind == "theta_mult":
        table = multmaps.mult_records(parse_rational(args.r), 0, args.bound, args.max_steps)
    else:
        table = successor_records(1, args.bound, args.window or 64)
    return [{"arg": arg, "record": value} for arg, value in table]


# command -> (handler, table projection, b-file adapter or None)
COMMANDS = {
    "traj": (cmd_traj, ("step", "value", "truncated"), None),
    "theta": (cmd_theta, ("theta", "reached", "unresolved"), None),
    "theta2": (
        cmd_theta2,
        ("l", "theta", "reached"),
        lambda rows: [(row["l"], row["theta"]) for row in rows],
    ),
    "census": (
        cmd_census,
        ("l", "theta", "unresolved"),
        lambda rows: [(row["l"], _bfile_require(row["theta"], "census")) for row in rows],
    ),
    "dist": (cmd_dist, ("j", "exact", "empirical"), None),
    "chains": (cmd_chains, None, None),
    "alpha": (cmd_alpha, None, None),
    "padic-tree": (cmd_padic_tree, None, None),
    "exceptional": (
        cmd_exceptional,
        ("index", "n", "certified"),
        lambda rows: [(row["index"], row["n"]) for row in rows],
    ),
    "sigma": (
        cmd_sigma,
        ("index", "n"),
        lambda rows: [(row["index"], row["n"]) for row in rows],
    ),
    "mahler": (
        cmd_mahler,
        ("n", "j", "unresolved"),
        lambda rows: [(row["n"], _bfile_require(row["j"], "witness")) for row in rows],
    ),
    "floorcheck": (cmd_floorcheck, ("d", "m", "ok"), None),
    "records": (
        cmd_records,
        ("arg", "record"),
        lambda rows: [(row["arg"], row["record"]) for row in rows],
    ),
}


def run_command(config: ExperimentConfig, args: argparse.Namespace) -> str:
    if config.command == "padic-tree" and config.fmt == "json":
        return _render_padic_tree_json(args)
    handler, table_keys, bfile_adapter = COMMANDS[config.command]
    rows = handler(args)
    if config.fmt == "table":
        return render_table(rows, table_keys)
    if config.fmt == "json":
        return render_json(rows)
    if config.fmt == "csv":
        return render_csv(rows)
    if bfile_adapter is None:
        raise CLIError(f"{config.command} output has no b-file representation")
    return export_bfile(bfile_adapter(rows))


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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--cache", metavar="DIR", default=None, help="result cache directory")
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


def main(argv=None) -> int:
    try:
        sys.set_int_max_str_digits(2_000_000)
    except (AttributeError, ValueError):
        pass
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = ExperimentConfig.from_args(args)
        cached = cache_load(config)
        if cached is not None:
            sys.stdout.write(cached)
            return 0
        output = run_command(config, args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    cache_store(config, output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
