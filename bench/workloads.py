"""The benchmark's workloads: ceildyn command lines plus a check for each output.

A workload is a list of Command objects built from a seeded RNG.  The seed
picks which starts and parameters each command uses, never how many, so
runs with different seeds do comparable work.  Expected outputs come from
oracle.py and are computed only when a check runs, after the timed rounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    starts: int  # starts whose stopping time or exceptional status it decides
    check: Callable[[str], str | None]  # None when the output is right

    @property
    def text(self) -> str:
        return "ceildyn " + " ".join(self.argv)


def _exact(command: str, fmt: str, rows: Callable[[], list[dict]]):
    """Check that compares the output byte for byte with the oracle's rendering."""

    def check(output: str) -> str | None:
        want = oracle.render(command, rows(), fmt)
        if output == want:
            return None
        got_lines, want_lines = output.splitlines(), want.splitlines()
        for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            if g != w:
                return f"line {i}: got {g[:80]!r}, expected {w[:80]!r}"
        return f"got {len(got_lines)} lines, expected {len(want_lines)}"

    return check


def _cmd(argv: str, fmt: str, starts: int, check) -> Command:
    return Command(tuple(argv.split()) + ("--format", fmt, "--workers", "1"), starts, check)


def shallow_scan(rng) -> list[Command]:
    """Window engine at W = 25-64: about 230k windowed calls."""
    census_lo = 1 + rng.randrange(50_001)
    csv_lo = 1 + rng.randrange(20_001)
    depth = rng.choice((7, 8, 9))
    window = rng.choice((40, 44, 48, 52, 56))
    thirds_hi = max(census_lo + 99_999, 100_000)
    thirds = functools.cache(lambda: oracle.square_thetas(3, 1, thirds_hi))
    return [
        _cmd(
            f"census --den 3 --from {census_lo} --scan {census_lo + 99_999}",
            "table",
            100_000,
            _exact(
                "census",
                "table",
                lambda: oracle.census_rows(
                    3, census_lo, census_lo + 99_999, 25, thirds()[census_lo - 1:]
                ),
            ),
        ),
        _cmd(
            f"census --den 12 --from {csv_lo} --scan {csv_lo + 29_999}",
            "csv",
            30_000,
            _exact("census", "csv", lambda: oracle.census_rows(12, csv_lo, csv_lo + 29_999, 25)),
        ),
        _cmd(
            f"dist --den 3 --depth {depth} --scan 100000 --window {window}",
            "table",
            100_000,
            _exact("dist", "table", lambda: oracle.dist_rows(3, depth, 100_000, thirds())),
        ),
        # At the default window (25) the scan skips start 7148 (theta 30),
        # which that window leaves unresolved, and prints a wrong last record.
        # A workload must be made of commands that succeed, so the scan runs
        # at a window that resolves every start below the bound (the largest
        # theta there is 30).  The bound stays above 7148.
        _cmd(
            "records --kind theta_d3 --bound 100000 --window 64",
            "table",
            100_000,
            _exact(
                "records",
                "table",
                lambda: oracle.record_rows(zip(range(1, 100_001), thirds())),
            ),
        ),
    ]


def mult_scan(rng) -> list[Command]:
    """r*ceil(x) stopping loop and residue sieve; bypasses the window engine."""
    halves = rng.choice((3, 5, 7))
    fifths = rng.choice((6, 7, 8, 9))
    quarters = rng.choice((5, 7))
    thirds = rng.choice((1, 2))
    floor_den = rng.choice((4, 5, 6))
    big = 1_000_000
    lo_a = rng.randrange(-big, big - 40_000)
    lo_b = rng.randrange(-big, big - 40_000)
    return [
        _cmd(
            "records --kind theta_mult --r 4/3 --bound 200000",
            "table",
            200_001,
            _exact("records", "table", lambda: oracle.mult_record_rows(4, 3, 200_000, 512)),
        ),
        _cmd(
            f"records --kind theta_mult --r {halves}/2 --bound 100000",
            "table",
            100_001,
            _exact("records", "table", lambda: oracle.mult_record_rows(halves, 2, 100_000, 512)),
        ),
        _cmd(
            f"records --kind theta_mult --r {fifths}/5 --bound 50000",
            "table",
            50_001,
            _exact("records", "table", lambda: oracle.mult_record_rows(fifths, 5, 50_000, 512)),
        ),
        _cmd(
            f"exceptional --r {quarters}/4 --bound {big}",
            "table",
            2 * big + 1,
            lambda out: oracle.check_exceptional(
                out, "table", quarters, 4, big, lo_a, lo_a + 40_000
            ),
        ),
        _cmd(
            f"exceptional --r {thirds}/3 --bound {big}",
            "bfile",
            2 * big + 1,
            lambda out: oracle.check_exceptional(
                out, "bfile", thirds, 3, big, lo_b, lo_b + 40_000
            ),
        ),
        _cmd(
            "mahler --scan 2000",
            "table",
            2000,
            _exact("mahler", "table", lambda: oracle.mahler_rows(2000, 256)),
        ),
        _cmd(
            f"floorcheck --den {floor_den} --scan 2000",
            "table",
            2000,
            _exact("floorcheck", "table", lambda: oracle.floorcheck_rows(floor_den, 2000, 512)),
        ),
    ]


def deep_window(rng) -> list[Command]:
    """Big-integer windows: W up to 2048 by auto-grow, then W near 1500 and 4096."""
    w_mid = 1500 + rng.randrange(-40, 41)
    w_deep = 4096 + rng.randrange(-64, 65)
    theta = dict(oracle.SUCCESSOR_RECORDS)[199]
    return [
        _cmd(
            "records --kind theta_succ --bound 199",
            "table",
            199,
            _exact("records", "table", lambda: oracle.successor_record_rows(199)),
        ),
        _cmd(
            f"theta --num 200 --den 199 --window {w_mid}",
            "table",
            1,
            _exact("theta", "table", lambda: oracle.windowed_theta_rows(200, 199, w_mid, theta)),
        ),
        _cmd(
            f"theta --num 200 --den 199 --window {w_deep}",
            "table",
            1,
            _exact("theta", "table", lambda: oracle.windowed_theta_rows(200, 199, w_deep, theta)),
        ),
    ]


def _pick_start(rng, dens, lo, hi, theta_lo, theta_hi) -> tuple[int, int, int]:
    """A start l/d, not an integer, whose stopping time lies in [theta_lo, theta_hi]."""
    while True:
        d = rng.choice(dens)
        l = rng.randrange(lo, hi)
        theta = oracle.square_theta(l, d, theta_hi)
        if l > d and l % d and theta is not None and theta >= theta_lo:
            return l, d, theta


# Pools the seed draws from; members of a pool cost about the same.
# (p, k, levels): p-adic trees with 1024 or 1296 nodes at the deepest level
PADIC_TREES = ((3, 2, 4), (7, 1, 4), (2, 2, 10), (2, 3, 5))
# (r, offsets) of d = 2 maps whose nested-class chase finds candidates
CHASES = (("3/2", None), ("3/2", (0, 1)), ("3/2", (-2, 1)), ("1/2", None), ("1/2", (-2, 1)))
# (d, k): digit sets of 64 to 216 members
SIGMAS = ((3, 6), (4, 4), (5, 3), (6, 3), (7, 3))
# (d, depth) for the small distributions
DISTS = ((3, 5), (5, 4), (7, 3))
# starts num/9 whose 8-step chains have progression modulus 3^9 = 19683
CHAIN_NUMS = tuple(n for n in range(10, 200) if n % 9 and oracle.chain_modulus(n, 9, 8) == 19683)
FORMATS = ("table", "json", "csv")


def cached_session(rng) -> list[Command]:
    """A researcher's mixed session: 41 small commands over every subcommand."""
    out: list[Command] = []

    def add(argv, fmt, starts, command, rows):
        out.append(_cmd(argv, fmt, starts, _exact(command, fmt, rows)))

    for fmt in FORMATS:
        l, d, _ = _pick_start(rng, (2, 3, 4, 5, 6, 7), 3, 60, 1, 6)
        add(f"traj --num {l} --den {d}", fmt, 1, "traj", functools.partial(oracle.traj_rows, l, d, 32))
    l, d, _ = _pick_start(rng, (3, 5, 7), 3, 200, 5, 7)
    add(f"traj --num {l} --den {d} --max-steps 3", "table", 1, "traj",
        functools.partial(oracle.traj_rows, l, d, 3))
    for fmt in FORMATS:
        l, d, _ = _pick_start(rng, (3, 4, 5, 6, 7, 9), 10, 500, 1, 7)
        add(f"theta --num {l} --den {d}", fmt, 1, "theta",
            functools.partial(oracle.exact_theta_rows, l, d, 256))
    for fmt, window, grow in (("table", 32, " --auto-grow"), ("json", 12, ""), ("csv", 12, "")):
        l, d, theta = _pick_start(rng, (3, 5, 7), 100, 20_000, 1, 60)
        add(f"theta --num {l} --den {d} --window {window}{grow}", fmt, 1, "theta",
            functools.partial(oracle.windowed_theta_rows, l, d, 10**9 if grow else window, theta))
    add("theta2 --scan 300", "table", 300, "theta2",
        functools.partial(oracle.theta2_rows, range(1, 301)))
    l2 = 1 + rng.randrange(10_000)
    add(f"theta2 --l {l2}", "json", 1, "theta2", functools.partial(oracle.theta2_rows, [l2]))
    add("theta2 --scan 150", "bfile", 150, "theta2",
        functools.partial(oracle.theta2_rows, range(1, 151)))
    for fmt, d in zip(FORMATS, rng.sample((3, 5, 7), 3)):
        lo = 1 + rng.randrange(5000)
        add(f"census --den {d} --from {lo} --scan {lo + 1999}", fmt, 2000, "census",
            functools.partial(oracle.census_rows, d, lo, lo + 1999, 25))
    for fmt, (d, depth) in zip(FORMATS, rng.sample(DISTS, 3)):
        add(f"dist --den {d} --depth {depth} --scan 2500", fmt, 2500, "dist",
            functools.partial(oracle.dist_rows, d, depth, 2500))
    for fmt, num in zip(FORMATS + ("table",), rng.sample(CHAIN_NUMS, 4)):
        add(f"chains --num {num} --den 9 --m 8", fmt, 1, "chains",
            functools.partial(oracle.chain_rows, num, 9, 8))
    for d in rng.sample(range(2, 200), 3):
        out.append(_cmd(f"alpha --den {d}", "json", 0, functools.partial(oracle.check_alpha, d=d)))
    trees = list(PADIC_TREES)
    rng.shuffle(trees)
    for fmt, (p, k, levels) in zip(("table", "json", "table", "json"), trees):
        argv = f"padic-tree --p {p} --k {k} --levels {levels}"
        if fmt == "json":
            check = functools.partial(oracle.check_padic_json, p=p, k=k, levels=levels)
            out.append(_cmd(argv, fmt, 0, check))
        else:
            add(argv, fmt, 0, "padic-tree", functools.partial(oracle.padic_table_rows, p, k, levels))
    for r, offsets in rng.sample(CHASES, 3):
        num, den = map(int, r.split("/"))
        offs = offsets or (0, num)
        argv = f"exceptional --r {r}" + (f" --offsets={offs[0]},{offs[1]}" if offsets else "")
        out.append(_cmd(argv, "table", 0, functools.partial(
            oracle.check_chase, l=num, d=den, offsets=offs, depth=64)))
    for fmt, num in zip(("table", "json"), rng.sample((4, 5, 7), 2)):
        add(f"exceptional --r {num}/3 --bound 3000", fmt, 6001, "exceptional",
            functools.partial(oracle.exceptional_rows, num, 3, 3000))
    for fmt, (d, k) in zip(("table", "bfile"), rng.sample(SIGMAS, 2)):
        add(f"sigma --den {d} --k {k}", fmt, 0, "sigma", functools.partial(oracle.sigma_rows, d, k))
    add("mahler --scan 300", "json", 300, "mahler", functools.partial(oracle.mahler_rows, 300, 256))
    d = rng.choice((2, 3, 4))
    add(f"floorcheck --den {d} --scan 300", "csv", 300, "floorcheck",
        functools.partial(oracle.floorcheck_rows, d, 300, 512))
    num = rng.choice((4, 5, 7))
    add(f"records --kind theta_mult --r {num}/3 --bound 3000", "bfile", 3001, "records",
        functools.partial(oracle.mult_record_rows, num, 3, 3000, 512))
    bound = rng.choice((37, 40, 50, 60))
    add(f"records --kind theta_succ --bound {bound}", "json", bound, "records",
        functools.partial(oracle.successor_record_rows, bound))
    return out


WORKLOADS = {
    "shallow_scan": shallow_scan,
    "mult_scan": mult_scan,
    "deep_window": deep_window,
    "cached_session": cached_session,
}
# Workloads whose commands run twice against one fresh --cache directory.
CACHED = {"cached_session"}
