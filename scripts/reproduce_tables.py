#!/usr/bin/env python3
"""Reproduce the headline tables: half-integer stopping times, the d=3
census, successor-ratio records, the 4/3 multiplication table, and the
exact stopping-time distribution for d=3."""

from __future__ import annotations

import argparse
from fractions import Fraction

from ceildyn.chains import census_thetas, chain_stop_masses
from ceildyn.multmaps import mult_records, stopping_time_mult
from ceildyn.squaring import theta_denominator2
from ceildyn.window import successor_records


def table_half() -> None:
    print("# starts (2l+1)/2, closed form")
    print("l theta reached")
    for l in range(1, 10):
        theta, reached = theta_denominator2(l)
        print(l, theta, reached)


def table_third() -> None:
    print("# starts l/3, exact stopping times")
    print("l theta")
    for l, theta in enumerate(census_thetas(3, 3, 11, 25), start=3):
        print(l, theta)


def table_succ(bound: int) -> None:
    print(f"# records of theta((d+1)/d), d <= {bound}")
    print("d theta")
    for d, theta in successor_records(1, bound, 64):
        print(d, theta)


def table_mult(bound: int) -> None:
    r = Fraction(4, 3)
    print("# theta_{4/3}(n), n = 0..12")
    print("n theta reached")
    for n in range(13):
        rep = stopping_time_mult(r, n)
        print(n, rep.theta, rep.reached)
    print(f"# records of theta_{{4/3}}(n), n <= {bound}")
    print("n theta")
    for n, theta in mult_records(r, 0, bound):
        print(n, theta)


def table_dist(depth: int) -> None:
    print(f"# exact stopping-time masses for d=3, j = 0..{depth}")
    print("j mass")
    for j, mass in enumerate(chain_stop_masses(3, depth)):
        print(j, mass)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--table",
        choices=("half", "third", "succ", "mult", "dist", "all"),
        default="all",
    )
    parser.add_argument("--succ-bound", type=int, default=199)
    parser.add_argument("--mult-bound", type=int, default=3500)
    parser.add_argument("--dist-depth", type=int, default=6)
    args = parser.parse_args()
    wanted = args.table
    if wanted in ("half", "all"):
        table_half()
    if wanted in ("third", "all"):
        table_third()
    if wanted in ("succ", "all"):
        table_succ(args.succ_bound)
    if wanted in ("mult", "all"):
        table_mult(args.mult_bound)
    if wanted in ("dist", "all"):
        table_dist(args.dist_depth)


if __name__ == "__main__":
    main()
