"""Exact iteration of x*ceil(x): trajectories, stopping times, half-integer closed form.

trajectory is the one exact walk: it steps the iterate u/d, in lowest terms,
as u -> u*ceil(u/d) on plain ints and checks that each denominator divides
the one before.  stopping_time_exact reads it.

Conventions: for these maps the stopping time counts from k = 0, so an
integer start already has stopping time 0.  (The r*ceil(x) family in
multmaps counts from k = 1 instead; the two conventions are deliberate and
documented where each is used.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ceildyn.rational import InternalCheckError, digits10, padic_valuation

_MAX_STR_DIGITS = 2_000_000  # the longest integer printed, in decimal digits


@dataclass
class Trajectory:
    start: Fraction
    steps: list[Fraction]
    truncated: bool

    def denominators(self) -> list[int]:
        return [self.start.denominator] + [v.denominator for v in self.steps]

    def values(self) -> list[Fraction]:
        return [self.start] + list(self.steps)


@dataclass
class StoppingReport:
    """Either theta is set (with the integer reached, when materialized) or
    unresolved_at records the step/window budget that ran out."""

    theta: int | None
    reached: int | None = None
    digits: int | None = None
    unresolved_at: int | None = None

    @property
    def resolved(self) -> bool:
        return self.theta is not None


def prefix_records(theta_of: dict[int, int | None], resolve) -> list[tuple[int, int]]:
    """(start, theta) at each strict prefix maximum of a start -> theta dict,
    in start order.  A start held as None takes resolve(start, best), where
    best is the largest theta before it (-1 at first); resolve may raise.
    """
    records: list[tuple[int, int]] = []
    best = -1
    for start, theta in sorted(theta_of.items()):
        if theta is None:
            theta = resolve(start, best)
        if theta > best:
            records.append((start, theta))
            best = theta
    return records


def trajectory(q, max_steps: int = 32) -> Trajectory:
    """Iterate x*ceil(x) until an iterate is an integer or max_steps elapse.

    An integral start stops at once, with an empty step list.  Each step's
    denominator must divide the one before; anything else raises
    InternalCheckError.  A numerator past _MAX_STR_DIGITS digits raises
    ValueError, before its product is built when the factors' sizes show it.
    """
    q = Fraction(q)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    limit = _MAX_STR_DIGITS * math.log2(10) + 1  # in bits
    u, d = q.numerator, q.denominator
    steps: list[Fraction] = []
    while d > 1 and len(steps) < max_steps:
        c = -(-u // d)
        # a floor on the bit count of the next numerator u*c/gcd(u*c, d), as the gcd is below 2^bits(d)
        bits = u.bit_length() + c.bit_length() - 1 - d.bit_length()
        if bits <= limit:
            nxt = Fraction(u * c, d)
            if d % nxt.denominator != 0:
                raise InternalCheckError("denominator chain is not divisibility-monotone")
            u, d = nxt.numerator, nxt.denominator
            bits = u.bit_length()
        if bits > limit:
            raise ValueError(f"step {len(steps) + 1} of {q} passes the {_MAX_STR_DIGITS}-digit limit")
        steps.append(nxt)
    return Trajectory(q, steps, d > 1)


def stopping_time_exact(q, max_steps: int = 256) -> StoppingReport:
    """Smallest k >= 0 with the k-th iterate of x*ceil(x) an integer, read off
    trajectory(q, max_steps), which raises for max_steps < 1 and past the
    print limit.  Requires q > 1 or q integral; other starts either never
    resolve (the map fixes (0,1]) or are better walked with trajectory()."""
    q = Fraction(q)
    if q < 1 and q.denominator > 1:
        raise ValueError("stopping_time_exact needs q > 1 or integral q; use trajectory()")
    if (t := trajectory(q, max_steps)).truncated:
        return StoppingReport(theta=None, unresolved_at=max_steps)
    n = t.values()[-1].numerator
    return StoppingReport(theta=len(t.steps), reached=n, digits=digits10(n))


def theta_denominator2(l: int) -> tuple[int, int]:
    """Closed form for starts (2l+1)/2, l >= 1.

    The number of steps to the first integer is v2(l) + 1, and the integer
    reached is half the (v2(l)+1)-fold composition of y(y+1)/2 applied to
    2l + 1.  Returns (steps, reached).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    v = padic_valuation(l, 2)
    y = 2 * l + 1
    for _ in range(v + 1):
        y = y * (y + 1) // 2
    if y % 2 != 0:
        raise InternalCheckError("closed-form terminal value is not an even integer")
    return v + 1, y // 2
