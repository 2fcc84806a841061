"""Exact iteration of x*ceil(x): trajectories, stopping times, half-integer closed form.

trajectory is the one exact walk: it steps the iterate u/d, in lowest terms,
as u -> u*ceil(u/d) on plain ints, so each denominator divides the one
before.  stopping_time_exact and the CLI's traj read it.  It decides where
a walk passes the print limit: near it, bit-length bounds and
window._window_theta name that step before the products are built.
theta_denominator2 reads it too, and certifies the closed form's step count.

Conventions: for x*ceil(x) the stopping time counts from k = 0 in every
engine, exact, windowed (window._window_theta) and sieved (chains), so an
integer start already has stopping time 0.  (The r*ceil(x) family in
multmaps counts from k = 1 instead; the two conventions are deliberate and
documented where each is used.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ceildyn.rational import InternalCheckError, StoppingReport, padic_valuation
from ceildyn.window import _window_theta

_MAX_STR_DIGITS = 2_000_000  # the longest integer printed, in decimal digits


class Trajectory(NamedTuple):
    start: Fraction
    steps: list[Fraction]
    truncated: bool

    def values(self) -> list[Fraction]:
        return [self.start] + list(self.steps)


def trajectory(q, max_steps: int = 32) -> Trajectory:
    """Iterate x*ceil(x) until an iterate is an integer or max_steps elapse.

    An integral start stops at once, with an empty step list.  Each step is
    u*c/d with c = ceil(u/d) an integer, so its denominator divides the one
    before.  A numerator past _MAX_STR_DIGITS digits raises ValueError.
    Digits double per step, so once a numerator is within 8 doublings of
    that limit, _limit_step looks ahead: when it names the step that passes
    the limit, the walk raises there without building the products before
    it.
    """
    q = Fraction(q)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    limit = math.floor(_MAX_STR_DIGITS * math.log2(10) + 1)  # the most bits a numerator may have
    u, d = q.numerator, q.denominator
    steps: list[Fraction] = []
    while d > 1 and len(steps) < max_steps:
        c = -(-u // d)
        # k: the step from here that passes the limit, once one is named
        k = u.bit_length() << 8 > limit and _limit_step(u, c, d, limit, max_steps - len(steps))
        if not k:
            nxt = Fraction(u * c, d)
            u, d = nxt.numerator, nxt.denominator
            k = 1 if u.bit_length() > limit else 0
        if k:
            raise ValueError(f"step {len(steps) + k} of {q} passes the {_MAX_STR_DIGITS}-digit limit")
        steps.append(nxt)
    return Trajectory(q, steps, d > 1)


def _limit_step(u: int, c: int, d: int, limit: int, steps_left: int) -> int:
    """The step, counted from u/d, at which the walk's numerator first has
    more than limit bits, when bit lengths and the window engine decide it
    within steps_left steps; else 0.

    With c = ceil(u/d), the next numerator u*c/gcd(u*c, d) has between
    bits(u) + bits(c) - 1 - bits(d) and bits(u) + bits(c) bits.  Past it the
    iterates are >= 0 and a step takes b bits to at most 2b, as
    ceil(u/d) <= u, and to at least 2b - 2*bits(d) - 1, as ceil(u/d) >= u/d
    and the gcd divides a denominator dividing d.  At the first step m whose
    floor passes the limit, no ceiling before it having passed, the walk
    passes the limit at m unless an iterate before m is integral.
    """
    b = u.bit_length() + c.bit_length()
    lo, hi = b - 1 - d.bit_length(), b
    for m in range(1, steps_left + 1):
        if lo > limit:
            return 0 if _window_theta(u, d, m - 1) is not None else m
        if hi > limit:
            return 0
        lo, hi = 2 * lo - 2 * d.bit_length() - 1, 2 * hi
    return 0


def stopping_time_exact(q, max_steps: int = 256) -> StoppingReport:
    """Smallest k >= 0 with the k-th iterate of x*ceil(x) an integer, read off
    trajectory(q, max_steps), which raises for max_steps < 0 and past the
    print limit.  Every rational q is taken: a start in (0, 1) is fixed, so
    it is unresolved at max_steps; one in (-1, 0) reaches 0 at step 1; and
    one at or below -1 joins a positive orbit after one step."""
    if (t := trajectory(q, max_steps)).truncated:
        return StoppingReport(theta=None, unresolved_at=max_steps)
    n = t.values()[-1].numerator
    return StoppingReport(theta=len(t.steps), reached=n)


def theta_denominator2(l: int) -> tuple[int, int]:
    """Closed form for starts (2l+1)/2, l >= 1: the first integer is at step
    v2(l) + 1.  Returns (steps, reached) read off trajectory, which raises
    ValueError past the print limit; any other stop is InternalCheckError."""
    if l < 1:
        raise ValueError("l must be >= 1")
    steps = padic_valuation(l, 2) + 1
    t = trajectory(Fraction(2 * l + 1, 2), steps)
    if t.truncated or len(t.steps) != steps:
        raise InternalCheckError(f"{2 * l + 1}/2 does not first reach an integer at step {steps}")
    return steps, t.steps[-1].numerator
