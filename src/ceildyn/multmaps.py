"""Approximate multiplication by a fixed rational and its integer conjugates.

For r = l/d in lowest terms the map x -> r*ceil(x) keeps denominators
dividing d, so conjugating by n -> n/d turns it into an integer map.  The
integer maps treated here form the periodically linear family

    n  |->  (l*n + offset[n mod d]) / d

with each offset chosen so the division is exact.  Integrality questions
about the rational dynamics become divisibility questions (is some iterate
divisible by d?) about the integer dynamics, which is what makes the
residue-class sieve below possible.

One level-synchronous pass over residue classes serves every scan: a class
mod d^(k+1) carries the exact k-th iterate of its residue, and refining it
one level keeps only the children that meet the scanned interval.
Exceptional sieves and censuses run it to a fixed depth; record scans of
x -> r*ceil(x) run it until every class holds one start, reading off the
least start with theta > k at each level.  A map whose first step is
constant on the blocks (d(q-1), dq], as the conjugate maps are, is censused
on the block representatives dq alone, the class 0 (mod d), and each
surviving dq stands for its whole block.  Past the sieve, every orbit is
walked by one stopping-time loop, _finish: the single starts of
stopping_time_mult, the survivors of a record scan and the members of a
census.  A record scan never skips a start its step budget leaves
unresolved: it raises ValueError naming the smallest such start.
floor_shift_check walks its two orbits of (d+1)/d as integer numerators
over d and raises InternalCheckError where the shift identity fails.

Conventions: the multiplicative stopping time counts from k = 1 (an
integer ratio gives theta = 1, not 0), unlike the squaring stopping time
which counts from 0.  "Exceptional" always means the j >= 1 iterates; the
starting value itself may be divisible by d.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from ceildyn.rational import InternalCheckError, StoppingReport, digits10, prefix_records

_STABILIZATION = 8  # depths a d = 2 candidate's representative must hold still
_CERT_STEPS = 4096  # iterates certified_exceptional walks before it gives up
_CANDIDATE_CERT_STEPS = 512  # iterates exceptional_denominator2 walks per candidate


@dataclass(frozen=True)
class PeriodicallyLinearMap:
    """n |-> (l*n + offsets[n mod d]) / d, exact on every residue class.

    Exactness forces offsets[b] = -l*b (mod d); construction rejects any
    offset table violating that congruence.
    """

    l: int
    d: int
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("modulus d must be >= 2")
        if self.l == 0:
            raise ValueError("slope numerator l must be nonzero")
        if math.gcd(self.l, self.d) != 1:
            raise ValueError("slope l/d must be in lowest terms")
        if len(self.offsets) != self.d:
            raise ValueError(f"need exactly {self.d} offsets, got {len(self.offsets)}")
        for b, off in enumerate(self.offsets):
            if (self.l * b + off) % self.d != 0:
                raise ValueError(
                    f"offset {off} for residue {b} is not congruent to "
                    f"{-self.l * b % self.d} (mod {self.d})"
                )

    def apply(self, n: int) -> int:
        num = self.l * n + self.offsets[n % self.d]
        if num % self.d != 0:
            raise InternalCheckError("periodically linear step is not integral")
        return num // self.d


def conjugate_g(r) -> PeriodicallyLinearMap:
    """The integer conjugate n |-> l*ceil(n/d) of x -> r*ceil(x), r = l/d."""
    r = Fraction(r)
    l, d = r.numerator, r.denominator
    if d == 1:
        raise ValueError("an integral ratio has no conjugate map")
    offsets = tuple(0 if b == 0 else l * (d - b) for b in range(d))
    return PeriodicallyLinearMap(l, d, offsets)


def ceiling_map(r) -> PeriodicallyLinearMap:
    """The direct ceiling multiplication n |-> ceil(l*n/d)."""
    r = Fraction(r)
    l, d = r.numerator, r.denominator
    if d == 1:
        raise ValueError("an integral ratio has no ceiling map")
    offsets = tuple((-l * b) % d for b in range(d))
    return PeriodicallyLinearMap(l, d, offsets)


def stopping_time_mult(r, n: int, max_steps: int = 512) -> StoppingReport:
    """Least k >= 1 with the k-th iterate of x -> r*ceil(x) from n integral.

    Computed on the conjugate map: k-th iterate of n is integral exactly
    when the conjugate orbit of d*n is divisible by d at step k, and the
    integer reached is that orbit value over d.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    r = Fraction(r)
    if r.denominator == 1:
        reached = r.numerator * n
        return StoppingReport(theta=1, reached=reached, digits=digits10(abs(reached)))
    g = conjugate_g(r)
    _, theta, x = next(_finish(g, [(n, r.denominator * n)], 0, max_steps))
    if theta is None:
        return StoppingReport(theta=None, unresolved_at=max_steps)
    reached = x // g.d
    return StoppingReport(theta=theta, reached=reached, digits=digits10(abs(reached)))


def _finish(
    m: PeriodicallyLinearMap, pairs: Iterable[tuple[int, int]], k: int, last: int
) -> Iterator[tuple[int, int | None, int]]:
    """The one stopping-time walk of the family: for each (n, h^k(n)) in
    pairs, yield (n, j, h^j(n)) at the least j in k+1..last with h^j(n)
    divisible by d, or (n, None, h^last(n)) when there is none."""
    d, step = m.d, m.apply
    for n, value in pairs:
        for j in range(k + 1, last + 1):
            value = step(value)
            if value % d == 0:
                yield n, j, value
                break
        else:
            yield n, None, value


# ---------------------------------------------------------------------------
# Residue-class sieve for exceptional sets and record scans
#
# h(b + d*m) = h(b) + l*m, hence h^(j)(b + d^j * m) = h^(j)(b) + l^j * m:
# the j-th iterate of a class mod d^(j+1) is well defined mod d.  Refining a
# surviving class mod d^(j+1) into its d children mod d^(j+2) moves the new
# iterate through all residues (l is a unit), so exactly one child dies.
# ---------------------------------------------------------------------------


def _refine(
    m: PeriodicallyLinearMap,
    classes: list[tuple[int, int]],
    level: int,
    lo: int,
    hi: int,
) -> list[tuple[int, int]]:
    """One sieve level: (residue mod d^(level+1), carried iterate value) pairs
    become the surviving (residue mod d^(level+2), value) pairs.

    Only children whose class has a member in [lo, hi] are built; every
    child still counts towards the one-child-dies check.
    """
    d = m.d
    step_mod = d ** (level + 1)
    child_mod = step_mod * d
    lpow = m.l ** (level + 1)
    span = hi - lo
    every_child_meets = child_mod <= span + 1
    out: list[tuple[int, int]] = []
    for residue, value in classes:
        child_value = m.apply(value)
        child = residue
        killed = 0
        for _ in range(d):
            if child_value % d == 0:
                killed += 1
            elif every_child_meets or (child - lo) % child_mod <= span:
                out.append((child, child_value))
            child_value += lpow
            child += step_mod
        if killed != 1:
            raise InternalCheckError(
                f"refinement killed {killed} children of class {residue} "
                f"(mod {step_mod}); exactly one is required"
            )
    return out


def _sieve_classes(
    m: PeriodicallyLinearMap, classes: list[tuple[int, int]], depth_k: int, lo: int, hi: int
) -> list[tuple[int, int]]:
    for level in range(depth_k):
        classes = _refine(m, classes, level, lo, hi)
    return classes


def _members(
    m: PeriodicallyLinearMap, classes: list[tuple[int, int]], level: int, lo: int, hi: int
) -> Iterator[tuple[int, int]]:
    """Every member x in [lo, hi] of the classes mod d^(level+1), paired with
    its iterate h^level(x), in class order."""
    modulus = m.d ** (level + 1)
    shift = m.l**level * m.d  # h^level(x + modulus) - h^level(x)
    for residue, value in classes:
        x = lo + (residue - lo) % modulus
        value += shift * ((x - residue) // modulus)
        while x <= hi:
            yield x, value
            x += modulus
            value += shift


def mult_records(r, lo: int, hi: int, max_steps: int = 512) -> list[tuple[int, int]]:
    """Record stopping times (n, theta(n)) of x -> r*ceil(x) over lo <= n <= hi.

    The starts are the conjugate class x = 0 (mod d) cut to [d*lo, d*hi].
    Its members surviving k sieve levels are the starts with theta > k, so
    f(k), the least of them, is valued k+1 for the last k it is f(k).  Once
    d^k exceeds hi - lo every class holds one start, finished alone from
    h^k(x) = h^k(c) + l^k * (x - c)/d^k.  prefix_records ranks both; the
    smallest start unresolved after max_steps steps raises ValueError.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    r = Fraction(r)
    if hi < lo:
        return []
    if r.denominator == 1:
        return [(lo, 1)]
    g = conjugate_g(r)
    d = g.d
    a, b = d * lo, d * hi

    def unresolved(n: int, best: int = -1) -> NoReturn:
        raise ValueError(
            f"start {n} is unresolved after max_steps={max_steps} steps, "
            "so no record from it on is certain"
        )

    theta_of: dict[int, int | None] = {}  # f(k) -> k+1, then survivor -> theta
    classes = [(0, 0)]
    k, modulus = 0, d  # classes are mod d^(k+1) after k levels
    while classes and modulus <= b - a:
        least = (a + min((c - a) % modulus for c, _ in classes)) // d
        if k == max_steps:
            unresolved(least)
        theta_of[least] = k + 1
        classes = _refine(g, classes, k, a, b)
        k, modulus = k + 1, modulus * d
    for x, theta, _ in _finish(g, _members(g, classes, k, a, b), k, max_steps):
        theta_of[x // d] = theta
    return prefix_records(sorted(theta_of.items()), unresolved)


def exceptional_sieve(m: PeriodicallyLinearMap, depth_k: int) -> frozenset[int]:
    """Residues mod d^(k+1) whose members keep iterates 1..k off 0 (mod d).

    Returns exactly d*(d-1)**k classes; the one-child-killed-per-parent
    mechanism guarantees the count, and a miscount raises.
    """
    if depth_k < 1:
        raise ValueError("depth_k must be >= 1")
    classes = _sieve_classes(m, [(b, b) for b in range(m.d)], depth_k, 0, m.d ** (depth_k + 1) - 1)
    expected = m.d * (m.d - 1) ** depth_k
    if len(classes) != expected:
        raise InternalCheckError(
            f"sieve produced {len(classes)} classes, expected {expected}"
        )
    return frozenset(residue for residue, _ in classes)


def min_depth_for_census(d: int, x: int) -> int:
    """Smallest k with d**k >= x (the natural sieve depth for a census at x)."""
    k, power = 0, 1
    while power < x:
        power *= d
        k += 1
    return k


@dataclass(frozen=True)
class ExceptionalCensus:
    depth_k: int
    survivors: tuple[int, ...]
    count: int


def exceptional_census(
    m: PeriodicallyLinearMap, x: int, depth_k: int | None = None
) -> ExceptionalCensus:
    """All integers |n| <= x surviving the sieve to depth_k.

    depth_k must be at least the smallest k with d^k >= x, and defaults to
    that k + 3.  From that floor on, a surviving class mod d^(k+1) meets
    [-x, x] in at most a couple of points, so the census count is comparable
    to the true exceptional count and the 4*d*x**beta_d bound applies.
    Shallower censuses would over-approximate wildly and are rejected.

    When m.apply is constant on each block (d(q-1), dq], as it is for
    conjugate_g, all d starts of a block share their iterates from step 1
    on, so the sieve runs on the representatives dq of the blocks meeting
    [-x, x] and each survivor is expanded to its block cut to [-x, x].
    Other maps are sieved from all d residues.
    """
    if x < 1:
        raise ValueError("census bound x must be >= 1")
    d = m.d
    floor_depth = min_depth_for_census(d, x)
    if depth_k is None:
        depth_k = floor_depth + 3
    if depth_k < floor_depth:
        raise ValueError(
            f"depth_k={depth_k} is below the minimum {floor_depth} for x={x}"
        )
    blocks = all(m.apply(b) == m.apply(d) for b in range(1, d))
    if blocks:
        lo, hi, classes = -d * (x // d), d * -(-x // d), [(0, 0)]
    else:
        lo, hi, classes = -x, x, [(b, b) for b in range(d)]
    # Refine while a class can hold several starts in [lo, hi]; past that,
    # stepping each start alone is cheaper than splitting its class d ways.
    level = min(depth_k, min_depth_for_census(d, hi - lo + 1) - 1)
    classes = _sieve_classes(m, classes, level, lo, hi)
    members = sorted(
        n for n, j, _ in _finish(m, _members(m, classes, level, lo, hi), level, depth_k) if j is None
    )
    if blocks:
        members = [n for q in members for n in range(max(q - d + 1, -x), min(q, x) + 1)]
    return ExceptionalCensus(depth_k=depth_k, survivors=tuple(members), count=len(members))


@dataclass(frozen=True)
class ExceptionalCandidate:
    value: int
    certified: bool


def exceptional_denominator2(
    m: PeriodicallyLinearMap, depth_K: int = 64
) -> list[ExceptionalCandidate]:
    """Chase the two nested surviving classes of a d=2 map to depth_K.

    At every depth exactly two classes survive, one even and one odd.  If a
    chain's signed representatives (the member of smallest absolute value)
    sit on the same integer for the last _STABILIZATION depths, that
    integer is a candidate exceptional point: its iterates 1..depth_K are
    certainly all odd.  A candidate whose orbit is then observed to be
    eventually periodic with only odd iterates is certified; a candidate
    whose orbit escapes _CANDIDATE_CERT_STEPS iterates is reported uncertified;
    a candidate refuted by an even iterate beyond depth_K is dropped.

    A streak needs _STABILIZATION levels, so a shallower depth_K could
    only return an empty list that decides nothing; it raises ValueError.
    """
    if m.d != 2:
        raise ValueError("the nested-class chase applies to d = 2 maps only")
    if depth_K < _STABILIZATION:
        raise ValueError(
            f"depth {depth_K} is below the stabilization depth {_STABILIZATION}: "
            "no candidate can be found or ruled out"
        )
    classes = [(0, 0), (1, 1)]
    modulus = 2 ** (depth_K + 1)
    for level in range(depth_K):
        classes = _refine(m, classes, level, 0, modulus - 1)
        if len(classes) != 2 or {c % 2 for c, _ in classes} != {0, 1}:
            raise InternalCheckError("d=2 sieve must keep one even and one odd class")
    # The signed representative n of a class mod 2^(depth_K+1) was that of its
    # parents at the last _STABILIZATION depths iff n lies in (-half, half],
    # with half the least of their moduli over 2.
    half = 2 ** (depth_K + 1 - _STABILIZATION)
    candidates: list[ExceptionalCandidate] = []
    for residue, _ in classes:
        n = residue if residue <= modulus // 2 else residue - modulus
        if -half < n <= half:
            verdict = _cycle_before_divisible(m, n, _CANDIDATE_CERT_STEPS)
            if verdict is not False:
                candidates.append(ExceptionalCandidate(n, verdict is True))
    candidates.sort(key=lambda c: c.value)
    return candidates


# ---------------------------------------------------------------------------
# Digit characterizations for the contracting maps n |-> ceil(n/d)
# ---------------------------------------------------------------------------


def _restricted_digits(d: int, k: int, units: range) -> set[int]:
    """The n < d^k whose base-d units digit is in units and whose k-1
    higher digits all lie in [0, d-2], built one digit place at a time."""
    if d < 3:
        raise ValueError("digit construction needs d >= 3")
    if k < 1:
        raise ValueError("k must be >= 1")
    members = set(units)
    for i in range(1, k):
        members = {n + a * d**i for n in members for a in range(d - 1)}
    return members


def sigma_prime(d: int, k: int) -> frozenset[int]:
    """The corrected digit set: base-d expansions with leading digit in
    [1, d-1] and every higher digit in [0, d-2]; size (d-1)**k.

    Each member's orbit under n -> ceil(n/d) walks down to the fixed point
    1 with no iterate divisible by d (checked by certified_exceptional), so
    the whole set lies in the exceptional set of that map.
    """
    members = _restricted_digits(d, k, range(1, d))
    g = conjugate_g(Fraction(1, d))
    for n in members:
        if not certified_exceptional(g, n):
            raise InternalCheckError(f"digit-set member {n} reaches an iterate divisible by {d}")
    return frozenset(members)


def sigma_literal(d: int, k: int) -> frozenset[int]:
    """The uncorrected digit condition: 1 <= n <= d^k with every base-d
    digit above the units place different from d-1.  Contains members
    (n = d*d for k >= 2) that are not exceptional; kept for comparison."""
    return frozenset(_restricted_digits(d, k, range(d)) - {0} | {d**k})


def certified_exceptional(m: PeriodicallyLinearMap, n: int) -> bool:
    """True when n's orbit is observed eventually periodic with no iterate
    divisible by d.  False on a divisible iterate or once _CERT_STEPS pass."""
    return _cycle_before_divisible(m, n, _CERT_STEPS) is True


def _cycle_before_divisible(m: PeriodicallyLinearMap, n: int, max_steps: int) -> bool | None:
    """Walk iterates 1..max_steps of n: True once one repeats (the orbit is
    eventually periodic with no iterate divisible by d), False at the first
    iterate divisible by d, None when the budget runs out first."""
    seen: set[int] = set()
    x = n
    for _ in range(max_steps):
        x = m.apply(x)
        if x % m.d == 0:
            return False
        if x in seen:
            return True
        seen.add(x)
    return None


_THREE_HALVES = ceiling_map(Fraction(3, 2))


def mahler_witness(n: int, j_max: int = 256) -> int | None:
    """Least j >= 1 with the j-th ceil(3x/2)-iterate of n congruent to
    3 mod 4, or None if none occurs within j_max steps.

    Such a j witnesses that n cannot start an all-[0,1/2) binary orbit of
    the three-halves multiplication, the integer form of the Z-number
    question.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = n
    for j in range(1, j_max + 1):
        x = _THREE_HALVES.apply(x)
        if x % 4 == 3:
            return j
    return None


def floor_shift_check(d: int, m: int, horizon: int) -> bool | None:
    """For r = (d+1)/d, the floor orbit of m+d tracks the ceiling orbit of
    m at constant offset d+1 until the common stopping step.

    Returns True when the offset identity holds at every step up to the
    first integral ceiling iterate, and None when the horizon ends the walk
    first; a step that breaks it raises InternalCheckError.  As numerators
    over d the offset is d(d+1), a multiple of d, so while it holds the
    floor orbit turns integral exactly when the ceiling orbit does.
    """
    if d < 1 or m < 1 or horizon < 1:
        raise ValueError("need d >= 1, m >= 1, horizon >= 1")
    x, X = d * m, d * (m + d)  # the orbits as numerators over d
    for step in range(1, horizon + 1):
        x = (d + 1) * -(-x // d)
        X = (d + 1) * (X // d)
        if X - x != d * (d + 1):
            raise InternalCheckError(f"the floor orbit of {m + d} and the ceiling orbit of {m} "
                                     f"under {d + 1}/{d} are {Fraction(X - x, d)} apart at "
                                     f"step {step}, not {d + 1}")
        if x % d == 0:
            return True
    return None
