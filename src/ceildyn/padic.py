"""Approximate squaring on truncated p-adic numbers.

An element of p^{-k}Z_p is represented through its unit part u = p^k*alpha
known modulo p^W (a window of W base-p digits).  One map step multiplies by
the integral part plus one, which is only determined modulo p^{W-k}, so each
step consumes k digits of precision.  The exceptional set of elements whose
orbit never gains p-divisibility is explored level by level through prefix
trees: level l holds the surviving residues modulo p^{lk}, and every
surviving node extends in exactly phi(p^k) ways.

fp_step is the validated single step on a PadicWindow.  The tree tests its
prefixes with window._window_theta, the integer kernel for
u -> u*ceil(u/d) mod d^W, at d = p^k: on a p-unit u the step
u*(u//p^k + 1) is that map.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from ceildyn.rational import InternalCheckError, euler_phi, is_prime
from ceildyn.window import _window_theta

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _to_digits(u: int, p: int, width: int) -> tuple[int, ...]:
    digits = []
    for _ in range(width):
        u, r = divmod(u, p)
        digits.append(r)
    return tuple(digits)


def _from_digits(digits, p: int) -> int:
    u = 0
    for d in reversed(digits):
        u = u * p + d
    return u


@dataclass(frozen=True)
class PadicWindow:
    """p^k*alpha modulo p^valid_digits, stored least significant digit first."""

    p: int
    k: int
    unit_digits: tuple[int, ...]
    valid_digits: int

    def __post_init__(self) -> None:
        if self.p < 2 or self.k < 0 or self.valid_digits < 0:
            raise ValueError("need p >= 2, k >= 0, valid_digits >= 0")
        if len(self.unit_digits) != self.valid_digits:
            raise ValueError("digit list length must equal valid_digits")
        if any(not 0 <= a < self.p for a in self.unit_digits):
            raise ValueError("digits must lie in [0, p)")

    @property
    def residue(self) -> int:
        return _from_digits(self.unit_digits, self.p)

    @property
    def escaped(self) -> bool:
        """Whether the unit part is divisible by p (the element left the
        sphere of pole order k); needs at least one valid digit."""
        if self.valid_digits < 1:
            raise ValueError("no digits left to decide divisibility")
        return self.unit_digits[0] == 0


def padic_window_from_rational(q, p: int, k: int, width: int) -> PadicWindow:
    """Embed q in p^{-k}Z_p: q must have a p-power denominator dividing p^k."""
    q = Fraction(q)
    scaled = q * p**k
    if scaled.denominator != 1:
        raise ValueError(f"{q} does not lie in {p}^-{k} Z_{p}")
    return PadicWindow(p, k, _to_digits(scaled.numerator % p**width, p, width), width)


def fp_step(w: PadicWindow) -> PadicWindow:
    """One approximate squaring step alpha -> alpha*(F_p(alpha) + 1).

    The integral part F_p is determined only modulo p^{W-k}, so the result
    carries k fewer valid digits.
    """
    if w.valid_digits <= w.k:
        raise ValueError("window too small: need valid_digits > k")
    pk = w.p**w.k
    u = w.residue
    new_width = w.valid_digits - w.k
    new_u = (u * (u // pk + 1)) % w.p**new_width
    return PadicWindow(w.p, w.k, _to_digits(new_u, w.p, new_width), new_width)


def _locally_survives(p: int, k: int, level: int, residue: int) -> bool:
    """The digit constraints at the given level: no iterate whose leading
    digit is already determined may become divisible by p.  Each of the
    level - 1 determined steps consumes k of the level*k digits."""
    return residue % p != 0 and _window_theta(residue, p**k, level - 1, p) is None


@dataclass(frozen=True)
class PrefixTree:
    """Surviving digit prefixes of the p-adic exceptional set, by level.

    levels[i] holds the sorted residues modulo p^{(i+1)k} that survive at
    level i+1; child_counts[i] is aligned with levels[i] and counts each
    node's surviving extensions to the next level.
    """

    p: int
    k: int
    depth: int
    levels: tuple[tuple[int, ...], ...]
    child_counts: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    @property
    def branching_ratio(self) -> int:
        return euler_phi(self.p**self.k)


def omega_prefix_tree(p: int, k: int, depth: int) -> PrefixTree:
    """Build the exceptional-set prefix tree down to the given depth.

    Levels 1..depth+1 of locally surviving residues are computed, childless
    nodes are pruned bottom-up, and the equal-branching law (every node has
    exactly phi(p^k) children) is asserted on levels 1..depth.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1 or depth < 1:
        raise ValueError("need k >= 1 and depth >= 1")
    pk = p**k
    if pk < 3:
        raise ValueError("p^k must be at least 3 for the tree exploration")
    levels: list[list[int]] = [[u for u in range(1, pk) if u % p != 0]]
    for l in range(2, depth + 2):
        parent_mod = p ** ((l - 1) * k)
        level = [
            child
            for b in levels[-1]
            for s in range(pk)
            if _locally_survives(p, k, l, child := b + parent_mod * s)
        ]
        levels.append(level)
    for l in range(depth, 0, -1):
        parent_mod = p ** (l * k)
        extended = {c % parent_mod for c in levels[l]}
        levels[l - 1] = [b for b in levels[l - 1] if b in extended]
    phi = euler_phi(pk)
    kept = [sorted(level) for level in levels[:depth]]
    counts: list[tuple[int, ...]] = []
    for l, level in enumerate(kept, start=1):
        parent_mod = p ** (l * k)
        tally: dict[int, int] = {b: 0 for b in level}
        for c in levels[l]:
            tally[c % parent_mod] += 1
        row = tuple(tally[b] for b in level)
        if any(n != phi for n in row):
            bad = next(b for b, n in zip(level, row) if n != phi)
            raise InternalCheckError(
                f"node {bad} at level {l} has {tally[bad]} children, expected {phi}"
            )
        counts.append(row)
    return PrefixTree(p, k, depth, tuple(tuple(level) for level in kept), tuple(counts))


def hausdorff_dimension(p: int, k: int) -> float:
    """Closed form 1 - log(1 + 1/(p-1))/(k log p); equals
    log(phi(p^k))/log(p^k)."""
    if not is_prime(p) or k < 1:
        raise ValueError("need prime p and k >= 1")
    return 1 - math.log(1 + 1 / (p - 1)) / (k * math.log(p))


def hausdorff_measure_bounds(p: int, k: int) -> tuple[float, float]:
    """Closed-form bounds ((1-1/p)^(1-1/k)*phi(p^k), phi(p^k))."""
    if not is_prime(p) or k < 1:
        raise ValueError("need prime p and k >= 1")
    phi = float(p**k - p ** (k - 1))
    lower = (1 - 1 / p) ** (1 - 1 / k) * phi
    return (lower, phi)


def box_dimension_estimate(tree: PrefixTree) -> float:
    """Slope of log|W_l| against l*k*log p; converges to the Hausdorff
    dimension as the tree deepens."""
    if tree.depth < 3:
        raise ValueError("need at least 3 levels for a slope estimate")
    xs = [l * tree.k * math.log(tree.p) for l in range(1, tree.depth + 1)]
    ys = [math.log(size) for size in tree.sizes]
    return statistics.linear_regression(xs, ys).slope


def tree_to_json(tree: PrefixTree) -> str:
    """JSON export: per level, digit-string prefixes (least significant digit
    first) and the aligned child counts."""
    if tree.p > len(_DIGIT_CHARS):
        raise ValueError("digit strings support p up to 36")
    payload = {
        "p": tree.p,
        "k": tree.k,
        "branching_ratio": tree.branching_ratio,
        "levels": [
            {
                "level": l,
                "prefixes": [
                    "".join(_DIGIT_CHARS[d] for d in _to_digits(b, tree.p, l * tree.k))
                    for b in level
                ],
                "child_counts": list(tree.child_counts[l - 1]),
            }
            for l, level in enumerate(tree.levels, start=1)
        ],
    }
    return json.dumps(payload, indent=2)
