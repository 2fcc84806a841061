"""Approximate squaring on p-adic numbers: the exceptional-set prefix trees.

An element alpha of p^{-k}Z_p is represented through its unit part
u = p^k*alpha.  One map step multiplies by the integral part plus one, so
u known modulo p^W determines the next unit part only modulo p^{W-k}: each
step consumes k digits of precision.  The exceptional set of elements whose
orbit never gains p-divisibility is explored level by level through prefix
trees: the nodes at level l are the residues u mod p^{lk} that survive, and
every surviving node extends in exactly phi(p^k) ways.  The tree is built in
one pass that checks this branching law on every node, and digit strings are
made only for the JSON export.

The tree is the one descent of chains' chain-prefix sieve,
chains._chain_classes, at d = p^k along the constant chain (d, d, ..., d):
on a p-unit u the step u*(u//p^k + 1) is u*ceil(u/d), and a prefix survives
while every chain entry stays d, that is while no iterate is divisible by p.
chains._split checks the branching law, which is digit law 1 for the entry d.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

from ceildyn.chains import _chain_classes, alpha_d
from ceildyn.rational import InternalCheckError, euler_phi, is_prime

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _to_digits(u: int, p: int, width: int) -> tuple[int, ...]:
    digits = []
    for _ in range(width):
        u, r = divmod(u, p)
        digits.append(r)
    return tuple(digits)


@dataclass(frozen=True)
class PrefixTree:
    """Surviving digit prefixes of the p-adic exceptional set, by level.

    levels[i] holds the sorted residues modulo p^{(i+1)k} that survive at
    level i+1; child_counts[i] is aligned with levels[i] and counts each
    node's surviving extensions to the next level, which omega_prefix_tree
    has checked to be phi(p^k) on every node.
    """

    p: int
    k: int
    levels: tuple[tuple[int, ...], ...]
    child_counts: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)


def omega_prefix_tree(p: int, k: int, depth: int) -> PrefixTree:
    """Build the exceptional-set prefix tree down to the given depth.

    chains._chain_classes descends from the root class mod 1 along the
    constant chain (p^k, ..., p^k) of depth + 1 entries; its levels past the
    root are the tree's.  chains._split raises InternalCheckError at any node
    whose children break digit law 1, so every node has exactly phi(p^k)
    children whose entry stays p^k (the equal-branching law).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1 or depth < 1:
        raise ValueError("need k >= 1 and depth >= 1")
    pk = p**k
    if pk < 3:
        raise ValueError("p^k must be at least 3 for the tree exploration")
    _, *levels = _chain_classes(pk, (pk,) * (depth + 1))
    nodes, counts = zip(*levels)
    return PrefixTree(p, k, tuple(map(tuple, nodes)), tuple(map(tuple, counts)))


def hausdorff_dimension(p: int, k: int) -> float:
    """1 - alpha_d(p^k), that is 1 - log(1 + 1/(p-1))/(k log p); equals
    log(phi(p^k))/log(p^k)."""
    if not is_prime(p) or k < 1:
        raise ValueError("need prime p and k >= 1")
    return 1 - alpha_d(p**k).value


def box_dimension_estimate(tree: PrefixTree) -> float:
    """Slope of log|W_l| against l*k*log p; converges to the Hausdorff
    dimension as the tree deepens."""
    if len(tree.levels) < 3:
        raise ValueError("need at least 3 levels for a slope estimate")
    xs = [l * tree.k * math.log(tree.p) for l in range(1, len(tree.levels) + 1)]
    ys = [math.log(size) for size in tree.sizes]
    return statistics.linear_regression(xs, ys).slope


def check_digit_base(p: int) -> None:
    """Refuse a p whose digits tree_to_json cannot write, before a tree is built."""
    if p > len(_DIGIT_CHARS):
        raise ValueError("digit strings support p up to 36")


def tree_to_json(tree: PrefixTree) -> str:
    """JSON export: per level, digit-string prefixes (least significant digit
    first) and the aligned child counts.

    A node b + p^{(l-1)k}*s at level l extends its parent b at level l-1 by
    the k digits of s, so its prefix is the parent's string followed by those
    k digits: each node costs one string join, not a full-width conversion.
    """
    p, k = tree.p, tree.k
    check_digit_base(p)
    pk = p**k
    tails = ["".join(_DIGIT_CHARS[d] for d in _to_digits(s, p, k)) for s in range(pk)]
    strings = {0: ""}  # the level-0 root: the empty prefix
    parent_mod = 1
    levels = []
    for l, level in enumerate(tree.levels, start=1):
        prefixes = []
        for b in level:
            s, parent = divmod(b, parent_mod)
            if parent not in strings or not 0 <= s < pk:
                raise InternalCheckError(
                    f"node {b} at level {l} does not extend a node at level {l - 1}"
                )
            prefixes.append(strings[parent] + tails[s])
        strings = dict(zip(level, prefixes))
        parent_mod *= pk
        levels.append(
            {"level": l, "prefixes": prefixes, "child_counts": list(tree.child_counts[l - 1])}
        )
    payload = {"p": p, "k": k, "branching_ratio": euler_phi(pk), "levels": levels}
    return json.dumps(payload, indent=2)
