"""The exceptional-set prefix trees of p-adic approximate squaring."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceildyn import chains, padic
from ceildyn.chains import _numerators, chain_of
from ceildyn.padic import (
    box_dimension_estimate,
    hausdorff_dimension,
    omega_prefix_tree,
    tree_to_json,
)
from ceildyn.rational import InternalCheckError

PK_CASES = [(2, 2), (3, 1), (3, 2), (5, 1)]


def stepwise_locally_survives(p, k, level, residue):
    """Whether the unit part residue mod p^(level*k) stays a unit for the
    level - 1 steps its digits determine, by a loop of its own: the
    reference for the tree's chain entries."""
    digits = level * k
    pk = p**k
    u = residue % p**digits
    if u % p == 0:
        return False
    for _ in range(1, level):
        digits -= k
        u = (u * (u // pk + 1)) % p**digits
        if u % p == 0:
            return False
    return True


@st.composite
def survival_cases(draw):
    p, k = draw(st.sampled_from(PK_CASES + [(2, 3)]))
    level = draw(st.integers(min_value=1, max_value=5))
    residue = draw(st.integers(min_value=0, max_value=2 * p ** (level * k)))
    return p, k, level, residue


@given(survival_cases())
@settings(max_examples=300)
def test_chain_entry_matches_the_windowed_chain_and_the_unit_loop(case):
    p, k, level, residue = case
    pk = p**k
    entries = [pk // math.gcd(_numerators([residue], pk, j)[-1][0], pk) for j in range(level)]
    assert tuple(entries) == chain_of(residue, pk, level - 1).denominators
    assert (entries == [pk] * level) == stepwise_locally_survives(*case)


def test_tree_small_levels_for_3_1():
    tree = omega_prefix_tree(3, 1, 2)
    assert tree.levels[0] == (1, 2)
    assert tree.levels[1] == (1, 2, 4, 5)
    assert tree.child_counts[0] == (2, 2)


def three_pass_tree(p, k, depth):
    """The tree built in three passes (levels 1..depth+1 of locally
    surviving residues, a bottom-up prune of childless nodes, then a tally
    of children per node): the reference for the one-pass build."""
    pk = p**k
    levels = [[u for u in range(1, pk) if u % p != 0]]
    for l in range(2, depth + 2):
        parent_mod = p ** ((l - 1) * k)
        levels.append([
            child
            for b in levels[-1]
            for s in range(pk)
            if stepwise_locally_survives(p, k, l, child := b + parent_mod * s)
        ])
    for l in range(depth, 0, -1):
        extended = {c % p ** (l * k) for c in levels[l]}
        levels[l - 1] = [b for b in levels[l - 1] if b in extended]
    kept = [sorted(level) for level in levels[:depth]]
    counts = []
    for l, level in enumerate(kept, start=1):
        tally = {b: 0 for b in level}
        for c in levels[l]:
            tally[c % p ** (l * k)] += 1
        counts.append(tuple(tally[b] for b in level))
    return tuple(tuple(level) for level in kept), tuple(counts)


# (5, 2) stops at depth 3: at depth 4 each build tests 4 million extensions
# of the 160000 level-4 nodes, too slow for the tier-1 suite
@pytest.mark.parametrize(
    "p,k,depth",
    [(p, k, depth) for p, k in PK_CASES + [(2, 3), (5, 2)] for depth in range(1, 5)
     if (p, k, depth) != (5, 2, 4)],
)
def test_tree_matches_the_three_pass_build(p, k, depth):
    tree = omega_prefix_tree(p, k, depth)
    assert (tree.levels, tree.child_counts) == three_pass_tree(p, k, depth)


@pytest.mark.parametrize("extra", [False, True])
def test_tree_raises_on_a_node_that_breaks_the_branching_law(monkeypatch, extra):
    # every extension of node 1 mod 3 at level 2 dies (childless) or survives (3 > phi)
    real = chains._numerators

    def broken(starts, d, m):
        rows = real(starts, d, m)
        if m == 1:
            rows[-1] = [(1 if extra else 0) if u % 3 == 1 else v for u, v in zip(starts, rows[-1])]
        return rows

    monkeypatch.setattr(chains, "_numerators", broken)
    with pytest.raises(InternalCheckError, match=r"class 1 mod 3 \(entry 3\)"):
        omega_prefix_tree(3, 1, 3)


@pytest.mark.parametrize("p,k", PK_CASES)
def test_tree_growth_is_exactly_geometric(p, k):
    tree = omega_prefix_tree(p, k, 4)
    phi = p**k - p ** (k - 1)
    assert tree.sizes == tuple(phi ** (l + 1) for l in range(4))
    for row in tree.child_counts:
        assert set(row) == {phi}


@pytest.mark.parametrize("p,k", PK_CASES)
def test_tree_levels_nest(p, k):
    tree = omega_prefix_tree(p, k, 3)
    for l in range(1, 3):
        parent_mod = p ** (l * k)
        parents = set(tree.levels[l - 1])
        for child in tree.levels[l]:
            assert child % parent_mod in parents


@pytest.mark.parametrize("p,k", PK_CASES)
def test_rational_fixed_points_survive_to_every_level(p, k):
    tree = omega_prefix_tree(p, k, 4)
    for l in range(1, p**k):
        if l % p != 0:
            for level in tree.levels:
                assert l in level


def test_tree_rejections():
    with pytest.raises(ValueError):
        omega_prefix_tree(2, 1, 4)  # branching ratio 1 is out of scope
    with pytest.raises(ValueError):
        omega_prefix_tree(4, 1, 4)  # p must be prime
    with pytest.raises(ValueError):
        omega_prefix_tree(3, 1, 0)


def test_dimension_formula():
    assert hausdorff_dimension(2, 1) == 0
    assert hausdorff_dimension(2, 2) == pytest.approx(0.5)
    assert hausdorff_dimension(3, 1) == pytest.approx(math.log(2) / math.log(3))


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=4))
def test_dimension_equals_log_branching_ratio(p, k):
    phi = p**k - p ** (k - 1)
    assert hausdorff_dimension(p, k) == pytest.approx(math.log(phi) / math.log(p**k), abs=1e-12)


@pytest.mark.parametrize("p,k", PK_CASES)
def test_box_dimension_estimate_matches_formula(p, k):
    tree = omega_prefix_tree(p, k, 4)
    assert box_dimension_estimate(tree) == pytest.approx(hausdorff_dimension(p, k), abs=0.02)


def test_box_dimension_needs_three_levels():
    with pytest.raises(ValueError):
        box_dimension_estimate(omega_prefix_tree(3, 1, 2))


def test_json_export_round_trips_structure():
    tree = omega_prefix_tree(3, 1, 3)
    doc = json.loads(tree_to_json(tree))
    assert doc["p"] == 3 and doc["k"] == 1
    assert doc["branching_ratio"] == 2
    assert [len(level["prefixes"]) for level in doc["levels"]] == [2, 4, 8]
    level2 = doc["levels"][1]
    assert all(len(prefix) == 2 for prefix in level2["prefixes"])
    assert set(level2["child_counts"]) == {2}
    # least significant digit first: residue 4 mod 9 renders as "11"
    assert "11" in level2["prefixes"]


def base_p_string(u: int, p: int, width: int) -> str:
    """Independent oracle for a prefix: width base-p digits of u, least
    significant first, written one remainder at a time."""
    chars = ""
    for _ in range(width):
        chars += "0123456789abcdefghijklmnopqrstuvwxyz"[u % p]
        u //= p
    return chars


@pytest.mark.parametrize(
    "p, k, depth", [(2, 2, 10), (2, 3, 5), (3, 2, 4), (7, 1, 4), (5, 2, 3), (13, 1, 3)]
)
def test_json_prefixes_match_a_plain_digit_loop(p, k, depth):
    tree = omega_prefix_tree(p, k, depth)
    doc = json.loads(tree_to_json(tree))
    for l, (level, exported) in enumerate(zip(tree.levels, doc["levels"]), start=1):
        assert exported["level"] == l
        assert exported["prefixes"] == [base_p_string(b, p, l * k) for b in level]
        assert exported["child_counts"] == list(tree.child_counts[l - 1])


@pytest.mark.parametrize("orphan", [3, 2 + 9 * 3])  # parent 0 is no node; 29 >= 3^2
def test_json_export_rejects_a_node_without_a_parent(orphan):
    tree = omega_prefix_tree(3, 1, 2)
    level2 = tuple(sorted(tree.levels[1] + (orphan,)))
    broken = padic.PrefixTree(3, 1, (tree.levels[0], level2), tree.child_counts)
    with pytest.raises(InternalCheckError):
        tree_to_json(broken)
