"""Periodically linear integer maps: stopping times, sieves, censuses, special sets."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import MULT_RECORDS

from ceildyn import multmaps
from ceildyn.multmaps import (
    PeriodicallyLinearMap,
    _cycle_before_divisible,
    ceiling_map,
    certified_exceptional,
    conjugate_g,
    exceptional_census,
    exceptional_denominator2,
    exceptional_sieve,
    floor_shift_check,
    mahler_witness,
    min_depth_for_census,
    mult_records,
    sigma_literal,
    sigma_prime,
    stopping_time_mult,
)
from ceildyn.rational import InternalCheckError

ratios = st.builds(
    Fraction, st.integers(min_value=1, max_value=9), st.integers(min_value=2, max_value=9)
).filter(lambda r: r.denominator >= 2)


def test_map_validation():
    with pytest.raises(ValueError):
        PeriodicallyLinearMap(2, 4, (0, 0, 0, 0))  # slope shares a factor with the modulus
    with pytest.raises(ValueError):
        PeriodicallyLinearMap(3, 2, (0, 0))  # offset 0 at residue 1 leaves 3n+0 odd
    with pytest.raises(ValueError):
        PeriodicallyLinearMap(3, 2, (0,))  # wrong arity


def test_conjugate_and_ceiling_maps_agree_with_rational_forms():
    r = Fraction(4, 3)
    g = conjugate_g(r)
    gt = ceiling_map(r)
    for n in range(-20, 21):
        assert g.apply(n) == 4 * math.ceil(Fraction(n, 3))
        assert gt.apply(n) == math.ceil(Fraction(4 * n, 3))


@given(ratios, st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_conjugacy_rescales_the_rational_orbit(r, n, steps):
    g = conjugate_g(r)
    d = r.denominator
    x = d * n
    y = Fraction(n)
    for _ in range(steps):
        x = g.apply(x)
        y = r * math.ceil(y)
        assert x == d * y


@given(ratios, st.integers(min_value=0, max_value=300))
@settings(max_examples=80)
def test_mult_stopping_time_matches_direct_iteration(r, n):
    rep = stopping_time_mult(r, n, max_steps=400)
    y = Fraction(n)
    theta = None
    for k in range(1, 401):
        y = r * math.ceil(y)
        if y.denominator == 1:
            theta = k
            break
    assert rep.theta == theta
    if theta is not None:
        assert rep.reached == y


def test_mult_table_for_4_thirds():
    r = Fraction(4, 3)
    thetas = [stopping_time_mult(r, n).theta for n in range(13)]
    reached = [stopping_time_mult(r, n).reached for n in range(13)]
    assert thetas == [1, 3, 2, 1, 2, 9, 1, 8, 3, 1, 7, 2, 1]
    assert reached == [0, 4, 4, 4, 8, 84, 8, 84, 20, 12, 84, 20, 16]


def test_integral_ratio_stops_immediately():
    rep = stopping_time_mult(Fraction(3), 7)
    assert (rep.theta, rep.reached) == (1, 21)


def _records_outcome(r, lo, hi, max_steps):
    """mult_records over [lo, hi], or the start its unresolved error names."""
    try:
        return mult_records(r, lo, hi, max_steps)
    except ValueError as exc:
        return ("unresolved", int(re.match(r"start (-?\d+) ", str(exc)).group(1)))


def _records_by_scalar_loop(r, lo, hi, max_steps):
    out, best = [], -1
    for n in range(lo, hi + 1):
        y, theta = Fraction(n), None
        for k in range(1, max_steps + 1):
            y = r * math.ceil(y)
            if y.denominator == 1:
                theta = k
                break
        if theta is None:
            return ("unresolved", n)
        if theta > best:
            out.append((n, theta))
            best = theta
    return out


@st.composite
def expanding_ratios(draw):
    d = draw(st.integers(min_value=2, max_value=7))
    l = draw(st.integers(min_value=d + 1, max_value=40).filter(lambda l: math.gcd(l, d) == 1))
    return Fraction(draw(st.sampled_from((l, -l))), d)


@given(
    expanding_ratios(),
    st.integers(min_value=-200, max_value=300),
    st.integers(min_value=0, max_value=300),
    st.sampled_from((6, 512)),
)
@settings(max_examples=60, deadline=None)
def test_mult_records_match_the_scalar_loop_on_every_block(r, lo, length, max_steps):
    hi = lo + length
    assert _records_outcome(r, lo, hi, max_steps) == _records_by_scalar_loop(r, lo, hi, max_steps)


def test_mult_records_name_the_smallest_unresolved_start():
    # ceil(1/3) = 1, so start 1 is a fixed point that never reaches an integer
    with pytest.raises(ValueError, match=r"start 1 is unresolved after max_steps=512 steps"):
        mult_records(Fraction(1, 3), 0, 10)
    assert mult_records(Fraction(1, 3), 0, 0) == [(0, 1)]
    assert mult_records(Fraction(3), 5, 9) == [(5, 1)]
    assert mult_records(Fraction(4, 3), 9, 8) == []


def test_mult_records_of_four_thirds_to_10_8():
    # past 491729 the next record is 38248700: none below 10^7
    deep = ((38248700, 41), (49050536, 44), (95305397, 47))
    assert mult_records(Fraction(4, 3), 0, 10**8) == list(MULT_RECORDS + deep)


def test_sieve_counts_and_membership():
    m = conjugate_g(Fraction(4, 3))
    for k in (1, 2, 3):
        classes = exceptional_sieve(m, k)
        assert len(classes) == 3 * 2**k
        modulus = 3 ** (k + 1)
        for b in classes:
            assert 0 <= b < modulus
            x = b
            for _ in range(k):
                x = m.apply(x)
                assert x % 3 != 0


def test_sieve_level_one_against_direct_enumeration():
    m = conjugate_g(Fraction(4, 3))
    brute = {b for b in range(9) if m.apply(b) % 3 != 0}
    assert brute == set(exceptional_sieve(m, 1)) == {1, 2, 3, 4, 5, 6}


@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60)
def test_sieve_refinement_carries_linearly(l, b, j):
    # h^j(b + d^j * t) = h^j(b) + l^j * t for the conjugated map, any d
    d = 3
    if math.gcd(l, d) != 1:
        return
    m = conjugate_g(Fraction(l, d))

    def iterate(n: int) -> int:
        for _ in range(j):
            n = m.apply(n)
        return n

    for t in (1, 2, 5):
        assert iterate(b + d**j * t) == iterate(b) + l**j * t


def test_census_of_one_third_map():
    census = exceptional_census(conjugate_g(Fraction(1, 3)), 27)
    assert census.survivors == (1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15)
    assert census.count == 12
    assert census.count <= 4 * 3 * 27 ** (math.log(2) / math.log(3))


def test_census_members_are_genuinely_exceptional():
    m = conjugate_g(Fraction(1, 3))
    census = exceptional_census(m, 27)
    for n in census.survivors:
        assert certified_exceptional(m, n)
    missing = set(range(1, 28)) - set(census.survivors)
    for n in missing:
        assert not certified_exceptional(m, n)


def block_map(l: int, d: int, s: int) -> PeriodicallyLinearMap:
    """A map whose first step is l + s on every block (d(q-1), dq]; s = 0 is
    the conjugate of l/d."""
    return PeriodicallyLinearMap(l, d, (d * s, *(d * s + l * (d - b) for b in range(1, d))))


@st.composite
def census_maps(draw):
    """The conjugate of a random l/d, another map that is constant on blocks
    of d starts, or a map with random valid offsets."""
    d = draw(st.integers(min_value=2, max_value=7))
    l = draw(st.integers(min_value=-12, max_value=12).filter(lambda l: l and math.gcd(l, d) == 1))
    kind = draw(st.sampled_from(("conjugate", "blocks", "offsets")))
    if kind == "conjugate":
        return conjugate_g(Fraction(l, d))
    if kind == "blocks":
        return block_map(l, d, draw(st.sampled_from((-2, -1, 1, 2))))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    return PeriodicallyLinearMap(l, d, tuple((-l * b) % d + d * s for b, s in enumerate(shifts)))


def brute_census(m: PeriodicallyLinearMap, x: int, depth: int) -> tuple[int, ...]:
    def survives(n: int) -> bool:
        for _ in range(depth):
            n = m.apply(n)
            if n % m.d == 0:
                return False
        return True

    return tuple(n for n in range(-x, x + 1) if survives(n))


@given(census_maps(), st.integers(min_value=1, max_value=300), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_census_matches_brute_force_iteration(m, x, extra_depth):
    depth = min_depth_for_census(m.d, x) + extra_depth
    brute = brute_census(m, x, depth)
    census = exceptional_census(m, x, depth)
    assert census.survivors == brute
    assert census.count == len(brute)


# a block of d starts that [-x, x] cuts at either end, or meets in one start
@pytest.mark.parametrize(
    "m",
    [conjugate_g(Fraction(7, 4)), conjugate_g(Fraction(-5, 3)), block_map(2, 3, 1), block_map(5, 6, -2)],
    ids=["7/4", "-5/3", "blocks-2/3", "blocks-5/6"],
)
@pytest.mark.parametrize(
    "x_of_d",
    [lambda d: 1, lambda d: d - 1, lambda d: d, lambda d: d + 1, lambda d: 3 * d - 1],
    ids=["1", "d-1", "d", "d+1", "3d-1"],
)
def test_census_clips_the_end_blocks(m, x_of_d):
    x = x_of_d(m.d)
    census = exceptional_census(m, x)
    assert census.survivors == brute_census(m, x, census.depth_k)


def _record_walks(monkeypatch) -> list[int]:
    walked: list[int] = []
    finish = multmaps._finish

    def recorded(m, pairs, k, last):
        pairs = list(pairs)
        walked.extend(n for n, _ in pairs)
        return finish(m, pairs, k, last)

    monkeypatch.setattr(multmaps, "_finish", recorded)
    return walked


def test_census_of_a_conjugate_map_walks_only_block_representatives(monkeypatch):
    walked = _record_walks(monkeypatch)
    census = exceptional_census(conjugate_g(Fraction(7, 4)), 10**4)
    assert census.count > 0
    assert walked and {n % 4 for n in walked} == {0}


@pytest.mark.parametrize("seed", range(3))
def test_census_of_a_map_without_blocks_walks_every_residue(seed, monkeypatch):
    # offsets[1] would have to be offsets[0] + 21 for 7/4 to step blocks of 4
    # to one value; shifts in [-2, 2] keep it below that
    rng = random.Random(seed)
    m = PeriodicallyLinearMap(7, 4, tuple((-7 * b) % 4 + 4 * rng.randint(-2, 2) for b in range(4)))
    walked = _record_walks(monkeypatch)
    exceptional_census(m, 10**4)
    assert {n % 4 for n in walked} == {0, 1, 2, 3}


@pytest.mark.parametrize("offsets", [(0, 2, 0, 2), (0, 6, 4, 2)])
def test_refinement_rejects_a_slope_sharing_a_factor_with_d(offsets):
    """l = 2, d = 4 past the constructor's check: every step is integral,
    but a class's children step by a multiple of 2, so the number killed
    is 0 or 2, never 1.  (0, 2, 0, 2) sieves from all residues; (0, 6, 4, 2)
    sends each block of 4 to one value, so its census sieves the blocks."""
    m = object.__new__(PeriodicallyLinearMap)
    for name, value in (("l", 2), ("d", 4), ("offsets", offsets)):
        object.__setattr__(m, name, value)
    blocks = len({m.apply(n) for n in range(1, 5)}) == 1  # the census's block seed
    assert blocks == (offsets == (0, 6, 4, 2))
    with pytest.raises(InternalCheckError, match="exactly one is required"):
        exceptional_sieve(m, 1)
    with pytest.raises(InternalCheckError, match="exactly one is required"):
        exceptional_census(m, 100)


def test_census_depth_floor():
    assert min_depth_for_census(3, 27) == 3
    assert min_depth_for_census(3, 28) == 4
    with pytest.raises(ValueError):
        exceptional_census(conjugate_g(Fraction(1, 3)), 27, depth_k=2)


# at these bounds the census at the floor + 3 differs from the census one
# level shallower and one level deeper, so the default depth shows in the count
@pytest.mark.parametrize("r,x", [(Fraction(4, 3), 100), (Fraction(7, 5), 100), (Fraction(2, 3), 300)])
def test_census_depth_defaults_to_three_past_the_floor(r, x):
    m = conjugate_g(r)
    depth = min_depth_for_census(m.d, x) + 3
    census = exceptional_census(m, x)
    assert census.depth_k == depth
    assert census.survivors == exceptional_census(m, x, depth).survivors
    for other in (depth - 1, depth + 1):
        assert census.count != exceptional_census(m, x, other).count


@pytest.mark.parametrize("d,x", [(3, 81), (4, 64), (5, 125)])
def test_census_count_under_theorem_bound(d, x):
    census = exceptional_census(conjugate_g(Fraction(1, d)), x)
    assert census.count <= 4 * d * x ** (math.log(d - 1) / math.log(d))


def test_denominator2_ceiling_map_finds_minus_one():
    out = exceptional_denominator2(ceiling_map(Fraction(3, 2)))
    assert [(c.value, c.certified) for c in out] == [(-1, True)]


def test_denominator2_keeps_a_candidate_the_budget_cannot_certify(monkeypatch):
    # -1 is a fixed point of ceil(3n/2); one step sees -1 once, not twice
    monkeypatch.setattr(multmaps, "_CANDIDATE_CERT_STEPS", 1)
    out = exceptional_denominator2(ceiling_map(Fraction(3, 2)))
    assert [(c.value, c.certified) for c in out] == [(-1, False)]


def test_certification_walk_is_tri_state():
    assert _cycle_before_divisible(ceiling_map(Fraction(3, 2)), -1, 2) is True
    assert _cycle_before_divisible(conjugate_g(Fraction(1, 3)), 9, 10) is False
    assert _cycle_before_divisible(ceiling_map(Fraction(3, 2)), -1, 1) is None
    assert _cycle_before_divisible(ceiling_map(Fraction(3, 2)), 1, 0) is None


def test_denominator2_offset_map_finds_zero_and_minus_one():
    out = exceptional_denominator2(PeriodicallyLinearMap(3, 2, (-2, 1)))
    assert sorted(c.value for c in out) == [-1, 0]
    assert all(c.certified for c in out)


def test_denominator2_conjugate_map():
    out = exceptional_denominator2(conjugate_g(Fraction(3, 2)))
    assert sorted(c.value for c in out) == [-3, -2]
    assert all(c.certified for c in out)


def test_denominator2_rejects_a_depth_below_stabilization(monkeypatch):
    m = PeriodicallyLinearMap(1, 2, (-2, 1))
    with pytest.raises(ValueError, match="below the stabilization depth"):
        exceptional_denominator2(m, depth_K=7)
    with monkeypatch.context() as patch:
        patch.setattr(multmaps, "_STABILIZATION", 12)
        with pytest.raises(ValueError, match="below the stabilization depth 12"):
            exceptional_denominator2(m, depth_K=11)
    assert [c.value for c in exceptional_denominator2(m, depth_K=8)] == [1]
    assert [c.value for c in exceptional_denominator2(m, depth_K=12)] == [1, 4]


def brute_chase(l: int, offsets: tuple[int, int], depth: int) -> list[tuple[int, bool]]:
    """The d = 2 chase by brute force: the n in (-2^(depth+1-S), 2^(depth+1-S)],
    S = _STABILIZATION, whose iterates 1..depth are odd, each walked
    _CANDIDATE_CERT_STEPS steps; an even iterate drops it, a repeat certifies it."""
    def step(n: int) -> int:
        return (l * n + offsets[n % 2]) // 2

    half = 2 ** (depth + 1 - multmaps._STABILIZATION)
    out = []
    for n in range(-half + 1, half + 1):
        x = n
        for _ in range(depth):
            if (x := step(x)) % 2 == 0:
                break
        else:
            x, seen, verdict = n, set(), None
            for _ in range(multmaps._CANDIDATE_CERT_STEPS):
                if (x := step(x)) % 2 == 0 or x in seen:
                    verdict = x % 2 == 1
                    break
                seen.add(x)
            if verdict is not False:
                out.append((n, verdict is True))
    return out


@pytest.mark.parametrize("l", [1, 3, 5, -1, -3, 7])
def test_denominator2_chase_finds_every_candidate(l):
    for even in range(-6, 7, 2):
        for odd in range(-7, 8, 2):
            m = PeriodicallyLinearMap(l, 2, (even, odd))
            for depth in range(8, 13):
                got = [(c.value, c.certified) for c in exceptional_denominator2(m, depth_K=depth)]
                assert got == brute_chase(l, (even, odd), depth), (l, even, odd, depth)


def test_denominator2_rejects_wide_maps():
    with pytest.raises(ValueError):
        exceptional_denominator2(conjugate_g(Fraction(4, 3)))


def test_sigma_prime_small_cases():
    assert sorted(sigma_prime(3, 1)) == [1, 2]
    assert sorted(sigma_prime(3, 2)) == [1, 2, 4, 5]
    assert len(sigma_prime(4, 3)) == 27
    assert len(sigma_prime(5, 4)) == 256


def test_sigma_prime_members_reach_one_safely():
    m = conjugate_g(Fraction(1, 3))
    for n in sorted(sigma_prime(3, 4)):
        x = n
        while x != 1:
            x = m.apply(x)
            assert x % 3 != 0


def test_sigma_prime_is_contained_in_the_census():
    census = exceptional_census(conjugate_g(Fraction(1, 3)), 27)
    assert sigma_prime(3, 3) <= set(census.survivors)


def test_literal_digit_set_contains_the_counterexample():
    literal = sigma_literal(3, 3)
    assert 3 in literal
    assert 9 in literal
    assert not certified_exceptional(conjugate_g(Fraction(1, 3)), 9)
    assert conjugate_g(Fraction(1, 3)).apply(9) % 3 == 0


def test_literal_set_overshoots_the_corrected_one():
    m = conjugate_g(Fraction(1, 3))
    assert sigma_literal(3, 2) == {1, 2, 3, 4, 5, 9}
    assert sigma_prime(3, 2) == {1, 2, 4, 5}
    # the literal digit condition admits 9, whose very first iterate is
    # divisible by 3, so it cannot belong to the exceptional set
    assert m.apply(9) % 3 == 0
    assert not certified_exceptional(m, 9)
    # it also admits 3, which is genuinely exceptional but missed by the
    # corrected digit construction (that one is a subset, not the whole set)
    assert certified_exceptional(m, 3)


def filtered_sigma_literal(d: int, k: int) -> set[int]:
    """The literal digit set by filtering 1..d^k: n is kept when no base-d
    digit above its units place is d-1."""
    out = set()
    for n in range(1, d**k + 1):
        rest = n // d
        while rest and rest % d != d - 1:
            rest //= d
        if not rest:
            out.add(n)
    return out


@given(st.integers(min_value=3, max_value=9).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, max(k for k in range(1, 11) if d**k <= 60_000)))))
@settings(max_examples=40, deadline=None)
def test_digit_sets_match_a_filter_of_every_start(dk):
    d, k = dk
    want = filtered_sigma_literal(d, k)
    assert sigma_literal(d, k) == want
    assert sigma_prime(d, k) == {n for n in want if n % d and n < d**k}


def lower_bound_check(d: int, x: int) -> bool:
    """Does the certified exceptional count of n -> ceil(n/d) at |n| <= x
    meet the (1/d) * x**beta_d lower bound?"""
    if d < 3:
        raise ValueError("lower bound check needs d >= 3")
    if x < d:
        raise ValueError("x must be at least d")
    g = conjugate_g(Fraction(1, d))
    census = exceptional_census(g, x, min_depth_for_census(d, x) + 3)
    count = sum(1 for n in census.survivors if certified_exceptional(g, n))
    beta = math.log(d - 1) / math.log(d)
    return count >= x**beta / d


def test_lower_bound_check_examples():
    assert lower_bound_check(3, 81)
    assert lower_bound_check(4, 256)


def test_mahler_witness_small_values():
    assert mahler_witness(1) == 2
    assert mahler_witness(2) == 1
    assert mahler_witness(3) == 5


@given(st.integers(min_value=1, max_value=400))
@settings(max_examples=80)
def test_mahler_witness_is_the_first_hit(n):
    j = mahler_witness(n)
    assert j is not None
    gt = ceiling_map(Fraction(3, 2))
    x = n
    for step in range(1, j + 1):
        x = gt.apply(x)
        hit = x % 4 == 3
        assert hit == (step == j)


@pytest.mark.parametrize("d", range(1, 7))
def test_floor_shift_identity(d):
    assert all(floor_shift_check(d, m, 512) is True for m in range(1, 31))


def test_floor_shift_identity_by_direct_iteration():
    d = 3
    r = Fraction(d + 1, d)
    for m in range(1, 20):
        y, big = Fraction(m), Fraction(m + d)
        for _ in range(64):
            y = r * math.ceil(y)
            big = r * math.floor(big)
            assert big - y == d + 1
            assert (y.denominator == 1) == (big.denominator == 1)
            if y.denominator == 1:
                break


def fraction_floor_shift_check(d: int, m: int, horizon: int) -> bool | None:
    """The identity walked on Fractions: y -> r*ceil(y) from m and
    Y -> r*floor(Y) from m + d, r = (d+1)/d; None when the horizon ends
    the walk before y is integral."""
    r = Fraction(d + 1, d)
    y = Fraction(m)
    Y = Fraction(m + d)
    for _ in range(horizon):
        y = r * math.ceil(y)
        Y = r * math.floor(Y)
        if Y - y != d + 1:
            return False
        if y.denominator == 1:
            return Y.denominator == 1
    return None


# The ceiling orbit of m first becomes integral at step 3 for (d, m) =
# (3, 1), 12 for (12, 1), 14 for (2, 8191), 61 for (7, 5961) and 131 for
# (12, 9009); the horizons below end the walk before that step, except the
# last, which reaches it.  d = 1 is r = 2, integral at step 1.
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=600),
)
@example(1, 1, 1)
@example(3, 1, 2)
@example(12, 1, 11)
@example(2, 8191, 13)
@example(7, 5961, 60)
@example(12, 9009, 130)
@example(12, 9009, 131)
@settings(max_examples=150, deadline=None)
def test_integer_floor_shift_check_matches_the_fraction_walk(d, m, horizon):
    assert floor_shift_check(d, m, horizon) is fraction_floor_shift_check(d, m, horizon)
