"""Denominator chains, mixed-radix digits, progression counts, distributions."""

from __future__ import annotations

import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_window import step_window_theta

from ceildyn import chains
from ceildyn.chains import (
    Chain,
    alpha_d,
    alpha_d_divisor_form,
    ap_count_for_chain,
    beta_d,
    census_thetas,
    chain_of,
    chain_stop_masses,
    mixed_radix_expand,
    squaring_records,
    stop_counts,
    verify_digit_laws,
)
from ceildyn.padic import omega_prefix_tree
from ceildyn.rational import InternalCheckError, euler_phi
from ceildyn.squaring import StoppingReport, stopping_time_exact
from ceildyn.window import _regrown_theta, _window_theta

small_d = st.integers(min_value=2, max_value=6)
small_l = st.integers(min_value=0, max_value=400)


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain(4, (3, 1))  # 3 does not divide 4
    with pytest.raises(ValueError):
        Chain(6, (6, 4))  # 4 does not divide 6
    Chain(6, (6, 3, 1))  # fine


def test_chain_break_points():
    chain = chain_of(5, 2, 2)
    assert chain.denominators == (2, 2, 1)
    assert chain.break_points == ((2, 2),)
    assert chain.complete
    assert chain_of(5, 12, 0).break_points == ()
    assert not chain_of(5, 3, 1).complete


@given(st.integers(min_value=-400, max_value=400), small_d, st.integers(min_value=0, max_value=6))
@settings(max_examples=80)
def test_chain_of_matches_exact_orbit(l, d, m):
    chain = chain_of(l, d, m)
    cur = Fraction(l, d)
    dens = [cur.denominator]
    for _ in range(m):
        cur = cur * math.ceil(cur)
        dens.append(cur.denominator)
    assert chain.denominators == tuple(dens)


def test_mixed_radix_known_expansions():
    chain = chain_of(5, 2, 2)  # (2, 2, 1)
    assert mixed_radix_expand(Fraction(5, 2), chain, 0) == (1, 0, 1)
    assert mixed_radix_expand(Fraction(15, 2), chain, 1) == (1, 1, 3)
    assert mixed_radix_expand(Fraction(60), chain, 2) == (0, 60)
    seven_chain = chain_of(9, 7, 2)  # (7, 7, 7)
    assert mixed_radix_expand(Fraction(16, 7), seven_chain, 1) == (2, 2)


def test_mixed_radix_errors():
    chain = chain_of(5, 2, 2)
    with pytest.raises(ValueError):
        mixed_radix_expand(Fraction(5, 3), chain, 0)  # wrong denominator
    with pytest.raises(ValueError):
        mixed_radix_expand(Fraction(-5, 2), chain, 0)
    with pytest.raises(ValueError):
        mixed_radix_expand(Fraction(5, 2), chain, 9)


def mixed_radix_value(digits, chain: Chain, k: int) -> Fraction:
    """Exact value of a digit tuple produced by mixed_radix_expand."""
    last = len(chain.denominators) - 1
    dk = chain.denominators[k]
    total = Fraction(digits[0], dk)
    place = 1
    for j, a in enumerate(digits[1:]):
        total += a * place
        place *= chain.denominators[min(k + j, last)]
    return total


@given(small_l, small_d, st.integers(min_value=0, max_value=5), st.data())
@settings(max_examples=80)
def test_mixed_radix_round_trip(l, d, m, data):
    chain = chain_of(l, d, m)
    k = data.draw(st.integers(min_value=0, max_value=m), label="position")
    dk = chain.denominators[k]
    numerator = data.draw(st.integers(min_value=0, max_value=5000), label="numerator")
    q = Fraction(numerator, dk)
    if q.denominator != dk:
        q = Fraction(numerator * dk + 1, dk) if dk > 1 else Fraction(numerator)
    digits = mixed_radix_expand(q, chain, k)
    assert mixed_radix_value(digits, chain, k) == q
    assert 0 <= digits[0] < dk
    last = len(chain.denominators) - 1
    for j, a in enumerate(digits[1:-1]):
        assert 0 <= a < chain.denominators[min(k + j, last)]


def test_digit_laws_hold_on_known_runs():
    for l, d, m in ((5, 4, 10), (7, 6, 10), (5, 2, 6)):
        assert verify_digit_laws(l, d, m) == chain_of(l, d, m)


@given(st.integers(min_value=1, max_value=500), st.sampled_from([4, 6, 12]))
@settings(max_examples=60)
def test_digit_laws_property(l, d):
    assert verify_digit_laws(l, d, 8) == chain_of(l, d, 8)


def full_walk_digit_laws(l: int, d: int, m: int) -> Chain:
    """verify_digit_laws on all m exact iterates, integral ones included:
    the reference for the walk that reads their residues only."""
    values = [Fraction(l, d)]
    for _ in range(m):
        values.append(values[-1] * math.ceil(values[-1]))
    chain = Chain(d, tuple(v.denominator for v in values))
    for k in range(m):
        dk, dk1 = chain.denominators[k], chain.denominators[k + 1]
        a0 = mixed_radix_expand(values[k], chain, k)[1]
        if math.gcd(a0 + 1, dk) != dk // dk1:
            raise InternalCheckError(f"digit law 1 fails for {l}/{d} at step {k}: ")
        if math.gcd(values[k + 1].numerator % dk1, dk1) != 1:
            raise InternalCheckError(f"digit law 2 fails for {l}/{d} at step {k}: ")
    return chain


@given(
    st.integers(min_value=-30, max_value=500),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
)
@example(14, 9, 12)  # integral from step 4 on
@example(-6, 3, 2)  # a negative integral start
@settings(max_examples=80, deadline=None)
def test_digit_laws_match_the_full_walk(l, d, m):
    try:
        want = full_walk_digit_laws(l, d, m)
    except (ValueError, InternalCheckError) as exc:
        with pytest.raises(type(exc), match=f"^{exc}"):
            verify_digit_laws(l, d, m)
        return
    assert verify_digit_laws(l, d, m) == want


def test_digit_laws_stop_at_the_first_integral_iterate():
    # 14/9 is integral after 4 steps; a walk of the exact iterates to step 40
    # would square integers of ever more digits (step 24 alone took seconds).
    start = time.perf_counter()
    chain = verify_digit_laws(14, 9, 40)
    assert time.perf_counter() - start < 1.0
    assert chain.denominators == (9, 9, 9, 9) + (1,) * 37


def test_digit_laws_read_a0_without_expanding_every_digit():
    # 28/3 stays fractional for 22 steps, so iterate 17 has about 130,000
    # digits; expanding every digit of each iterate took about 45 s
    # (CPython 3.11, shared 2-vCPU Xeon).
    start = time.perf_counter()
    chain = verify_digit_laws(28, 3, 18)
    assert time.perf_counter() - start < 5.0
    assert chain.denominators == (3,) * 19


def numerators_that_break_divisibility(monkeypatch) -> None:
    """Patch _numerators so that the chain of 7/6 reads 6, 2, 3, 1."""
    monkeypatch.setattr(chains, "_numerators", lambda u, d, m: [1, 3, 2, 0])


def test_chain_of_raises_on_entries_that_break_divisibility(monkeypatch):
    # Chain built directly keeps its ValueError (test_chain_validation)
    numerators_that_break_divisibility(monkeypatch)
    err = "^chain of 7/6: denominators must divide their predecessors$"
    with pytest.raises(InternalCheckError, match=err):
        chain_of(7, 6, 3)


def test_digit_laws_walk_checks_the_window_chain(monkeypatch):
    # a kernel that never drops gives chain_of the chain 9, 9, ..., 9 for 14/9,
    # whose orbit is integral from step 4 on; the digit-law walk must not read it
    monkeypatch.setattr(chains, "_numerators", lambda u, d, m: [1] * (m + 1))
    err = "^the chain of 14/9 from digit windows is not its exact chain$"
    with pytest.raises(InternalCheckError, match=err):
        verify_digit_laws(14, 9, 6)


def wrong_digit_at_step_3(monkeypatch) -> None:
    """Patch mixed_radix_expand to add 1 to the digit a_0 at step 3 only."""
    real = chains.mixed_radix_expand

    def expand(q, chain, k):
        digits = real(q, chain, k)
        return (digits[0], digits[1] + 1, *digits[2:]) if k == 3 else digits

    monkeypatch.setattr(chains, "mixed_radix_expand", expand)


@pytest.mark.parametrize("m", [4, 40])
def test_digit_laws_check_every_fractional_step(m, monkeypatch):
    # 14/9 is fractional at steps 0..3 and integral from step 4 on; a wrong
    # digit at step 3 must raise whether or not m runs past step 4.
    wrong_digit_at_step_3(monkeypatch)
    err = r"^digit law 1 fails for 14/9 at step 3: gcd\(a0\+1, d_k\) = 1 but d_k/d_k\+1 = 9$"
    with pytest.raises(InternalCheckError, match=err):
        verify_digit_laws(14, 9, m)


def test_ap_count_known_chains():
    ap = ap_count_for_chain(chain_of(7, 3, 1))
    assert (ap.predicted, ap.modulus, ap.enumerated) == (2, 9, 2)
    ap = ap_count_for_chain(chain_of(5, 2, 2))
    assert (ap.predicted, ap.modulus, ap.enumerated) == (1, 8, 1)


def test_ap_count_skips_oversized_moduli(monkeypatch):
    monkeypatch.setattr(chains, "_ENUMERATE_CAP", 1000)
    chain = chain_of(5, 7, 8)
    ap = ap_count_for_chain(chain)
    assert ap.enumerated is None
    assert ap.modulus > 1000


def brute_force_ap_count(chain: Chain, modulus: int) -> int:
    """Starts c/d, 0 <= c < modulus, whose chain is chain, stepped one at a
    time: the reference for the prefix sieve of ap_count_for_chain."""
    m = len(chain.denominators) - 1
    return sum(
        1
        for c in range(modulus)
        if chain_of(c, chain.d_start, m) == chain
    )


@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=5),
)
@example(2, 6, 2)  # (3, 3, 3): modulus 54, not a power of 6
@example(2, 6, 5)  # (3, 3, 3, 3, 3, 3): modulus 1458
@example(7, 6, 5)  # (6, 3, 1, 1, 1, 1): integral from step 2, modulus 108
@example(2, 12, 3)  # (6, 6, 6, 6): modulus 2592, not a power of 12
@example(3, 12, 5)  # (4, 4, 4, 4, 4, 4): modulus 12288
@example(13, 12, 5)  # (12, 6, 2, 2, 1, 1): integral from step 4, modulus 3456
@example(1, 6, 4)  # (6, 6, 6, 6, 6): modulus 6^5, every entry decided by the sieve
@example(0, 12, 5)  # an integral start: (1, 1, 1, 1, 1, 1), modulus 12
@example(31, 30, 2)  # (30, 15, 5): modulus 13500
@example(33, 30, 3)  # (10, 5, 5, 5): modulus 7500
@example(63, 60, 2)  # (20, 10, 10): modulus 12000
@example(65, 60, 3)  # (12, 6, 2, 2): modulus 8640
@settings(max_examples=60, deadline=None)
def test_ap_prediction_matches_enumeration(l, d, m):
    chain = chain_of(l, d, m)
    ap = ap_count_for_chain(chain)
    assume(ap.modulus <= 20_000)
    assert ap.enumerated == brute_force_ap_count(chain, ap.modulus)
    assert ap.enumerated == ap.predicted


def test_alpha_exponents():
    assert alpha_d(2).value == pytest.approx(1.0)
    assert alpha_d(3).value == pytest.approx(math.log(1.5) / math.log(3))
    a12 = alpha_d(12)
    assert (a12.prime, a12.multiplicity) == (3, 1)
    assert a12.value == pytest.approx(0.36907, abs=1e-5)


@given(st.integers(min_value=2, max_value=300))
def test_alpha_forms_agree(d):
    assert alpha_d(d).value == pytest.approx(alpha_d_divisor_form(d), rel=1e-12)


def test_beta_exponent():
    assert beta_d(2) == 0
    assert beta_d(3) == pytest.approx(math.log(2) / math.log(3))


def test_stop_masses_for_prime_denominator():
    for p in (2, 3, 5, 7):
        assert chain_stop_masses(p, 6) == [Fraction(1, p) * Fraction(p - 1, p) ** j for j in range(7)]


def test_stop_masses_for_composite_denominator():
    assert chain_stop_masses(4, 2) == [Fraction(1, 4), Fraction(1, 4), Fraction(3, 16)]


@pytest.mark.parametrize("d, depth", [(0, 3), (3, -1)])
def test_stop_masses_reject_bad_input(d, depth):
    with pytest.raises(ValueError, match="need d >= 1 and depth >= 0"):
        chain_stop_masses(d, depth)


def chain_sum_stop_mass(d: int, j: int) -> Fraction:
    """Stop mass summed chain by chain over every complete chain
    (d_0, ..., d_j = 1) over d: the reference for the divisor recurrence."""

    def chains_from(t: int, length: int):
        if length == 0:
            yield (1,)
            return
        for s in range(2, t + 1):
            if t % s == 0:
                for rest in chains_from(s, length - 1):
                    yield (s, *rest)

    total = Fraction(0)
    for dens in chains_from(d, j):
        count = math.prod(euler_phi(t) for t in dens)
        total += Fraction(count, d * math.prod(dens[:-1]))
    return total


def test_stop_mass_recurrence_matches_the_chain_sum():
    for d in [*range(1, 61), 720]:
        assert chain_stop_masses(d, 5) == [chain_sum_stop_mass(d, j) for j in range(6)], d


def test_deep_stop_masses():
    # one pass of the recurrence reaches depths that a rerun per j made slow
    for p in (2, 3, 5, 7):
        assert chain_stop_masses(p, 60) == [Fraction(1, p) * Fraction(p - 1, p) ** j for j in range(61)]
    assert chain_stop_masses(12, 14) == [chain_sum_stop_mass(12, j) for j in range(15)]


def theta_residues(d: int, j: int) -> frozenset[int]:
    """Residues mod d^(j+1) of the starts l/d that stop in exactly j steps.

    Stopping time through step j depends only on l mod d^(j+1), so this lists
    the event by residue, walking each start l/d, 1 <= l <= d^(j+1), as a
    Fraction through x -> x*ceil(x); it shares no code with ceildyn and is the
    independent oracle for chain_stop_masses.  Theta 0 is the residue 0; a
    residue of theta j >= 1 is named by its representative in d+1..d^(j+1).
    """
    modulus = d ** (j + 1)
    hit = set()
    for l in range(1, modulus + 1):
        x, k = Fraction(l, d), 0
        while x.denominator != 1 and x > 1 and k < j:  # x in (0, 1) is fixed
            x, k = x * math.ceil(x), k + 1
        if x.denominator == 1 and k == j:
            hit.add(l % modulus)
    return frozenset(hit)


def enumerate_stop_mass(d: int, j: int) -> Fraction:
    return Fraction(len(theta_residues(d, j)), d ** (j + 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stop_masses_match_residue_enumeration(d):
    assert chain_stop_masses(d, 3) == [enumerate_stop_mass(d, j) for j in range(4)]


@pytest.mark.parametrize("d,j", [(3, 2), (4, 2), (6, 1)])
def test_stop_mass_denominator_divides_power(d, j):
    mass = chain_stop_masses(d, j)[j]
    assert d ** (j + 1) % mass.denominator == 0


def test_theta_residues_depend_only_on_the_class():
    residues = theta_residues(3, 2)
    modulus = 27
    for b in sorted(residues)[:6]:
        assert stopping_time_exact(Fraction(b + 2 * modulus, 3), max_steps=3).theta == 2


@pytest.mark.parametrize("d,j", [(3, 4), (4, 3), (6, 3), (12, 2)])
def test_theta_residues_match_a_fraction_walk(d, j):
    """_window_theta(l, d, j) reads only l mod d^(j+1); the starts of one
    period it stops at step j are the Fraction walk's residues."""
    # a start in (0, 1) is fixed and never stops, and d | l stops at 0
    hit = {l for l in range(d + 1, d ** (j + 1) + 1) if l % d and _window_theta(l, d, j) == j}
    assert hit == theta_residues(d, j)


def test_stop_distribution_combines_exact_and_empirical():
    masses, counts = chain_stop_masses(3, 3), stop_counts(3, 1, 3000, 3)
    assert masses[0] == Fraction(1, 3)
    assert 1 - sum(masses) == Fraction(2, 3) ** 4  # the tail row dist prints
    for j in range(4):
        assert abs(counts[j] / 3000 - float(masses[j])) < 0.03


def test_census_small_range():
    thetas = dict(enumerate(census_thetas(3, 1, 100, 25), start=1))
    unresolved = [l for l, theta in thetas.items() if theta is None]
    assert squaring_records(3, 1, 100, 25) == [(3, 0), (4, 2), (5, 6), (28, 22)]
    assert unresolved == [1, 2]
    assert sum(stop_counts(3, 1, 100, 25).values()) == 100 - len(unresolved)
    assert thetas[10] == 5


def test_census_respects_lower_bound():
    assert census_thetas(3, 3, 11, 25) == [0, 2, 6, 0, 1, 1, 0, 5, 2]


@pytest.mark.parametrize("d, lo, hi, window", [(1, 1, 5, 25), (3, 0, 5, 25), (3, 7, 5, 25), (3, 1, 5, 0)])
def test_census_rejects_a_bad_range(d, lo, hi, window):
    with pytest.raises(ValueError, match="need d >= 2"):
        census_thetas(d, lo, hi, window)


def test_census_of_the_empty_range_is_empty():
    assert census_thetas(3, 6, 5, 25) == []


def reference_theta(l: int, d: int, window: int) -> int | None:
    """Per-start stopping time: 0 on multiples of d, None below d or above window."""
    if l % d == 0:
        return 0
    if l < d:
        return None
    return step_window_theta(l, d, window)


def reference_records(d: int, lo: int, hi: int, window: int) -> list[tuple[int, int]]:
    """Prefix maxima of reference_theta over lo..hi, each start >= d that
    window leaves unresolved walked again at doubling windows until it stops."""
    out = []
    for l in range(lo, hi + 1):
        theta, w = reference_theta(l, d, window), window
        while theta is None and l >= d:
            w *= 2
            theta = reference_theta(l, d, w)
        if theta is not None and (not out or theta > out[-1][1]):
            out.append((l, theta))
    return out


starts = st.one_of(st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=3000))
lengths = st.one_of(st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=1200))


@given(
    st.integers(min_value=2, max_value=12),
    starts,
    lengths,
    st.integers(min_value=1, max_value=40),
)
@example(4, 1, 1100, 40)
@example(8, 3, 7, 30)
@example(9, 1, 1200, 12)
@example(6, 5, 1200, 25)
@example(12, 11, 1200, 25)
@example(12, 1, 20000, 25)  # classes whose entries dropped split down to level 11
@example(30, 1, 20000, 25)
@example(60, 1, 20000, 25)
@example(11, 1, 141, 1)  # the record (141, 86) lies far past the window
@settings(max_examples=40, deadline=None)
def test_sieve_matches_per_start_reference(d, lo, length, window):
    hi = lo + length - 1
    span = range(lo, hi + 1)
    want = [reference_theta(l, d, window) for l in span]
    assert census_thetas(d, lo, hi, window) == want
    assert squaring_records(d, lo, hi, window) == reference_records(d, lo, hi, window)
    shallow = [reference_theta(l, d, 10) for l in span]
    for depth in range(11):
        assert stop_counts(d, lo, hi, depth) == {j: shallow.count(j) for j in range(depth + 1)}


@given(
    st.one_of(starts, st.integers(min_value=6000, max_value=7148)),
    lengths,
    st.integers(min_value=1, max_value=40),
)
@example(7000, 200, 25)
@settings(max_examples=40, deadline=None)
def test_d3_records_match_per_start_reference(lo, length, window):
    hi = lo + length - 1
    assert squaring_records(3, lo, hi, window) == reference_records(3, lo, hi, 64)


def list_records(d: int, lo: int, hi: int, window: int) -> list[tuple[int, int]]:
    """The per-start record pass: every start's theta from census_thetas, in
    start order, with each unresolved start >= d regrown before it is ranked."""
    records: list[tuple[int, int]] = []
    for l, theta in enumerate(census_thetas(d, lo, hi, window), start=lo):
        if theta is None and l >= d:
            theta = _regrown_theta(l, d, window)
        if theta is not None and (not records or theta > records[-1][1]):
            records.append((l, theta))
    return records


@given(
    st.sampled_from([*range(2, 13), 30, 60]),
    starts,
    st.one_of(st.integers(min_value=1, max_value=13), st.integers(min_value=1, max_value=6000)),
    st.integers(min_value=1, max_value=40),
)
@example(7, 2, 4, 25)  # shorter than d: root classes whose first lies past hi
@example(3, 1, 5000, 1)  # windows 1-3 leave classes live after the last level
@example(3, 2, 5000, 3)
@example(2, 1, 6000, 2)
@example(12, 5, 6000, 3)
@example(60, 1, 59, 40)
@settings(max_examples=40, deadline=None)
def test_records_match_the_per_start_pass(d, lo, length, window):
    hi = lo + length - 1
    assert squaring_records(d, lo, hi, window) == list_records(d, lo, hi, window)


D3_RECORDS_TO_10_7 = [
    (3, 0), (4, 2), (5, 6), (28, 22), (1783, 23), (7148, 30),
    (273223, 31), (398314, 33), (1180939, 36), (1751431, 37),
]


def test_d3_records_to_10_7():
    assert squaring_records(3, 1, 10**7) == D3_RECORDS_TO_10_7


def test_records_name_a_start_unresolved_at_the_cap(monkeypatch):
    assert squaring_records(3, 7000, 7200, window=25)[-1] == (7148, 30)
    monkeypatch.setattr("ceildyn.window.stopping_time_windowed", lambda *a: StoppingReport(theta=None, unresolved_at=28))
    with pytest.raises(ValueError, match=r"start 7148/3 is unresolved at window 28"):
        squaring_records(3, 7000, 7200, window=25)


_true_numerators = chains._numerators


# A step that never drops, and one that is right at the root but never
# drops below it: digit law 1 fails at every d, prime or composite.
@pytest.mark.parametrize(
    "kernel",
    [
        lambda u, d, m: [1] * (m + 1),
        lambda u, d, m: _true_numerators(u, d, m) if m == 0 else [1] * (m + 1),
    ],
)
def test_sieve_requires_exactly_one_dead_child_for_prime_d(kernel, monkeypatch):
    monkeypatch.setattr(chains, "_numerators", kernel)
    for d in (5, 6, 12, 30):
        with pytest.raises(InternalCheckError, match=r"not phi\(e\) of each e"):
            census_thetas(d, 1, 1000, 25)


def test_sieve_rejects_a_child_stopping_before_its_parent(monkeypatch):
    # the root splits truly, then every child of a live class claims to stop at step 1
    monkeypatch.setattr(
        chains,
        "_numerators",
        lambda u, d, m: [0] * (m + 1) if m == 1 else _true_numerators(u, d, m),
    )
    with pytest.raises(InternalCheckError, match=r"class 1 mod 6 \(entry 6\) have entries \[1, 1, 1, 1, 1, 1\]"):
        stop_counts(6, 1, 300, 5)


def walked_split(d, k, c, modulus, dk):
    """Entries k+1 of the dk children of class c mod modulus, each child
    walked k+1 steps from its start modulo d^(k+2), checked against digit
    law 1: the reference for _split's two-walk affine law."""
    mod = d ** (k + 2)
    entries = []
    for u in range(c, c + modulus * dk, modulus):
        for _ in range(k + 1):
            u = u * ((u + d - 1) // d) % mod
        entries.append(d // math.gcd(u, d))
    assert sorted(entries) == chains._phi_law(dk)
    return entries


@given(st.integers(min_value=2, max_value=60), st.lists(st.integers(min_value=0), max_size=9))
@example(7, [0])  # the root alone: entries d/gcd(s, d)
@example(12, [1, 1, 5, 7, 1, 11, 5, 7, 1])
@example(30, [1, 7, 11, 13, 1])
@settings(max_examples=200, deadline=None)
def test_split_matches_the_walk_of_every_child(d, path):
    # split at k = -1, 0, ... (up to 7, or 3 above d = 12) down the path of
    # child indices from the root, until the picked child stops
    c, modulus, dk = 0, 1, d
    for k, pick in enumerate(path[: 9 if d <= 12 else 5], start=-1):
        entries = chains._split(d, k, c, modulus, dk)
        assert entries == walked_split(d, k, c, modulus, dk)
        s = pick % dk
        if entries[s] == 1:
            break
        c, modulus, dk = c + modulus * s, modulus * dk, entries[s]


def test_stop_counts_past_2_to_the_63():
    # [1, 3^40] holds exactly 3^40/step starts of every class the sieve yields
    assert stop_counts(3, 1, 3**40, 5) == {j: m * 3**40 for j, m in enumerate(chain_stop_masses(3, 5))}


def bad_at_size(l: int, d: int, x: int) -> bool:
    """Is the orbit of l/d still fractional when the chain-modulus products
    first pass x?  True iff some m has prod(d_0..d_{m-1}) <= x <
    prod(d_0..d_m) with d_m > 1."""
    if d < 1 or x < 1:
        raise ValueError("need d >= 1 and x >= 1")
    # While the orbit stays fractional the product at least doubles per
    # entry, so it passes x within the first x.bit_length() entries.
    prod = 1
    for dm in chain_of(l, d, x.bit_length() - 1).denominators:
        if dm == 1:
            return False
        prod *= dm
        if prod > x:
            break
    return True


def test_bad_at_size_examples():
    assert bad_at_size(5, 3, 3)
    assert not bad_at_size(3, 2, 4)
    assert not bad_at_size(6, 3, 100)  # integral start is never bad
    assert bad_at_size(1, 3, 5)  # fixed subunit start stays fractional forever


def fraction_bad_at_size(l, d, x):
    """bad_at_size on the exact Fraction orbit: the reference for the windowed chain."""
    cur = Fraction(l, d)
    prod_before = 1
    while True:
        dm = cur.denominator
        prod_incl = prod_before * dm
        if dm > 1 and prod_before <= x < prod_incl:
            return True
        if dm == 1 or prod_before > x:
            return False
        cur = cur * math.ceil(cur)
        prod_before = prod_incl


@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10**4),
)
@example(2**10 + 1, 2, 2**10 - 1)  # the tenth denominator 2 passes x
@example(2**10 + 1, 2, 2**10)  # the orbit turns integral just as it would pass x
@settings(max_examples=150)
def test_bad_at_size_matches_the_exact_orbit(l, d, x):
    assert bad_at_size(l, d, x) == fraction_bad_at_size(l, d, x)


def test_bad_at_size_of_a_deep_orbit():
    # (2^21 + 1)/2 stays fractional for 20 steps; its exact 20th iterate has
    # about 6.3 million digits, which the windowed chain never builds.
    assert bad_at_size(2**21 + 1, 2, 10**6) is True


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=50))
@settings(max_examples=60)
def test_integral_starts_are_never_bad(n, x):
    assert not bad_at_size(3 * n, 3, x)


@pytest.mark.parametrize(
    "d, lo, hi, splits, walks, finishes",
    [
        (3, 1, 100000, 1023, 2046, 1744),
        (12, 20001, 50000, 1848, 3696, 4262),
        (60, 1, 20000, 1313, 2626, 13902),
    ],
)
def test_census_sieve_kernel_calls_are_pinned(d, lo, hi, splits, walks, finishes, monkeypatch):
    # the work the sieve does at W = 25: how it keeps its live classes must not change it
    counts = {"splits": 0, "walks": 0, "finishes": 0}

    def counted(name, kernel):
        def wrapper(*args):
            counts[name] += 1
            return kernel(*args)

        return wrapper

    monkeypatch.setattr(chains, "_split", counted("splits", chains._split))
    monkeypatch.setattr(chains, "_numerators", counted("walks", _true_numerators))
    monkeypatch.setattr(chains, "_window_theta", counted("finishes", chains._window_theta))
    census_thetas(d, lo, hi, 25)
    assert counts == {"splits": splits, "walks": walks, "finishes": finishes}


@pytest.mark.parametrize("d, lo, hi", [(3, 1, 100000), (60, 1, 20000), (7, 1, 3000), (12, 5, 400)])
def test_fixed_starts_are_not_walked(d, lo, hi, monkeypatch):
    # l < d is a fixed point in (0, 1): its theta is None without a finish
    finished = []
    finish = chains._window_theta

    def wrapper(l, d, W):
        finished.append(l)
        return finish(l, d, W)

    monkeypatch.setattr(chains, "_window_theta", wrapper)
    thetas = census_thetas(d, lo, hi, 25)
    assert finished and min(finished) >= d
    assert thetas[: max(d - lo, 0)] == [None] * max(d - lo, 0)


def counted_splits(monkeypatch) -> dict[str, int]:
    counts = {"splits": 0}
    split = chains._split

    def wrapper(*args):
        counts["splits"] += 1
        return split(*args)

    monkeypatch.setattr(chains, "_split", wrapper)
    return counts


@pytest.mark.parametrize("p, k, depth, splits", [(3, 1, 4, 31), (2, 2, 5, 63), (5, 1, 3, 85)])
def test_prefix_tree_splits_are_pinned(p, k, depth, splits, monkeypatch):
    # one split per node of levels 0..depth: the last level's children are counted, not listed
    counts = counted_splits(monkeypatch)
    omega_prefix_tree(p, k, depth)
    assert counts == {"splits": splits}


@pytest.mark.parametrize("l, d, m, splits", [(38, 9, 8, 691), (31, 30, 5, 5449), (9, 7, 4, 1555)])
def test_ap_count_splits_are_pinned(l, d, m, splits, monkeypatch):
    counts = counted_splits(monkeypatch)
    ap_count_for_chain(chain_of(l, d, m))
    assert counts == {"splits": splits}


def traced_peak(call):
    """call() and the peak of the memory traced while it runs, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ap_count_counts_the_last_level_without_listing_it():
    # 46656 starts mod 7^6; listing them as the last level's children peaks above 2 MB
    ap, peak = traced_peak(lambda: ap_count_for_chain(chain_of(9, 7, 5)))
    assert ap.enumerated == ap.predicted == 46656
    assert peak < 1.5e6


def test_records_hold_unresolved_starts_as_progressions():
    # at window 1, 4/9 of the starts are unresolved after the sieve; one key
    # per start peaked near 1.2 MB
    want = squaring_records(3, 1, 20000, 64)
    records, peak = traced_peak(lambda: squaring_records(3, 1, 20000, 1))
    assert records == want
    assert peak < 0.3e6
