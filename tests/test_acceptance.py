"""Acceptance gate: one test per headline result, each printing a verdict line.

Every test prints "criterion NN: PASS/FAIL <detail>" before asserting, so a
plain `pytest -v -s tests/test_acceptance.py` doubles as the checklist.  All
fourteen criteria pass.  The magnitude clause of criterion 06 checks the
tracker's enclosure of the 200/199 first integer's digit count against an
independent derivation (exact prefix, then log-log doubling) computed in the
test itself.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

from test_chains import enumerate_stop_mass

from ceildyn.chains import (
    census_thetas,
    chain_stop_masses,
    squaring_records,
    verify_digit_laws,
)
from ceildyn.multmaps import (
    PeriodicallyLinearMap,
    ceiling_map,
    certified_exceptional,
    conjugate_g,
    exceptional_census,
    exceptional_denominator2,
    exceptional_sieve,
    min_depth_for_census,
    sigma_literal,
    sigma_prime,
    stopping_time_mult,
)
from ceildyn.padic import box_dimension_estimate, hausdorff_dimension, omega_prefix_tree
from ceildyn.rational import InternalCheckError, padic_valuation
from ceildyn.squaring import stopping_time_exact, theta_denominator2
from ceildyn.window import stopping_time_windowed, track_magnitude


def _line(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_01_half_integer_table():
    steps, reached = [], []
    for l in range(1, 10):
        rep = stopping_time_exact(Fraction(2 * l + 1, 2))
        steps.append(rep.theta)
        reached.append(rep.reached)
    ok = steps == [1, 2, 1, 3, 1, 2, 1, 4, 1] and reached == [
        3, 60, 14, 268065, 33, 2093, 60, 1204154941925628, 95,
    ]
    assert _line(1, ok, "half-integer starts l=1..9, exact steps and reached values")


def test_criterion_02_closed_form_for_half_integers():
    bad = None
    for l in range(1, 10**4 + 1):
        theta, reached = theta_denominator2(l)
        rep = stopping_time_exact(Fraction(2 * l + 1, 2))
        if theta != padic_valuation(l, 2) + 1 or (theta, reached) != (rep.theta, rep.reached):
            bad = l
            break
    assert _line(2, bad is None, f"closed form vs exact iteration, l <= 10^4 (first mismatch: {bad})")


def test_criterion_03_first_integer_examples():
    a = stopping_time_exact(Fraction(8, 7))
    b = stopping_time_exact(Fraction(6, 5))
    ok = (a.theta, a.reached) == (3, 48) and b.theta == 18 and b.digits == 57735
    assert _line(3, ok, f"8/7 -> 48 in 3 steps; 6/5 stops at 18 with {b.digits} digits")


def test_criterion_04_denominator3_table():
    reps = {l: stopping_time_exact(Fraction(l, 3)) for l in range(3, 12)}
    thetas = [reps[l].theta for l in range(3, 12)]
    ok = (
        thetas == [0, 2, 6, 0, 1, 1, 0, 5, 2]
        and reps[5].reached == reps[10].reached == 1484710602474311520
        and reps[11].reached == 220
    )
    assert _line(4, ok, "thirds table l=3..11: stopping times and repeated reached value")


def test_criterion_05_denominator3_records():
    records = tuple(squaring_records(3, 1, 2000, 25))
    thetas = enumerate(census_thetas(3, 1, 2000, 25), start=1)
    unresolved = tuple(l for l, theta in thetas if theta is None)
    ok = records == ((3, 0), (4, 2), (5, 6), (28, 22), (1783, 23)) and unresolved == (1, 2)
    assert _line(5, ok, f"thirds records to 2000: {records}, unresolved {unresolved}")


SUCCESSOR_RECORDS = (
    (1, 0), (2, 1), (3, 2), (4, 3), (5, 18), (11, 26), (19, 56), (31, 79),
    (37, 200), (67, 225), (149, 388), (199, 1444),
)


def test_criterion_06_successor_records():
    records, best = [], -1
    for d in range(1, 200):
        if d == 1:
            theta = 0
        else:
            theta = stopping_time_windowed(d + 1, d, 64, auto_grow=True).theta
        if theta > best:
            best = theta
            records.append((d, theta))
    ok = tuple(records) == SUCCESSOR_RECORDS
    assert _line(6, ok, "successor-ratio stopping records up to d=199")


def _log10_down(x: Decimal) -> Decimal:
    # Decimal.log10 rounds half-even whatever the context says, so it is off by
    # at most half a unit in the last place; one step down is a lower bound.
    return x.log10().next_minus()


def _log10_up(x: Decimal) -> Decimal:
    return x.log10().next_plus()


def _log10_digit_count_by_doubling(l: int, d: int, n: int, k: int) -> tuple[Decimal, Decimal]:
    """Enclose log10(digit count of x_n) for x -> x*ceil(x) from l/d > 1.

    Independent of log10_of_int and track_magnitude.  The first k steps run
    exactly as u -> u*ceil(u/d) with x_k = u/d, and log10 x_k is bounded from
    the top 256 bits of u at 80 digits.  Each later step is x^2*(1 + e) with
    0 <= e < 1/x, so log10 log10 x_n = (n-k)*log10(2) + log10 log10 x_k + c
    with 0 <= c < 1/(x_k*log10(x_k)*ln(10)^2) < 10^-floor(log10 x_k) once
    log10 x_k > 1.  The digit count D of x_n obeys log10 x_n < D <= log10 x_n + 1,
    which adds less than 1/log10(x_n) to the upper end.
    """
    u = l
    for _ in range(k):
        u *= -(-u // d)
    shift = max(u.bit_length() - 256, 0)
    top = u >> shift  # top * 2^shift <= u < (top + 1) * 2^shift
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 80, ROUND_FLOOR
        log2 = _log10_down(Decimal(2))
        log_xk = _log10_down(Decimal(top)) + shift * log2 - _log10_up(Decimal(d))
        assert log_xk > 1
        lo = (n - k) * log2 + _log10_down(log_xk)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 80, ROUND_CEILING
        log2 = _log10_up(Decimal(2))
        log_xk_hi = _log10_up(Decimal(top + 1)) + shift * log2 - _log10_down(Decimal(d))
        hi = (n - k) * log2 + _log10_up(log_xk_hi)
        hi += Decimal(10) ** -int(log_xk) + Decimal(10) ** -int(lo)
    return lo, hi


# log10(digit count) of the first integer reached from 200/199, pinned to a
# 1e-12-wide interval around 433.99627881734749974.  A digit count of exactly
# 2^1444 would give 1444*log10(2) = 434.687; the orbit's growth constant
# lim log10(x_n)/2^n = 0.2037... = 10^-0.691 takes it down to 433.996.
SUCCESSOR_MAGNITUDE = (Decimal("433.996278817347"), Decimal("433.996278817348"))


def test_criterion_06_successor_magnitude():
    track = track_magnitude(200, 199, steps=1444)
    # track.log10_value is log10 of the integer N = x_1444 itself, within
    # track.error_bound; its digit count D obeys log10 N < D <= log10 N + 1.
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 30, ROUND_FLOOR
        lo = _log10_down(track.log10_value - track.error_bound)
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 30, ROUND_CEILING
        hi = _log10_up(track.log10_value + track.error_bound + 1)
    derived = [_log10_digit_count_by_doubling(200, 199, 1444, k) for k in (10, 12, 14)]
    q = Decimal("1e-25")
    shown = (derived[-1][0].quantize(q, ROUND_FLOOR), derived[-1][1].quantize(q, ROUND_CEILING))
    ok = (
        all(lo <= a and b <= hi for a, b in derived)
        and hi - lo < Decimal("1e-15")
        and SUCCESSOR_MAGNITUDE[0] <= lo
        and hi <= SUCCESSOR_MAGNITUDE[1]
    )
    assert _line(
        6,
        ok,
        f"log10(digit count) of the d=199 first integer: tracker encloses [{lo}, {hi}], "
        f"exact prefix + doubling gives [{shown[0]}, {shown[1]}]",
    )


MULT_RECORDS = (
    (0, 1), (1, 3), (5, 9), (161, 15), (1772, 17), (3097, 18), (3473, 24),
    (23084, 27), (38752, 28), (335165, 30), (491729, 40),
)


def test_criterion_07_mult_table_and_records():
    r = Fraction(4, 3)
    reps = [stopping_time_mult(r, n) for n in range(13)]
    table_ok = [p.theta for p in reps] == [1, 3, 2, 1, 2, 9, 1, 8, 3, 1, 7, 2, 1] and [
        p.reached for p in reps
    ] == [0, 4, 4, 4, 8, 84, 8, 84, 20, 12, 84, 20, 16]
    records, best = [], 0
    for n in range(491730):
        theta = stopping_time_mult(r, n, max_steps=64).theta
        if theta > best:
            best = theta
            records.append((n, theta))
    ok = table_ok and tuple(records) == MULT_RECORDS
    assert _line(7, ok, "4/3 multiplication stopping table n=0..12 and records to 491729")


def test_criterion_08_integer_chase_sets():
    tilde = exceptional_denominator2(ceiling_map(Fraction(3, 2)))
    shifted = exceptional_denominator2(PeriodicallyLinearMap(3, 2, (-2, 1)))
    ok = (
        [(c.value, c.certified) for c in tilde] == [(-1, True)]
        and [(c.value, c.certified) for c in shifted] == [(-1, True), (0, True)]
    )
    assert _line(8, ok, "halving chases: ceiling map gives {-1}, shifted map gives {0, -1}")


def test_criterion_09_digit_laws_sweep():
    bad = None
    try:
        for d in (4, 6, 12):
            for l in range(1, 2001):
                verify_digit_laws(l, d, 10)
    except InternalCheckError as exc:
        bad = str(exc)
    assert _line(9, bad is None, f"digit laws, d in {{4,6,12}}, l <= 2000, 10 steps (violation: {bad})")


def test_criterion_10_sieve_matches_brute_force():
    m = conjugate_g(Fraction(4, 3))
    ok = True
    counts = []
    for j in (1, 2, 3):
        mod = 3 ** (j + 1)
        brute = set()
        for b in range(mod):
            x, alive = b, True
            for _ in range(j):
                x = m.apply(x)
                if x % 3 == 0:
                    alive = False
                    break
            if alive:
                brute.add(b)
        counts.append(len(brute))
        ok = ok and brute == set(exceptional_sieve(m, j))
    ok = ok and counts == [6, 12, 24]
    assert _line(10, ok, f"4/3 sieve vs brute force at depths 1..3, class counts {counts}")


def test_criterion_11_prime_masses_and_enumeration():
    ok, masses = True, chain_stop_masses(3, 6)
    for j in range(7):
        expected = Fraction(1, 3) * Fraction(2, 3) ** j
        ok = ok and masses[j] == expected and enumerate_stop_mass(3, j) == expected
    assert _line(11, ok, "d=3 stopping masses (1/3)(2/3)^j for j=0..6, chains and full enumeration")


def test_criterion_12_restricted_digit_sets():
    from test_multmaps import brute_census, lower_bound_check  # test_multmaps imports this module

    ok = True
    for d in (3, 4, 5):
        g = conjugate_g(Fraction(1, d))
        for k in range(1, 9):
            members = sigma_prime(d, k)
            ok = ok and len(members) == (d - 1) ** k
            for n in members:
                x, clean = n, True
                for _ in range(64):
                    if x == 1:
                        break
                    x = g.apply(x)
                    if x % d == 0:
                        clean = False
                        break
                ok = ok and clean and x == 1
            ok = ok and lower_bound_check(d, d**k)
            if d**k <= 10**4:  # the bound is loose: a census that loses survivors can meet it
                depth = min_depth_for_census(d, d**k) + 3
                census = exceptional_census(g, d**k, depth).survivors
                ok = ok and census == brute_census(g, d**k, depth)
    g3 = conjugate_g(Fraction(1, 3))
    regression = 9 in sigma_literal(3, 3) and not certified_exceptional(g3, 9)
    ok = ok and regression
    assert _line(12, ok, "corrected digit sets: sizes, clean orbits, census lower bound, 9-regression")


def test_criterion_13_padic_branching():
    ok = True
    details = []
    for p, k in ((2, 2), (3, 1), (3, 2), (5, 1)):
        tree = omega_prefix_tree(p, k, 4)
        phi = p**k - p ** (k - 1)
        ok = ok and all(set(row) == {phi} for row in tree.child_counts)
        gap = abs(box_dimension_estimate(tree) - hausdorff_dimension(p, k))
        details.append(f"({p},{k}):{gap:.1e}")
        ok = ok and gap <= 0.02
    assert _line(13, ok, "p-adic trees branch uniformly; box dimension gaps " + " ".join(details))


def test_criterion_14_floor_shift():
    # test_multmaps imports this module
    from test_multmaps import floorcheck_column, fraction_floor_shift_check

    bad = None
    for d in range(1, 9):
        for m, ok in enumerate(floorcheck_column(d, 100, 512), 1):
            if ok != "yes" or fraction_floor_shift_check(d, m, 512) is not True:
                bad = (d, m)
                break
        if bad:
            break
    assert _line(14, bad is None, f"floor/ceiling offset identity, d<=8, m<=100 (violation: {bad})")
