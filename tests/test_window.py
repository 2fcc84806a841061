"""Digit-window engine and the magnitude tracker for deep orbits."""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceildyn import window
from ceildyn.squaring import StoppingReport, stopping_time_exact
from ceildyn.window import (
    DigitWindow,
    PrecisionExhausted,
    _window_theta,
    log10_of_int,
    step_window,
    stopping_time_windowed,
    successor_records,
    track_magnitude,
    window_from_rational,
)


def test_window_construction_and_properties():
    w = window_from_rational(5, 2, 4)
    assert w.base == 2
    assert w.valid_digits == 5
    assert w.scaled_residue == 5 % 32
    assert not w.integral
    assert window_from_rational(6, 3, 4).integral


def test_window_validation():
    with pytest.raises(ValueError):
        DigitWindow(base=1, scaled_residue=0, valid_digits=3)
    with pytest.raises(ValueError):
        DigitWindow(base=3, scaled_residue=81, valid_digits=2)


def test_stepping_tracks_exact_orbit_mod_window():
    # exact orbit of 5/2 has numerators 5, 15, 120 over denominator 2
    w = window_from_rational(5, 2, 4)
    w1 = step_window(w)
    assert w1.scaled_residue == 15 % 2**4
    w2 = step_window(w1)
    assert w2.scaled_residue == 120 % 2**3
    assert w2.integral


def test_step_requires_two_digits():
    w = DigitWindow(base=3, scaled_residue=2, valid_digits=1)
    with pytest.raises(PrecisionExhausted):
        step_window(w)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=600),
)
@settings(max_examples=80)
def test_windowed_residues_match_exact_numerators(d, l):
    if l <= d or l % d == 0:
        return
    w = window_from_rational(l, d, 8)
    cur = Fraction(l, d)
    for _ in range(6):
        w = step_window(w)
        cur = cur * math.ceil(cur)
        assert d % cur.denominator == 0
        assert (cur.numerator * (d // cur.denominator)) % w.modulus == w.scaled_residue
        if cur.denominator == 1:
            assert w.integral
            break


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=600),
)
@settings(max_examples=80)
def test_windowed_theta_agrees_with_exact(d, l):
    if l < d:
        return
    exact = stopping_time_exact(Fraction(l, d), max_steps=12)
    windowed = stopping_time_windowed(l, d, 13)
    if exact.resolved:
        assert windowed.theta == exact.theta
    else:
        assert windowed.theta is None or windowed.theta > 12


def step_window_theta(u: int, d: int, W: int) -> int | None:
    """theta of u/d in 0..W through validated DigitWindow steps, or None."""
    w = DigitWindow(d, u % d ** (W + 1), W + 1)
    while not w.integral:
        if w.valid_digits < 2:
            return None
        w = step_window(w)
    return w.steps_taken


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10**8),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=150)
def test_window_kernel_matches_step_window(d, u, W):
    assert _window_theta(u, d, W) == step_window_theta(u, d, W)


@given(
    st.integers(min_value=2, max_value=64),
    st.integers(min_value=0, max_value=10**300),
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=300, deadline=None)
@example(d=37, u=38, W=150, limb_bits=6)  # theta 200: limb drops, then the hand-off, then None
@example(d=31, u=32, W=100, limb_bits=5)  # theta 79
@example(d=64, u=64**151 - 1, W=150, limb_bits=7)  # every limb is D - 1, so u + pad carries out of limb 0
@example(d=2, u=3, W=150, limb_bits=1)  # one digit per limb
def test_wide_window_kernel_matches_step_window(d, u, W, limb_bits):
    # limbs of a few bits put windows of a few dozen digits in the wide phase
    with mock.patch.object(window, "_LIMB_BITS", limb_bits):
        assert _window_theta(u, d, W) == step_window_theta(u, d, W)


def test_wide_window_kernel_decides_the_successor_record_at_199():
    assert _window_theta(200, 199, 1444) == 1444
    assert _window_theta(200, 199, 1443) is None


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100)
def test_window_kernel_matches_exact_iteration(d, l, W):
    if l < d:
        return
    assert _window_theta(l, d, W) == stopping_time_exact(Fraction(l, d), max_steps=W).theta


def test_windowed_engine_known_values():
    assert stopping_time_windowed(6, 5, 25).theta == 18
    assert stopping_time_windowed(5, 3, 25).theta == 6
    assert stopping_time_windowed(1783, 3, 25).theta == 23


def test_window_too_small_reports_unresolved():
    rep = stopping_time_windowed(6, 5, 4)
    assert rep.theta is None
    assert rep.unresolved_at == 4


def test_601_is_a_successor_record_past_199():
    # the successor records up to 199 end at (199, 1444); a window of 1444
    # digits decides every start with theta <= 1444, so 602/601 stops later
    rep = stopping_time_windowed(602, 601, 1444)
    assert rep.theta is None
    assert rep.unresolved_at == 1444


def test_auto_grow_resolves_deep_orbits():
    rep = stopping_time_windowed(6, 5, 4, auto_grow=True)
    assert rep.theta == 18


def test_windowed_preconditions():
    with pytest.raises(ValueError):
        stopping_time_windowed(2, 5, 10)  # subunit start, never stops
    with pytest.raises(ValueError):
        stopping_time_windowed(5, 3, 0)  # a window needs at least one step
    assert stopping_time_windowed(6, 3, 10) == StoppingReport(theta=0)  # integral start
    assert stopping_time_windowed(3, 1, 10) == StoppingReport(theta=0)  # d = 1


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=2000),
)
@example(d=1, k=1, M=1)
@example(d=199, k=1, M=1500)  # a window wide enough for the limb phase
@settings(max_examples=100)
def test_integral_starts_have_theta_0(d, k, M):
    assert stopping_time_windowed(k * d, d, M) == StoppingReport(theta=0)


def one_shot_report(l: int, d: int, M: int, auto_grow: bool, max_window: int) -> StoppingReport:
    """Window M first, then doubling up to max_window: no ladder below M."""
    window = M
    while True:
        theta = _window_theta(l, d, window)
        if theta is not None:
            return StoppingReport(theta=theta)
        if not auto_grow or window >= max_window:
            return StoppingReport(theta=None, unresolved_at=window)
        window = min(2 * window, max_window)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=0, max_value=38),
    st.one_of(st.integers(min_value=1, max_value=63), st.integers(min_value=64, max_value=300)),
    st.booleans(),
    st.integers(min_value=0, max_value=900),
)
# (d+1)/d for d = 37, 31 and 19 stops after 200, 79 and 56 steps
@example(37, 1, 0, 256, False, 0)  # rungs 64, 128 fail, M resolves
@example(37, 1, 0, 300, False, 0)  # rungs 75, 150 fail, M resolves
@example(37, 1, 0, 150, True, 750)  # ladder and M fail, growth resolves
@example(37, 1, 0, 150, True, 40)  # unresolved at max_window 190
@example(37, 1, 0, 130, False, 0)  # unresolved at M after a failed rung
@example(31, 1, 0, 200, False, 0)  # rung 100 resolves
@example(19, 1, 0, 128, False, 0)  # the floor rung 64 resolves
@example(19, 1, 0, 127, False, 0)  # below 128 there is no rung
@settings(max_examples=150, deadline=None)
def test_window_ladder_matches_one_shot_reference(d, k, r, M, auto_grow, extra):
    l = k * d + 1 + r % (d - 1)
    max_window = M + extra % (901 - M)
    want = one_shot_report(l, d, M, auto_grow, max_window)
    with mock.patch.object(window, "_MAX_WINDOW", max_window):
        assert stopping_time_windowed(l, d, M, auto_grow) == want


@functools.cache
def successor_theta(d: int) -> int:
    return 0 if d == 1 else one_shot_report(d + 1, d, 64, True, 1 << 20).theta


def reference_successor_records(lo: int, hi: int) -> list[tuple[int, int]]:
    out = []
    for d in range(lo, hi + 1):
        theta = successor_theta(d)
        if not out or theta > out[-1][1]:
            out.append((d, theta))
    return out


@given(
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=0, max_value=149),
    st.integers(min_value=1, max_value=300),
)
@example(1, 149, 64)
@example(30, 120, 1)
@settings(max_examples=40, deadline=None)
def test_successor_records_match_per_start_reference(lo, length, window):
    hi = min(lo + length, 150)
    assert successor_records(lo, hi, window) == reference_successor_records(lo, hi)


def test_successor_records_name_a_start_unresolved_at_the_cap(monkeypatch):
    monkeypatch.setattr(
        "ceildyn.window._window_theta", lambda u, d, W: None if d == 7 else _window_theta(u, d, W)
    )
    with pytest.raises(ValueError, match=r"start 8/7 is unresolved at window 1048576"):
        successor_records(1, 12, 64)


@pytest.mark.parametrize(
    "M, auto_grow, windows",
    [
        (1477, False, [92, 184, 369, 738, 1477]),
        (130, False, [65, 130]),
        (127, False, [127]),
        (100, True, [100, 200, 400, 800, 1600]),
    ],
)
def test_window_ladder_tries_pinned_windows(M, auto_grow, windows, monkeypatch):
    tried = []

    def spy(u, d, W):
        tried.append(W)
        return _window_theta(u, d, W)

    monkeypatch.setattr("ceildyn.window._window_theta", spy)
    stopping_time_windowed(200, 199, M, auto_grow)
    assert tried == windows


@given(st.integers(min_value=1, max_value=10**30))
def test_log10_of_int_accuracy(n):
    approx = log10_of_int(n)
    true = Decimal(n).log10()
    assert abs(approx - true) <= Decimal("1e-12")


def test_log10_of_int_huge():
    n = 10**5000 + 3
    assert abs(log10_of_int(n) - 5000) < Decimal("1e-12")


def test_magnitude_tracker_exact_phase():
    mt = track_magnitude(6, 5, 18)
    assert mt.error_bound == 2 * window._LOG10_INT_ERR  # the run stayed exact
    assert int(mt.log10_value) + 1 == 57735
    reached = stopping_time_exact(Fraction(6, 5), max_steps=20).reached
    true = log10_of_int(reached)
    assert abs(mt.log10_value - true) <= mt.error_bound + Decimal("1e-12")
    assert mt.error_bound < Decimal("1e-9")


def test_magnitude_tracker_windowed_phase_brackets_truth():
    # force the switch to magnitude-only tracking with a small digit cap
    mt = track_magnitude(6, 5, 18, digit_cap=1000)
    assert mt.error_bound > 2 * window._LOG10_INT_ERR  # the doubling phase ran
    reached = stopping_time_exact(Fraction(6, 5), max_steps=20).reached
    true = log10_of_int(reached)
    assert abs(mt.log10_value - true) <= mt.error_bound
    assert mt.error_bound < Decimal("1e-6")


def test_magnitude_tracker_deep_run_interval_is_tight():
    mt = track_magnitude(200, 199, 1444)
    # relative error of log10(value) stays tiny even though the absolute
    # error is astronomically large
    assert mt.error_bound / mt.log10_value < Decimal("1e-15")


@pytest.mark.parametrize(
    "l, d, steps", [(7**100 + 1, 7**100, 14), (10**80 + 1, 10**80, 16)], ids=["d=7^100", "d=10^80"]
)
def test_magnitude_tracker_bound_holds_at_large_denominators(l, d, steps):
    # the switch to doubling waits for the iterate u/d, not its numerator u, to pass the cap
    mt = track_magnitude(l, d, steps, digit_cap=64)
    assert mt.error_bound > 2 * window._LOG10_INT_ERR  # the doubling phase ran
    u = l
    for _ in range(steps):
        u *= -(-u // d)
    with localcontext() as ctx:
        ctx.prec = 80
        true = (Decimal(u) / Decimal(d)).log10()
    assert abs(mt.log10_value - true) <= mt.error_bound
