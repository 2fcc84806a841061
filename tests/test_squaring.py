"""Exact orbits of x*ceil(x): trajectories, stopping times, the half-integer closed form."""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceildyn import squaring
from ceildyn.rational import digits10, padic_valuation
from ceildyn.squaring import (
    StoppingReport,
    stopping_time_exact,
    theta_denominator2,
    trajectory,
)

starts = st.builds(
    Fraction, st.integers(min_value=2, max_value=400), st.integers(min_value=1, max_value=12)
).filter(lambda q: q > 1)


def test_trajectory_of_8_sevenths():
    t = trajectory(Fraction(8, 7))
    assert t.values() == [Fraction(8, 7), Fraction(16, 7), Fraction(48, 7), Fraction(48)]
    assert not t.truncated
    assert [v.denominator for v in t.values()] == [7, 7, 7, 1]


def test_trajectory_integral_start_is_absorbing():
    t = trajectory(Fraction(9))
    assert t.values() == [Fraction(9)]
    assert not t.truncated


def test_trajectory_respects_step_budget():
    t = trajectory(Fraction(6, 5), max_steps=5)
    assert t.truncated
    assert t.values()[-1] == Fraction(55808064, 5)


@given(starts)
@settings(max_examples=60)
def test_trajectory_denominators_divide_downward(q):
    dens = [v.denominator for v in trajectory(q, max_steps=8).values()]
    for a, b in zip(dens, dens[1:]):
        assert a % b == 0


def test_known_small_stopping_times():
    assert stopping_time_exact(Fraction(5, 2)).theta == 2
    assert stopping_time_exact(Fraction(5, 2)).reached == 60
    assert stopping_time_exact(Fraction(8, 7)).reached == 48
    assert stopping_time_exact(Fraction(17)).theta == 0


def test_six_fifths_reaches_a_57735_digit_integer():
    rep = stopping_time_exact(Fraction(6, 5), max_steps=20)
    assert rep.theta == 18
    assert rep.digits == 57735


def test_subunit_starts_are_rejected():
    with pytest.raises(ValueError):
        stopping_time_exact(Fraction(2, 3))


def test_budget_exhaustion_reports_unresolved():
    rep = stopping_time_exact(Fraction(6, 5), max_steps=5)
    assert rep.theta is None
    assert not rep.resolved
    assert rep.unresolved_at == 5


def test_half_integer_table():
    expected = [
        (1, 3),
        (2, 60),
        (1, 14),
        (3, 268065),
        (1, 33),
        (2, 2093),
        (1, 60),
        (4, 1204154941925628),
        (1, 95),
    ]
    assert [theta_denominator2(l) for l in range(1, 10)] == expected


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=80)
def test_half_integer_closed_form_matches_iteration(l):
    theta, reached = theta_denominator2(l)
    assert theta == padic_valuation(l, 2) + 1
    rep = stopping_time_exact(Fraction(2 * l + 1, 2), max_steps=theta)
    assert (rep.theta, rep.reached) == (theta, reached)


@given(starts)
@settings(max_examples=60)
def test_stopping_report_is_consistent_with_trajectory(q):
    rep = stopping_time_exact(q, max_steps=10)
    t = trajectory(q, max_steps=10)
    if rep.resolved:
        assert t.values()[rep.theta] == rep.reached
        assert all(v.denominator > 1 for v in t.values()[: rep.theta])
    else:
        assert t.truncated


def _fraction_walk(q: Fraction, max_steps: int):
    """The exact walk on Fractions, checking each built numerator against the
    print limit: the reference for trajectory's limit on the factors' sizes.
    Yields the iterates after q."""
    limit = squaring._MAX_STR_DIGITS * math.log2(10) + 1
    cur = q
    for k in range(1, max_steps + 1):
        if cur.denominator == 1:
            return
        nxt = cur * math.ceil(cur)
        assert cur.denominator % nxt.denominator == 0
        if nxt.numerator.bit_length() > limit:
            raise ValueError(f"step {k} of {q} passes the {squaring._MAX_STR_DIGITS}-digit limit")
        yield nxt
        cur = nxt


def _outcome(walk, *args):
    try:
        return walk(*args)
    except ValueError as exc:
        return str(exc)


@given(
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_print_limit_stops_where_the_fraction_walk_does(l, d, max_steps, data):
    q = Fraction(l, d)
    # besides any limit, the two limits around each numerator that fits in 300
    # digits: the smaller stops the walk there, the larger lets it pass
    edges = []
    with patch.object(squaring, "_MAX_STR_DIGITS", 300), contextlib.suppress(ValueError):
        for v in _fraction_walk(q, max_steps):
            edges += [int((v.numerator.bit_length() - 1) / math.log2(10)) + e for e in (0, 1)]
    edges = [digits for digits in edges if 5 <= digits <= 300] or [5]
    digits = data.draw(st.integers(min_value=5, max_value=300) | st.sampled_from(edges))
    with patch.object(squaring, "_MAX_STR_DIGITS", digits):
        expected = _outcome(lambda: list(_fraction_walk(q, max_steps)))
        assert _outcome(lambda: trajectory(q, max_steps).steps) == expected
        if q < 1 and q.denominator > 1:
            with pytest.raises(ValueError, match="needs q > 1"):
                stopping_time_exact(q, max_steps)
            return
        report = _outcome(stopping_time_exact, q, max_steps)
    if isinstance(expected, str):
        assert report == expected
    elif (last := [q, *expected][-1]).denominator > 1:
        assert report == StoppingReport(theta=None, unresolved_at=max_steps)
    else:
        n = last.numerator
        assert report == StoppingReport(theta=len(expected), reached=n, digits=digits10(n))


@pytest.mark.parametrize("l,d,digits", [(125, 7, 5), (316, 3, 8), (175, 3, 14), (37, 3, 141)])
def test_print_limit_admits_an_integer_the_size_bound_meets_exactly(l, d, digits):
    # the integer reached has exactly the bound's bit count, and the limit lies
    # less than one bit above it: a bound one bit larger would stop the walk
    q = Fraction(l, d)
    with patch.object(squaring, "_MAX_STR_DIGITS", digits):
        steps = trajectory(q, 32).steps
        assert steps == list(_fraction_walk(q, 32))
    assert steps[-1].denominator == 1


@pytest.mark.parametrize(
    "walk,err",
    [
        (lambda: trajectory(Fraction(-200, 199), 32), "step 25 of -200/199"),
        (lambda: trajectory(Fraction(200, 199), 32), "step 24 of 200/199"),
    ],
    ids=["traj-minus-200/199", "traj-200/199"],
)
def test_print_limit_is_named_before_the_large_numerators_are_built(walk, err):
    # digits double per step, so a walk that built the numerators up to the
    # limit would pass limit/2 bits; the look-ahead stops it far below that
    built = []

    def recording_fraction(*args):
        value = Fraction(*args)
        built.append(value.numerator.bit_length())
        return value

    with patch.object(squaring, "Fraction", recording_fraction):
        with pytest.raises(ValueError, match=f"^{err} passes the 2000000-digit limit$"):
            walk()
    assert max(built) <= (squaring._MAX_STR_DIGITS * math.log2(10) + 1) / 16


def test_print_limit_past_max_steps_leaves_the_walk_truncated():
    # under a 300-digit limit the numerator of 200/199 first passes it at step 11
    with patch.object(squaring, "_MAX_STR_DIGITS", 300):
        t = trajectory(Fraction(200, 199), 10)
        assert (len(t.steps), t.truncated) == (10, True)
        with pytest.raises(ValueError, match="^step 11 of 200/199 passes the 300-digit limit$"):
            trajectory(Fraction(200, 199), 11)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=200), st.data())
@settings(max_examples=200, deadline=None)
def test_theta2_stops_at_the_print_limit_where_the_half_integer_walk_does(v, k, data):
    l = (2 * k + 1) << v
    q = Fraction(2 * l + 1, 2)
    # x = n/2 steps to (n/2)((n+1)/2) = (n(n+1)/2)/2 while n is odd; the
    # reduced numerator is n, and n/2 at step v + 1, where n is first even
    ns = [2 * l + 1]
    for _ in range(v + 1):
        ns.append(ns[-1] * (ns[-1] + 1) // 2)
    assert [n % 2 for n in ns] == [1] * (v + 1) + [0]
    nums = [*ns[1:-1], ns[-1] // 2]
    # besides any limit, the two limits around each numerator that fits in 300 digits
    edges = [int((n.bit_length() - 1) / math.log2(10)) + e for n in nums for e in (0, 1)]
    edges = [digits for digits in edges if 5 <= digits <= 300] or [5]
    digits = data.draw(st.integers(min_value=5, max_value=300) | st.sampled_from(edges))
    limit = math.floor(digits * math.log2(10) + 1)  # the most bits a printed numerator may have
    over = next((j for j, n in enumerate(nums, 1) if n.bit_length() > limit), None)
    expected = (v + 1, nums[-1])
    if over is not None:
        expected = f"step {over} of {q} passes the {digits}-digit limit"
    with patch.object(squaring, "_MAX_STR_DIGITS", digits):
        assert _outcome(theta_denominator2, l) == expected


def test_stopping_report_resolved_property():
    assert StoppingReport(theta=3).resolved
    assert not StoppingReport(theta=None, unresolved_at=7).resolved
