"""Every input refusal of the library raises ValueError with its message."""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial

import pytest

from ceildyn.chains import Chain, alpha_d, alpha_d_divisor_form, beta_d, chain_of, squaring_records, stop_counts
from ceildyn.multmaps import (
    conjugate_g,
    exceptional_census,
    exceptional_sieve,
    mahler_witness,
    mult_records,
    sigma_literal,
    sigma_prime,
    stopping_time_mult,
)
from ceildyn.padic import hausdorff_dimension
from ceildyn.rational import factorize, padic_valuation
from ceildyn.squaring import theta_denominator2, trajectory
from ceildyn.window import DigitWindow, log10_of_int, track_magnitude, window_from_rational

REFUSALS = [
    (partial(Chain, 0, (1,)), "chain needs d_start >= 1 and at least one denominator"),
    (partial(chain_of, 1, 0, 1), "need d >= 1 and m >= 0"),
    (partial(alpha_d, 1), "d must be >= 2"),
    (partial(alpha_d_divisor_form, 1), "d must be >= 2"),
    (partial(beta_d, 1), "d must be >= 2"),
    (partial(stop_counts, -3, 1, 10, 5), "the sieve needs d >= 1, lo <= hi + 1 and depth >= 0"),
    (partial(stop_counts, 0, 1, 10, 5), "the sieve needs d >= 1, lo <= hi + 1 and depth >= 0"),
    (partial(stop_counts, 3, 10, 1, 5), "the sieve needs d >= 1, lo <= hi + 1 and depth >= 0"),
    (partial(stop_counts, 3, 1, 10, -1), "the sieve needs d >= 1, lo <= hi + 1 and depth >= 0"),
    (partial(squaring_records, 0, 1, 10), "the sieve needs d >= 1, lo <= hi + 1 and depth >= 0"),
    (partial(stopping_time_mult, Fraction(3, 2), 1, 0), "max_steps must be >= 1"),
    (partial(mult_records, Fraction(3, 2), 1, 5, 0), "max_steps must be >= 1"),
    (partial(exceptional_sieve, conjugate_g(Fraction(3, 2)), 0), "depth_k must be >= 1"),
    (partial(exceptional_census, conjugate_g(Fraction(3, 2)), 0), "census bound x must be >= 1"),
    (partial(sigma_prime, 2, 1), "digit construction needs d >= 3"),
    (partial(sigma_literal, 3, 0), "k must be >= 1"),
    (partial(mahler_witness, 0), "n must be >= 1"),
    (partial(hausdorff_dimension, 4, 1), "need prime p and k >= 1"),
    (partial(padic_valuation, 3, 4), "valuation base must be prime, got 4"),
    (partial(padic_valuation, 0, 3), "valuation of zero is undefined"),
    (partial(factorize, 0), "factorize expects n >= 1"),
    (partial(trajectory, Fraction(3, 2), -1), "max_steps must be >= 0"),
    (partial(theta_denominator2, 0), "l must be >= 1"),
    (partial(DigitWindow, 3, 0, 0), "a window must retain at least one valid digit"),
    (partial(window_from_rational, 5, 3, 0), "window size M must be >= 1"),
    (partial(log10_of_int, 0), "log10_of_int needs n >= 1"),
    (partial(track_magnitude, 1, 0, 3), "magnitude tracking needs d >= 1"),
    (partial(track_magnitude, 3, 2, -1), "steps must be >= 0"),
    (partial(track_magnitude, 3, 2, 1, digit_cap=63), "digit_cap must be >= 64"),
]


@pytest.mark.parametrize(
    "call, message", REFUSALS, ids=[f"{call.func.__name__}-{message}" for call, message in REFUSALS]
)
def test_library_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
