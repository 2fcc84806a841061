"""Arithmetic primitives: primality, valuations, parsing, digit counts, multiplicative helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ceildyn.rational import (
    digits10,
    euler_phi,
    factorize,
    is_prime,
    padic_valuation,
    parse_rational,
)

nonzero_ints = st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n != 0)
rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), nonzero_ints)


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@given(st.integers(min_value=-10, max_value=20000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == _trial_division_prime(n)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_rejects_the_strong_pseudoprime_to_bases_2_through_37():
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)


def test_padic_valuation_known_values():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(Fraction(1, 8), 2) == -3
    assert padic_valuation(Fraction(9, 4), 3) == 2


@given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
def test_padic_valuation_is_additive(q1, q2, p):
    if q1 == 0 or q2 == 0:
        return
    assert padic_valuation(q1 * q2, p) == padic_valuation(q1, p) + padic_valuation(q2, p)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(str(q)) == q


@given(st.integers(min_value=0, max_value=10**40))
def test_digits10_matches_string_length(n):
    assert digits10(n) == len(str(n))


@pytest.mark.parametrize("e", [1, 2, 5, 10, 100, 1000])
def test_digits10_power_boundaries(e):
    assert digits10(10**e - 1) == e
    assert digits10(10**e) == e + 1


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    product = 1
    for p, a in factorize(n).items():
        assert is_prime(p)
        assert a >= 1
        product *= p**a
    assert product == n


def test_euler_phi_known_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@given(st.integers(2, 300), st.integers(2, 300))
def test_euler_phi_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
