"""Exact rational primitives shared by every engine in the package.

Rationals are stdlib fractions.Fraction values, which already maintain the
canonical form needed everywhere else (lowest terms, positive denominator,
arbitrary precision).  This module adds the handful of number-theoretic
helpers the dynamics code leans on: primality, p-adic valuations, exact
decimal digit counts, and small multiplicative functions.  It also holds
what the window, records and multmaps engines share: StoppingReport, the
result of every stopping-time routine, and prefix_records, the one pass
that turns a start-ordered stream of thetas into a record table.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

_LOG10_2_FLOAT = 0.30102999566398114


class InternalCheckError(AssertionError):
    """A structural invariant the underlying theory guarantees was violated."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24.

    The first thirteen prime bases are exact below 3317044064679887385961981;
    twelve would admit the strong pseudoprime 318665857834031151167461.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(q, p: int) -> int:
    """Exponent of the prime p in q; negative when p divides the denominator."""
    if not is_prime(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero is undefined")

    def vp(n: int) -> int:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return vp(abs(q.numerator)) - vp(q.denominator)


def parse_rational(text: str) -> Fraction:
    """Parse "l/d" or a bare integer; bad text or a zero denominator raise ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def digits10(n: int) -> int:
    """Exact decimal digit count of |n|, by integer comparison (no float log)."""
    n = abs(n)
    if n == 0:
        return 1
    e = max(1, int(n.bit_length() * _LOG10_2_FLOAT))
    while 10 ** e <= n:
        e += 1
    while e > 1 and 10 ** (e - 1) > n:
        e -= 1
    return e


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the desk-scale moduli used here."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(n: int) -> int:
    result = n
    for p in factorize(n):
        result -= result // p
    return result


class StoppingReport(NamedTuple):
    """Either theta is set (with the integer reached, when materialized) or
    unresolved_at records the step/window budget that ran out."""

    theta: int | None
    reached: int | None = None
    digits: int | None = None
    unresolved_at: int | None = None

    @property
    def resolved(self) -> bool:
        return self.theta is not None


def prefix_records(pairs: Iterable[tuple[int, int | None]], resolve) -> list[tuple[int, int]]:
    """(start, theta) at each strict prefix maximum of start-ordered pairs
    (start, theta).  A start paired with None takes resolve(start, best),
    where best is the largest theta before it (-1 at first); resolve may raise.
    """
    records: list[tuple[int, int]] = []
    best = -1
    for start, theta in pairs:
        if theta is None:
            theta = resolve(start, best)
        if theta > best:
            records.append((start, theta))
            best = theta
    return records
