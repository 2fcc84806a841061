"""Base-d digit-window engine for deep iteration of x*ceil(x).

A start l/d keeps denominator dividing d forever, so every iterate is u/d
for an integer u.  Integrality of the iterate is u = 0 (mod d), and the
ceiling needed for one more step is recoverable from u mod d.  The engine
therefore tracks only u modulo d^W.  Each step multiplies by a quantity
known one digit less precisely, so a window of W valid digits supports
W - 1 steps; the valid_digits counter enforces that bookkeeping rather
than trusting any a-priori bound on the stopping time.

DigitWindow and step_window are the validated single-step API.  Scans run
the same steps on bare ints through _window_theta, the kernel for the
first integral iterate of u -> u*ceil(u/d) mod d^W, counted from k = 0 as
in squaring, so an integral start and d = 1 give theta 0.  It returns
theta from the residue u mod d^(W+1) alone: stopping_time_windowed calls
it, so does the chain-prefix sieve in chains, to finish one at a time the
starts of classes too sparse in the range to split, and so does the
print-limit look-ahead of squaring.trajectory, which is why this module
imports only rational.  At thousands of digits, dividing each step's
double-length product by d^W would cost more than the product, so a wide
window runs in limbs of d^s, about 1024 bits each: a step builds only the
limb products below the valid precision, carries each limb by one divmod
by d^s, and drops the top limb once it holds no valid digit.  That is exact: garbage digits above the precision never
reach below it (see _window_theta), the bookkeeping step_window does with
valid_digits.  Below a few limbs the run finishes on one int.

Since theta depends only on u mod d^(theta+1), every window W >= theta
gives the same answer, so stopping_time_windowed treats its window as a
budget rather than a fixed precision: it tries the halving ladder M>>j
(down to a floor of 64 digits) in ascending order before M itself.  Its
cost follows theta, not M, and its output does not depend on the rungs.
successor_records and chains.squaring_records rank their starts through
rational.prefix_records, regrowing each start their window leaves
unresolved through _regrown_theta, which runs it with auto_grow and raises
the one "start l/d is unresolved at window W" error.

track_magnitude reports log10 of a deep iterate with a rigorous error
bound: it iterates exactly until the iterate, not its numerator, passes a
digit cap; then log10 x_{k+1} = log10 x_k + log10 ceil(x_k) collapses to
doubling, as log10(ceil(x)/x) <= log10(1 + 1/x) is below any representable
tolerance.  The truncated ceiling corrections and the log extraction
error are both folded into the reported bound.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from operator import mul
from typing import NamedTuple

from ceildyn.rational import StoppingReport, prefix_records


# Smallest rung of stopping_time_windowed's halving ladder, and the cap on
# its auto_grow window, in digits.
_LADDER_FLOOR = 64
_MAX_WINDOW = 1 << 20
# _window_theta's wide phase: bits per limb, and the fewest limbs it steps.
# At d = 199 one step at W = 1500 takes 433 us on one int and 182 us in
# limbs (CPython 3.11); near 4 limbs (W = 400-500) the two break even.
_LIMB_BITS = 1024
_WIDE_LIMBS = 4


class PrecisionExhausted(Exception):
    """A digit window has too few valid digits to do what was asked."""


class DigitWindow(NamedTuple("DigitWindow", [("base", int), ("scaled_residue", int),
                                             ("valid_digits", int), ("steps_taken", int)])):
    __slots__ = ()

    def __new__(cls, base: int, scaled_residue: int, valid_digits: int, steps_taken: int = 0):
        if base < 2:
            raise ValueError("base must be >= 2")
        if valid_digits < 1:
            raise ValueError("a window must retain at least one valid digit")
        if not 0 <= scaled_residue < base ** valid_digits:
            raise ValueError("scaled residue outside the window modulus")
        return super().__new__(cls, base, scaled_residue, valid_digits, steps_taken)

    @property
    def modulus(self) -> int:
        return self.base ** self.valid_digits

    @property
    def integral(self) -> bool:
        return self.scaled_residue % self.base == 0  # digit a_{-1} of u/d


def window_from_rational(l: int, d: int, M: int) -> DigitWindow:
    """Window for the start l/d holding M+1 valid base-d digits of the numerator."""
    if M < 1:
        raise ValueError("window size M must be >= 1")
    if l < 1:
        raise ValueError("numerator must be >= 1")
    return DigitWindow(d, l % d ** (M + 1), M + 1)


def step_window(w: DigitWindow) -> DigitWindow:
    """One application of x -> x*ceil(x) to the windowed value u/d.

    ceil(u/d) = (u + ((d - u mod d) mod d)) / d is exact from the residue;
    the product u*ceil is then valid one digit shorter.
    """
    if w.valid_digits < 2:
        raise PrecisionExhausted(
            f"window of {w.valid_digits} digit(s) cannot absorb another step"
        )
    d = w.base
    u = w.scaled_residue
    pad = (d - u % d) % d
    c = (u + pad) // d
    mod = d ** (w.valid_digits - 1)
    return DigitWindow(d, u * c % mod, w.valid_digits - 1, w.steps_taken + 1)


def stopping_time_windowed(l: int, d: int, M: int, auto_grow: bool = False) -> StoppingReport:
    """Stopping time of l/d without materializing the iterates.

    Needs d >= 1 and a start l/d >= 1; an integral start has theta 0.  The
    reached integer is never materialized, so a resolved report carries
    theta only.  M is a budget: the windows M>>j >= 64 are tried first,
    smallest first, then M, and the first that resolves answers.  Every
    window >= theta gives the same theta, so the result is the one M alone
    would give, at the cost of a window near theta.  With auto_grow the
    window then doubles and the run restarts until resolution (or the
    _MAX_WINDOW safety cap, since termination is conjectural in general);
    unresolved_at is the last window tried.
    """
    if d < 1 or l < d:
        raise ValueError("windowed engine needs a start l/d >= 1")
    if M < 1:
        raise ValueError("window size M must be >= 1")
    rung = max((M // _LADDER_FLOOR).bit_length() - 1, 0)  # window = M >> rung
    window = M >> rung
    while (theta := _window_theta(l, d, window)) is None:
        if rung:
            rung -= 1
            window = M >> rung
        elif auto_grow and window < _MAX_WINDOW:
            window = min(2 * window, _MAX_WINDOW)
        else:
            return StoppingReport(theta=None, unresolved_at=window)
    return StoppingReport(theta=theta)


def successor_records(lo: int, hi: int, window: int) -> list[tuple[int, int]]:
    """Record stopping times (d, theta) of the successor ratios (d+1)/d, lo <= d <= hi.

    Each start runs with auto_grow from the budget max(window, best so far):
    a start is a record exactly when that budget leaves it unresolved, so a
    non-record never pays for a window above the record.  A start still
    unresolved at the auto_grow cap raises ValueError naming it.
    """
    return prefix_records(((d, None) for d in range(lo, hi + 1)),
                          lambda d, best: _regrown_theta(d + 1, d, max(window, best)))


def _regrown_theta(l: int, d: int, window: int) -> int:
    """Theta of l/d from stopping_time_windowed with auto_grow, starting at
    window; a start still unresolved at the cap raises ValueError naming it."""
    report = stopping_time_windowed(l, d, window, True)
    if report.theta is None:
        raise ValueError(f"start {l}/{d} is unresolved at window {report.unresolved_at}")
    return report.theta


def _window_theta(u: int, d: int, W: int) -> int | None:
    """First k in 0..W at which the k-th iterate u_k/d of u/d is integral,
    or None; 0 when d divides u.

    Uses u mod d^(W+1) only: step k takes u mod d^(W+2-k) to
    u*ceil(u/d) = u*(u + pad)/d mod d^(W+1-k), pad = -u mod d, as
    step_window does.  While the P valid digits fill _WIDE_LIMBS or more
    limbs of s = _LIMB_BITS // bits(d) digits, a step holds the residue as
    limbs of D = d^s: it forms positions 0..L-1 of u*(u + pad) from about
    L^2/4 limb products (squaring counts each cross product once), carries
    each position by one divmod by D, and shifts the limbs down one base-d
    digit.  This is exact: the top limb's digits at or above P are garbage,
    but garbage never reaches below P, since the dropped products are
    multiples of D^L, so of d^P, and the shift that divides by d lowers the
    garbage and the precision together.  A top limb left with no valid digit
    is dropped.  Below _WIDE_LIMBS limbs, or from the start for a narrower
    window, the plain loop on one int finishes the run.
    """
    if u % d == 0:
        return 0
    mod = d**W
    u %= mod * d
    k = 0
    if W * d.bit_length() >= (_WIDE_LIMBS - 1) * _LIMB_BITS:
        s = max(_LIMB_BITS // d.bit_length(), 1)
        D = d**s
        x = []
        for _ in range(W // s):
            u, r = divmod(u, D)
            x.append(r)
        x.append(u)
        while (L := len(x)) >= _WIDE_LIMBS:
            k += 1
            pad = -x[0] % d
            rx = x[::-1]
            y = []  # a comprehension reading d would slow the plain loop below (d a cell variable)
            carry = 0
            for j in range(L):  # position j of x*(x + pad) mod D^L, shifted down a digit into y
                h = (j + 1) // 2
                v = 2 * sum(map(mul, x[:h], rx[L - 1 - j:L - 1 - j + h])) + pad * x[j] + carry
                if j % 2 == 0:
                    v += x[h] * x[h]
                carry, v = divmod(v, D)
                if j:
                    y.append(low // d + v % d * (D // d))
                low = v
            x = y + [low // d]
            if (W + 1 - k) % s == 0:  # the top limb holds no valid digit
                x.pop()
            if x[0] % d == 0:
                return k
        u = 0
        for limb in reversed(x):
            u = u * D + limb
        mod = d ** (W - k)
    for k in range(k + 1, W + 1):
        u = u * ((u + d - 1) // d) % mod
        if u % d == 0:
            return k
        mod //= d
    return None


_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146211")
_LOG10_INT_ERR = Decimal("1e-12")  # conservative absolute bound for log10_of_int


def log10_of_int(n: int) -> Decimal:
    """log10 of a positive integer of any size, accurate to ~1e-14 absolute."""
    if n <= 0:
        raise ValueError("log10_of_int needs n >= 1")
    bits = n.bit_length()
    if bits <= 64:
        return Decimal(repr(math.log10(n)))
    top = n >> (bits - 64)
    with localcontext() as ctx:
        ctx.prec = 60
        return +(Decimal(repr(math.log10(top))) + (bits - 64) * _LOG10_2)


class MagnitudeTracker(NamedTuple):
    """log10 of an iterate together with an absolute error bound on that log."""

    log10_value: Decimal
    error_bound: Decimal


def track_magnitude(l: int, d: int, steps: int, digit_cap: int = 100_000) -> MagnitudeTracker:
    """log10 of x_steps = u/d, the iterate of x -> x*ceil(x) from l/d after `steps` steps.

    log10_value is log10 of the iterate itself, not of its digit count.
    error_bound is an absolute bound on |log10_value - log10 x_steps|; it
    covers the log extraction and, past digit_cap, the dropped ceiling
    corrections amplified by the doubling.
    """
    if d < 1 or l < d:
        raise ValueError("magnitude tracking needs a start l/d >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if digit_cap < 64:
        raise ValueError("digit_cap must be >= 64")
    bit_cap = int(digit_cap * 3.3219280948873626) + 64
    u = l
    done = 0
    while done < steps and u.bit_length() - d.bit_length() <= bit_cap:
        u = u * (-(-u // d))
        done += 1
    with localcontext() as ctx:
        ctx.prec = 60
        log_now = +(log10_of_int(u) - log10_of_int(d))
        if done == steps:
            return MagnitudeTracker(log_now, 2 * _LOG10_INT_ERR)
        rest = steps - done
        amp = Decimal(2) ** rest
        value = +(log_now * amp)
        # x = u/d > 2^bit_cap > 10^digit_cap for any d; every dropped
        # ceiling correction is below 10^-(digit_cap - 12) and gets
        # amplified by at most 2^rest.
        ceil_slack = amp * Decimal(10) ** -(digit_cap - 12)
        err = +(amp * (2 * _LOG10_INT_ERR) + ceil_slack)
        return MagnitudeTracker(value, err)
