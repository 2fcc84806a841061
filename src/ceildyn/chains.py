"""Denominator chains of approximate squaring orbits and their statistics.

Along an orbit of x -> x*ceil(x) the reduced denominators form a chain
d_0, d_1, ... in which each entry divides its predecessor.  A strict drop
d_{j-1}/d_j > 1 is a break point; a chain is complete once it reaches 1
(the orbit became integral).  This module computes chains, the mixed-radix
digit expansion adapted to a chain, the two digit transition laws, counts
of arithmetic progressions realizing a chain, the density exponents
alpha_d and beta_d, limiting stopping-time distributions, and censuses of
starts by stopping time.

Chains come from _numerators, which steps the numerators of a list of
starts over the fixed denominator d in lockstep, modulo a power of d that
shrinks by d each step; chain_of reads one start's column and raises
InternalCheckError if the entries it computes break divisibility.
verify_digit_laws walks the iterates as Fractions mod shrinking integers
and returns chain_of's chain; it raises InternalCheckError unless that
walk's chain is chain_of's and digit law 1 holds at every step (law 2 holds
for any walk in lowest terms).  No theorem check reports a failure as data.

Censuses, distributions, record scans, progression counts and the p-adic
trees share one chain-prefix sieve.  By the chain theorem, entries 0..m of
the chain of c/d depend only on c mod d*d_0*...*d_(m-1), so a class c mod
M_k = d*d_0*...*d_(k-1) has one entry k, d_k, and splits into d_k children
mod M_k*d_k.  _split reads a level's entries k+1 off one lockstep walk per
chunk and checks digit law 1 at every node: each e | d_k is the entry of
exactly phi(e) children, for every d.  The root is 0 mod 1, entry d.
_stop_classes (census, dist, theta_d3 records) keeps the children with
entry > 1 and settles those with entry 1 (theta = k+1) as whole
progressions, for every integer numerator, since the chain theorem moves a
start by an integer; a live class whose children's modulus passes the
range, the root included, finishes its starts one at a time through
window._window_theta, which counts theta from 0 as the sieve does.
squaring_records ranks only the least start per theta, and certifies each
record with _window_theta, since law 1 never sees the last split's children.
_chain_classes descends along one fixed chain: ap_count_for_chain follows
a chain, padic.omega_prefix_tree the constant chain (p^k, ..., p^k).
chain_stop_masses sums the progression densities over all complete chains
in one pass of a recurrence on the divisors of d instead of listing them,
and checks both the denominator of each mass and their sum.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from ceildyn.rational import InternalCheckError, euler_phi, factorize, prefix_records
from ceildyn.window import _regrown_theta, _window_theta

_ENUMERATE_CAP = 10_000_000  # largest progression modulus ap_count_for_chain sieves
_CHUNK = 1024  # classes per _split walk (of 2048 starts), so a level's walk lists stay small


class Chain(NamedTuple("Chain", [("d_start", int), ("denominators", tuple)])):
    """Reduced denominators (d_0, ..., d_m) of an orbit started over d_start."""

    __slots__ = ()

    def __new__(cls, d_start: int, denominators: tuple[int, ...]):
        if d_start < 1 or not denominators:
            raise ValueError("chain needs d_start >= 1 and at least one denominator")
        prev = d_start
        for d in denominators:
            if d < 1 or prev % d != 0:
                raise ValueError("denominators must divide their predecessors")
            prev = d
        return super().__new__(cls, d_start, denominators)

    @property
    def break_points(self) -> tuple[tuple[int, int], ...]:
        """(j, d_{j-1}/d_j) at every strict drop, with d_{-1} = d_start."""
        out = []
        prev = self.d_start
        for j, d in enumerate(self.denominators):
            if d < prev:
                out.append((j, prev // d))
            prev = d
        return tuple(out)

    @property
    def complete(self) -> bool:
        return self.denominators[-1] == 1


def chain_of(l: int, d: int, m: int) -> Chain:
    """Chain of the first m+1 reduced denominators of the orbit of l/d.
    Entries that break divisibility raise InternalCheckError: the chain
    theorem rules them out, so they mean _numerators is wrong."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    entries = tuple(d // math.gcd(u, d) for u, in _numerators([l], d, m))
    try:
        return Chain(d, entries)
    except ValueError as exc:
        raise InternalCheckError(f"chain of {l}/{d}: {exc}") from None


def mixed_radix_expand(q, chain: Chain, k: int) -> tuple[int, ...]:
    """Digits (a_-1, a_0, a_1, ...) of q at chain position k.

    a_-1 is the numerator mod d_k; the integer part is expanded with radix
    d_{k+j} for digit a_j (the final chain entry repeating past the end).
    When the radices reach 1 the remaining quotient is emitted as a single
    absorbing final digit, so the expansion always reconstructs exactly.
    """
    if not 0 <= k < len(chain.denominators):
        raise ValueError("position k outside the chain")
    q = Fraction(q)
    if q < 0:
        raise ValueError("expansion is defined for nonnegative values")
    dk = chain.denominators[k]
    if q.denominator != dk:
        raise ValueError(
            f"value has denominator {q.denominator} but the chain says {dk} at k={k}"
        )
    last = len(chain.denominators) - 1
    digits = [q.numerator % dk]
    n = q.numerator // dk
    j = 0
    while True:
        radix = chain.denominators[min(k + j, last)]
        if radix == 1:
            digits.append(n)
            break
        digits.append(n % radix)
        n //= radix
        j += 1
        if n == 0:
            break
    return tuple(digits)


def verify_digit_laws(l: int, d: int, m: int) -> Chain:
    """The chain of l/d for m steps, after digit law 1 is checked along it;
    the first step that breaks it raises InternalCheckError.

    Law 1: the denominator drop d_k/d_{k+1} equals gcd(a_0(k)+1, d_k).
    Law 2: the next fractional digit a_-1(k+1) is coprime to d_{k+1}.  It
    holds for the reduced walk by construction: a_-1(k+1) is the numerator,
    mod d_{k+1}, of x_(k+1) in lowest terms, whose denominator is d_{k+1}.

    Both laws read x_k only mod d_k, so the walk holds x_k mod M_k, with
    M_0 = d^(m+1) and M_(k+1) = M_k/d_k: as ceil(x + M*t) = ceil(x) + M*t,
    x*ceil(x) is right mod M/d_k when x is right mod M, and d_k | M_k for
    k <= m.  It shares no code with _numerators, so its denominators check
    chain_of's, and the chain returned is chain_of's.  Every x_k mod M_k is
    nonnegative, so a negative start expands like any other.
    """
    values = [x := Fraction(l, d) % (modulus := d ** (m + 1))]
    for _ in range(m):
        modulus //= x.denominator
        values.append(x := x * math.ceil(x) % modulus)
    chain = chain_of(l, d, m)
    if tuple(v.denominator for v in values) != chain.denominators:
        raise InternalCheckError(f"the chain of {l}/{d} from digit windows is not its exact chain")
    for k, (dk, dk1) in enumerate(zip(chain.denominators, chain.denominators[1:])):
        a0 = mixed_radix_expand(values[k] % dk, chain, k)[1]
        law1 = math.gcd(a0 + 1, dk)
        if law1 != (drop := dk // dk1):
            raise InternalCheckError(f"digit law 1 fails for {l}/{d} at step {k}: "
                                     f"gcd(a0+1, d_k) = {law1} but d_k/d_k+1 = {drop}")
    return chain


class APCount(NamedTuple):
    """Predicted number of arithmetic progressions of starts realizing a
    chain, the modulus those progressions live in, and the number of starts
    c/d, 0 <= c < modulus, whose chain it is, counted on the sieve (None
    when the modulus is above the cap of ap_count_for_chain)."""

    predicted: int
    modulus: int
    enumerated: int | None


def _numerators(starts: list[int], d: int, m: int) -> list[list[int]]:
    """Row j holds the numerator u_j over d of iterate j of u/d, mod
    d^(m+1-j), for every u in starts.  As ceil((u + d^i*t)/d) = ceil(u/d) +
    d^(i-1)*t, a step maps a numerator right mod d^i to one right mod
    d^(i-1), so u_m is right mod d and chain entry j is d/gcd(u_j, d)."""
    mod = d ** (m + 1)
    rows = [row := [u % mod for u in starts]]
    for _ in range(m):
        mod //= d
        rows.append(row := [u * ((u + d - 1) // d) % mod for u in row])
    return rows


@functools.cache
def _phi_law(dk: int) -> list[int]:
    """Sorted child entries digit law 1 allows: phi(e) of each e | dk."""
    return [e for e in range(1, dk + 1) if dk % e == 0 for _ in range(euler_phi(e))]


def _split(d: int, k: int, classes: Iterable[tuple[int, int, int]]) -> Iterator[list[int]]:
    """Yield the entries k+1 of the dk children c + modulus*s, s < dk, of
    each live class (c, modulus, dk) of level k in turn; the root is the
    class 0 mod 1 at k = -1 with entry d.  By digit law 1 entry k+1 is
    dk/gcd(a_0(k) + 1, dk), and a_0(k) runs over every residue mod dk as s
    does, so each e | dk is the entry of exactly phi(e) children (one stops).

    One lockstep walk of children 0 and 1 of _CHUNK classes at a time gives
    every entry: u_(k+1) of child s is a + s*(b - a) mod d, a and b theirs, so
    law 1 is checked once per key (a, b - a, dk); a failure raises
    InternalCheckError naming the first class with that key.  Sketch,
    derived here and not quoted from the paper: with x_j = u_j/d,
    d_j = d/gcd(u_j, d) and c_j = x_j*d_j + d_j*ceil(x_j), moving the start
    by modulus*s/d moves x_j by an integer delta_j = s*(d_j*...*d_(k-1))*Q_j,
    Q_0 = 1.  As ceil(x_j + delta_j) = ceil(x_j) + delta_j, delta_(j+1) =
    delta_j*(x_j + ceil(x_j) + delta_j), so Q_(j+1) = Q_j*c_j +
    s*d_j*(d_j*...*d_(k-1))*Q_j^2.  Each entry divides the one before, so d_k
    divides the second term for j < k, and Q_k = prod c_j (mod d_k).  Then
    u_(k+1) moves by d*delta_(k+1) = u_k*delta_k (mod d), which depends only
    on delta_k = s*Q_k mod d_k.
    """
    checked: dict[tuple[int, int, int], list[int]] = {}  # key -> its entries, law 1 checked
    classes = iter(classes)
    while chunk := list(islice(classes, _CHUNK)):
        last = _numerators([c + modulus * s for s in (0, 1) for c, modulus, _ in chunk], d, k + 1)[-1]
        for (c, modulus, dk), a, b in zip(chunk, last, last[len(chunk):]):
            if (entries := checked.get(key := (a, (b - a) % d, dk))) is None:
                checked[key] = entries = [d // math.gcd(a + s * key[1], d) for s in range(dk)]
                if (got := sorted(entries)) != _phi_law(dk):
                    raise InternalCheckError(f"children of class {c} mod {modulus} (entry {dk}) have "
                                             f"entries {got}, not phi(e) of each e | {dk}")
            yield entries


def _chain_classes(d: int, wants: tuple[int, ...]):
    """Descend the chain-prefix sieve along wants: for k = -1 .. len(wants)-2
    yield the sorted classes c mod d*wants[0]*...*wants[k-1] (the root 0 mod
    1 at k = -1) whose entries 0..k are wants[0..k], and for each class the
    number of its children (_split) whose entry k+1 is wants[k+1].  The last
    level's children are counted, not listed."""
    classes, step, dk = [0], 1, d
    for k, want in enumerate(wants, start=-1):
        split = _split(d, k, ((c, step, dk) for c in classes))
        if k == len(wants) - 2:
            yield classes, [entries.count(want) for entries in split]
            return
        kids, counts = [], []
        for c, entries in zip(classes, split):
            mine = [c + step * s for s, e in enumerate(entries) if e == want]
            kids += mine
            counts.append(len(mine))
        yield classes, counts
        kids.sort()
        classes, step, dk = kids, step * dk, want


def ap_count_for_chain(chain: Chain) -> APCount:
    """Progression count of the chain theorem, beside a count on the sieve.

    predicted is the product of phi(d_j) over the chain, and modulus is
    d * d_0 * ... * d_{m-1} with d = d_start.  enumerated is the number of
    c in [0, modulus) whose chain of c/d equals the given one; it is None
    when the modulus exceeds _ENUMERATE_CAP.

    _chain_classes descends along the chain to its first entry 1, past which
    classes no longer split, and the last level's counts sum to enumerated.
    _split's law-1 check gives each class phi(e) children of entry e, so
    enumerated == predicted is forced, not an independent check; that is
    test_ap_prediction_matches_enumeration, against brute_force_ap_count.
    """
    d, dens = chain.d_start, chain.denominators
    predicted = math.prod(euler_phi(t) for t in dens)
    modulus = d * math.prod(dens[:-1])
    if modulus > _ENUMERATE_CAP:
        return APCount(predicted, modulus, None)
    wants = dens[:1] + tuple(want for dk, want in zip(dens, dens[1:]) if dk > 1)
    for _, counts in _chain_classes(d, wants):  # hold one level at a time
        pass
    return APCount(predicted, modulus, sum(counts))


class AlphaExponent(NamedTuple):
    value: float
    prime: int
    multiplicity: int


def alpha_d(d: int) -> AlphaExponent:
    """Density exponent: minimum of log(1 + 1/(p-1))/(j log p) over the
    prime powers p^j exactly dividing d."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return min(
        (
            AlphaExponent(math.log(1 + 1 / (p - 1)) / (j * math.log(p)), p, j)
            for p, j in factorize(d).items()
        ),
        key=lambda a: a.value,
    )


def alpha_d_divisor_form(d: int) -> float:
    """The same exponent as a minimum of log(d'/phi(d'))/log d' over the
    divisors d' > 1 of d; agrees with alpha_d, kept as a cross-check."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return min(
        math.log(dp / euler_phi(dp)) / math.log(dp) for dp in range(2, d + 1) if d % dp == 0
    )


def beta_d(d: int) -> float:
    """Exceptional-count exponent log(d-1)/log d; zero at d = 2."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return math.log(d - 1) / math.log(d)


# ---------------------------------------------------------------------------
# Limiting stopping-time distribution
# ---------------------------------------------------------------------------


def chain_stop_masses(d: int, depth: int) -> list[Fraction]:
    """Exact limiting masses of stopping times j = 0..depth.  Mass j is the
    sum over the complete chains (d_0, ..., d_j = 1) over d of their
    progression count over their modulus, (1/d) * prod_{i<j} phi(d_i)/d_i.

    One pass of a recurrence on the divisors t > 1 of d sums them:
    G_1(t) = phi(t)/t and G_{k+1}(t) = phi(t)/t * sum of G_k(s) over s | t,
    s > 1, the mass of the chains that start at t and first reach 1 after k
    entries.  Then mass 0 is 1/d and mass j is (1/d) * sum of G_j(t) over
    t | d, t > 1.  Raises InternalCheckError unless each mass j has a
    denominator dividing d^(j+1) and the masses sum to at most 1.
    """
    if d < 1 or depth < 0:
        raise ValueError("need d >= 1 and depth >= 0")
    divisors = [t for t in range(2, d + 1) if d % t == 0]
    density = {t: Fraction(euler_phi(t), t) for t in divisors}
    masses, g = [Fraction(1, d)], density
    for _ in range(depth):
        masses.append(sum(g.values(), Fraction(0)) / d)
        g = {t: density[t] * sum(g[s] for s in divisors if t % s == 0) for t in divisors}
    if any(d ** (j + 1) % mass.denominator for j, mass in enumerate(masses)):
        raise InternalCheckError("stop mass denominator does not divide d^(j+1)")
    if sum(masses) > 1:
        raise InternalCheckError("stop masses exceed total probability 1")
    return masses


# ---------------------------------------------------------------------------
# Census of starts by stopping time, on the chain-prefix sieve
# ---------------------------------------------------------------------------


def _stop_classes(d: int, lo: int, hi: int, depth: int):
    """Yield (first, step, theta) for the starts l/d, lo <= l <= hi: every
    start of range(first, hi + 1, step) has that theta, None where it is
    above depth, and each start is covered exactly once.

    Theta is the first k with entry k of the chain equal to 1.  Level by
    level from the root, the live classes split in one _split call; a child
    with entry 1 stops, and the rest are live at the next level, or yielded
    with None after the last.  A live class whose children's modulus passes the
    range, the root included, finishes its few starts one at a time through
    window._window_theta.  Any integer l will do; 0 < l < d is fixed: None.
    """
    if d < 1 or lo > hi + 1 or depth < 0:
        raise ValueError("the sieve needs d >= 1, lo <= hi + 1 and depth >= 0")
    n = hi - lo + 1
    live = [(0, 1, d)]  # (residue, modulus, entry k) of classes with theta > k
    for k in range(-1, depth):
        for c, modulus, dk in live:
            if modulus * dk > n:
                for l in range(lo + (c - lo) % modulus, hi + 1, modulus):
                    yield l, n, _window_theta(l, d, depth)
        dense, live = [(c, modulus, dk) for c, modulus, dk in live if modulus * dk <= n], []
        for (c, modulus, dk), entries in zip(dense, _split(d, k, dense)):
            child_mod = modulus * dk
            for s, e in enumerate(entries):
                child = c + modulus * s
                if e == 1:
                    yield lo + (child - lo) % child_mod, child_mod, k + 1
                else:
                    live.append((child, child_mod, e))
    for c, modulus, _ in live:
        yield lo + (c - lo) % modulus, modulus, None


def stop_counts(d: int, lo: int, hi: int, depth: int) -> dict[int, int]:
    """Number of starts l/d, lo <= l <= hi, with stopping time j, for j = 0..depth."""
    counts = dict.fromkeys(range(depth + 1), 0)
    for first, step, theta in _stop_classes(d, lo, hi, depth):
        if theta is not None:
            counts[theta] += (hi - first) // step + 1
    return counts


def census_thetas(d: int, lo: int, hi: int, window: int) -> list[int | None]:
    """Stopping times of l/d for lo <= l <= hi, None where above window or
    where 0 < l < d (a fixed start in (0, 1)); lo = hi + 1 is the empty census."""
    if d < 1 or hi < lo - 1 or window < 1:
        raise ValueError("need d >= 1, lo <= hi + 1 and window >= 1")
    n = hi - lo + 1
    out: list[int | None] = [None] * n
    for first, step, theta in _stop_classes(d, lo, hi, window):
        i = first - lo
        out[i::step] = [theta] * len(range(i, n, step))
    return out


def squaring_records(d: int, lo: int, hi: int, window: int = 25) -> list[tuple[int, int]]:
    """Record stopping times (l, theta) of l/d over lo <= l <= hi.

    A record is the least start with its theta, so prefix_records ranks the
    least first per theta of _stop_classes merged in start order with the
    unresolved starts not in (0, d), held as progressions, a stream per step.
    As in successor_records, an unresolved start is regrown from
    max(window, best so far), so a non-record never pays for a window above
    the record.  A _window_theta run at window theta certifies each record.
    """
    least: dict[int, int] = {}  # theta -> least start; a root first can pass hi
    live: dict[int, list[int]] = {}  # step -> least start in range of each unresolved class
    for first, step, theta in _stop_classes(d, lo, hi, window):
        if theta is None:
            live.setdefault(step, []).append(first)
        elif first < least.get(theta, hi + 1):
            least[theta] = first

    def unresolved(step: int, firsts: list[int]):
        # the firsts lie in [lo, lo + step): each shift passes them in order
        firsts.sort()
        for shift in range(0, hi - firsts[0] + 1, step):
            for first in firsts:
                if (l := first + shift) <= hi and not 0 < l < d:
                    yield l, None

    pairs = heapq.merge(sorted((l, theta) for theta, l in least.items()),
                        *(unresolved(*item) for item in live.items()), key=itemgetter(0))
    records = prefix_records(pairs, lambda l, best: _regrown_theta(l, d, max(window, best)))
    for l, theta in records:
        if _window_theta(l, d, theta) != theta:
            raise InternalCheckError(f"record {l}/{d} does not stop after {theta} steps")
    return records

