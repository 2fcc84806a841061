"""Tagged description of which map a computation iterates.

A MapSpec steps "x*ceil(x)", "r*ceil(x)", their floor variants or a
periodically linear integer map exactly, one rational at a time.  No ceildyn
module uses it; bench/run.py imports it on every run, and a traced run wraps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

RATIONAL_KINDS = frozenset({"squaring", "floor_squaring", "mult", "floor_mult", "periodic"})
ABSORBING_KINDS = frozenset({"squaring", "floor_squaring"})


@dataclass(frozen=True)
class MapSpec:
    kind: str
    r: Fraction | None = None
    offsets: tuple[int, ...] | None = None
    p: int | None = None
    pole: int | None = None

    @classmethod
    def squaring(cls) -> "MapSpec":
        return cls("squaring")

    @classmethod
    def floor_squaring(cls) -> "MapSpec":
        return cls("floor_squaring")

    @classmethod
    def mult(cls, r) -> "MapSpec":
        return cls("mult", r=Fraction(r))

    @classmethod
    def floor_mult(cls, r) -> "MapSpec":
        return cls("floor_mult", r=Fraction(r))

    @classmethod
    def periodic(cls, r, offsets) -> "MapSpec":
        return cls("periodic", r=Fraction(r), offsets=tuple(offsets))

    @classmethod
    def padic(cls, p: int, pole: int) -> "MapSpec":
        return cls("padic", p=p, pole=pole)

    def step(self, q) -> Fraction:
        """One application of the tagged map to an exact rational."""
        q = Fraction(q)
        if self.kind == "squaring":
            return q * math.ceil(q)
        if self.kind == "floor_squaring":
            return q * math.floor(q)
        if self.kind == "mult":
            return self.r * math.ceil(q)
        if self.kind == "floor_mult":
            return self.r * math.floor(q)
        if self.kind == "periodic":
            if q.denominator != 1:
                raise ValueError("periodically linear maps act on integers")
            n = q.numerator
            d = self.r.denominator
            return Fraction((self.r.numerator * n + self.offsets[n % d]) // d)
        raise ValueError(f"map kind {self.kind!r} has no exact rational step")
