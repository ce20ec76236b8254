"""Negative continued fractions and tight-structure counts for lens spaces.

L(p, q) with p > q > 0 and gcd(p, q) = 1 has a unique expansion

    p/q = a0 - 1/(a1 - 1/(a2 - ... - 1/ak)) =: [a0, ..., ak]

with every term >= 2, obtained by taking ceilings. By the Giroux-Honda
classification, the number of tight contact structures on L(p, q) up to
isotopy is the product (a0 - 1) * ... * (ak - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Sequence

__all__ = [
    "LensSpaceError",
    "LensSpace",
    "NegContFrac",
    "neg_contfrac",
    "eval_neg_contfrac",
    "tight_count",
]


class LensSpaceError(ValueError):
    """The parameters do not describe a lens space L(p, q), p > q > 0 coprime."""


@dataclass(frozen=True)
class LensSpace:
    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise LensSpaceError(f"p, q must be integers, got ({self.p!r}, {self.q!r})")
        if not self.p > self.q > 0:
            raise LensSpaceError(f"need p > q > 0, got (p, q) = ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise LensSpaceError(f"p and q must be coprime, got ({self.p}, {self.q})")

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


@dataclass(frozen=True)
class NegContFrac:
    """Negative continued fraction expansion with all terms >= 2."""

    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def value(self) -> Fraction:
        return eval_neg_contfrac(self.terms)

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.terms) + "]"


def eval_neg_contfrac(terms: Sequence[int]) -> Fraction:
    """Evaluate [a0, ..., ak] = a0 - 1/(a1 - 1/(... - 1/ak))."""
    if not terms:
        raise ValueError("cannot evaluate an empty continued fraction")
    # value of the tail = num/den; prepending a gives a - den/num
    num, den = terms[-1], 1
    for a in reversed(terms[:-1]):
        if num == 0:
            raise ZeroDivisionError("zero tail in continued fraction evaluation")
        num, den = a * num - den, num
    return Fraction(num, den)


def neg_contfrac(lens: LensSpace) -> NegContFrac:
    """Unique all->=2 expansion of p/q, by repeated ceilings.

    With p > q > 0 coprime, a0 = ceil(p/q) >= 2 and the remainder
    (q, a0*q - p) is again a coprime pair with the same shape, so the
    recursion terminates with every term >= 2.
    """
    p, q = lens.p, lens.q
    terms: list[int] = []
    while q > 0:
        a = -(-p // q)
        terms.append(a)
        p, q = q, a * q - p
    return NegContFrac(terms=tuple(terms))


def tight_count(lens: LensSpace) -> int:
    """Number of tight contact structures on L(p, q), per Giroux and Honda."""
    return prod(a - 1 for a in neg_contfrac(lens).terms)
