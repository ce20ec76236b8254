"""Surgery-diagram families realising tight structures on L(n*s^2-s+1, s^2).

For n >= 2, s >= 1 the lens space L(n*s^2-s+1, s^2) is (-(n*s^2-s+1))-
surgery on the negative torus knot T(s, -(sn-1)). Its tight contact
structures split into two camps:

* ``standard_realizations``: the Legendrian realisations of the torus
  knot with maximal tb = -s(sn-1) in the tight three-sphere (counted by
  Etnyre-Honda), 2(n-1) of them for s >= 2 and n-1 unknots for s = 1;
* ``exceptional_diagram``: one explicit (s+3)-component surgery diagram
  per stabilization choice (k, l, p_stab, q_stab), carrying the torus
  knot as a distinguished knot L in an overtwisted three-sphere. The
  (s-1)(n-1) choices supply the remaining tight structures.

``exceptional_expectations`` packages the closed forms for the family
(c^2, d3 of the ambient sphere, tb after surgery, Euler residue) that
the generic pipeline must reproduce; ``census`` assembles the full list
of structures for one (n, s) and checks it against the Giroux-Honda
count; ``distinctness_bounds`` evaluates the integer inequalities that
force all the Euler residues apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import invariants
from .diagram import DistinguishedKnot, LegendrianComponent, SurgeryDiagram, promote_knot
from .lens import LensSpace, tight_count

__all__ = [
    "FamilyParamsError",
    "FamilyParams",
    "StandardRealization",
    "ExceptionalExpectations",
    "StandardClass",
    "ExceptionalClass",
    "TightStructureCensus",
    "DistinctnessBounds",
    "standard_rot_range",
    "standard_realizations",
    "family_params_grid",
    "exceptional_diagram",
    "surgered_diagram",
    "exceptional_x_vector",
    "exceptional_expectations",
    "standard_diagram",
    "census",
    "distinctness_bounds",
]


class FamilyParamsError(ValueError):
    """Parameters outside the family's range."""


@dataclass(frozen=True)
class FamilyParams:
    """Stabilization data for one exceptional realisation.

    (k, l) counts the two kinds of zigzags on the top unknot and must
    satisfy k + l = n - 2; (p_stab, q_stab) does the same on the
    -(s+1)-framed component with p_stab + q_stab = s - 1 and q_stab >= 1.
    """

    n: int
    s: int
    k: int
    l: int
    p_stab: int
    q_stab: int

    def __post_init__(self):
        if self.n < 2 or self.s < 2:
            raise FamilyParamsError(f"need n >= 2 and s >= 2, got n={self.n}, s={self.s}")
        if self.k < 0 or self.l < 0 or self.k + self.l != self.n - 2:
            raise FamilyParamsError(
                f"(k, l) = ({self.k}, {self.l}) must be nonnegative with k + l = n - 2")
        if self.p_stab < 0 or self.q_stab < 1 or self.p_stab + self.q_stab != self.s - 1:
            raise FamilyParamsError(
                f"(p_stab, q_stab) = ({self.p_stab}, {self.q_stab}) must satisfy "
                "p_stab >= 0, q_stab >= 1, p_stab + q_stab = s - 1")

    @property
    def lens_order(self) -> int:
        return self.n * self.s * self.s - self.s + 1

    def __str__(self) -> str:
        return (f"n={self.n} s={self.s} k={self.k} l={self.l} "
                f"pstab={self.p_stab} qstab={self.q_stab}")


def family_params_grid(n: int, s: int) -> Iterator[FamilyParams]:
    """All (s-1)(n-1) stabilization choices for fixed n >= 2, s >= 2."""
    for k in range(n - 1):
        for q_stab in range(1, s):
            yield FamilyParams(n=n, s=s, k=k, l=n - 2 - k,
                               p_stab=s - 1 - q_stab, q_stab=q_stab)


@dataclass(frozen=True)
class StandardRealization:
    """A maximal-tb Legendrian torus knot in the tight three-sphere."""

    tb: int
    rot: int


def standard_rot_range(n: int, s: int) -> tuple[int, ...]:
    """Rotation numbers of the maximal-tb realisations of T(s, -(sn-1)).

    For s >= 2 (Etnyre-Honda) the 2(n-1) values are -(n-1)s+1 and
    (n-1)s-1 at the ends with pairs j*s +/- 1 in between; for s = 1 the
    torus knot is the unknot and the n-1 values step by 2 from -n+2.
    """
    if n < 2:
        raise FamilyParamsError(f"need n >= 2, got {n}")
    if s < 1:
        raise FamilyParamsError(f"need s >= 1, got {s}")
    if s == 1:
        return tuple(range(-n + 2, n - 1, 2))
    vals = [-(n - 1) * s + 1]
    for j in range(-(n - 3), n - 2, 2):
        vals.extend([j * s - 1, j * s + 1])
    vals.append((n - 1) * s - 1)
    return tuple(sorted(vals))


def standard_realizations(n: int, s: int) -> tuple[StandardRealization, ...]:
    tb = -s * (s * n - 1)
    return tuple(StandardRealization(tb=tb, rot=r) for r in standard_rot_range(n, s))


def standard_diagram(n: int, s: int, rot: int) -> SurgeryDiagram:
    """One-component diagram: contact (-1)-surgery along a maximal-tb realisation."""
    comp = LegendrianComponent(id="T", tb=-s * (s * n - 1), rot=rot, coeff=-1)
    return SurgeryDiagram(components=(comp,), linking={}, knot=None)


def exceptional_diagram(fp: FamilyParams) -> SurgeryDiagram:
    """The (s+3)-component diagram carrying the exceptional realisation L.

    Components from bottom to top: two +1-framed standard unknots u1, u2;
    a chain v1..v_{s-1} of tb=-2, rot=1 unknots (framing -3, mutual
    linking -2); the -(s+1)-framed component ``a`` whose rotation number
    q_stab - p_stab records its stabilizations; and the -n-framed
    component ``b`` with rotation number l - k. The torus knot L links
    everything except ``b`` once.
    """
    n, s = fp.n, fp.s
    chain = [f"v{i}" for i in range(1, s)]
    comps = [
        LegendrianComponent(id="u1", tb=-1, rot=0, coeff=1),
        LegendrianComponent(id="u2", tb=-1, rot=0, coeff=1),
        *(LegendrianComponent(id=v, tb=-2, rot=1, coeff=-1) for v in chain),
        LegendrianComponent(id="a", tb=-s, rot=fp.q_stab - fp.p_stab, coeff=-1),
        LegendrianComponent(id="b", tb=-n + 1, rot=fp.l - fp.k, coeff=-1),
    ]
    linking: dict[tuple[str, str], int] = {("u1", "u2"): -1}
    for v in chain:
        linking[("u1", v)] = -1
        linking[("u2", v)] = -1
    linking[("u1", "a")] = -1
    linking[("u2", "a")] = -1
    linking[("u1", "b")] = 0
    linking[("u2", "b")] = 0
    for i, v in enumerate(chain):
        for w in chain[i + 1:]:
            linking[(v, w)] = -2
        linking[(v, "a")] = -1
        linking[(v, "b")] = 0
    linking[("a", "b")] = -1
    lk = {"u1": -1, "u2": -1, **{v: -1 for v in chain}, "a": -1, "b": 0}
    knot = DistinguishedKnot(id="L", tb0=-1, rot0=0, lk=lk)
    return SurgeryDiagram(components=tuple(comps), linking=linking, knot=knot)


def surgered_diagram(fp: FamilyParams) -> SurgeryDiagram:
    """Exceptional diagram with contact (-1)-surgery along L included.

    Presents the tight structure on the lens space itself; L becomes the
    first component, so its meridian class is the reference generator of
    first homology.
    """
    return promote_knot(exceptional_diagram(fp), coeff=-1)


def exceptional_x_vector(fp: FamilyParams) -> tuple[int, ...]:
    """Closed-form solution of M x = rot for the exceptional diagram."""
    u = fp.k - fp.l + 2 * fp.q_stab * fp.n - 1
    return (-1 - fp.s * u, -1 - fp.s * u, *([u] * (fp.s - 1)), u + 1, -2 * fp.q_stab)


@dataclass(frozen=True)
class ExceptionalExpectations:
    """Closed forms the generic pipeline must reproduce for one diagram.

    ``d3_sphere`` is the d3-invariant of the ambient contact three-sphere
    carrying L (it exceeds -1/2, witnessing overtwistedness); ``tb`` is
    the Thurston-Bennequin invariant of L after the other surgeries;
    ``euler`` is the Euler residue of the tight structure obtained by
    also surgering L, expressed as a multiple of the meridian class of L
    modulo the order of first homology; the post-surgery rotation number
    of L reduces to the same residue.
    """

    c2: int
    d3_sphere: Fraction
    tb: int
    euler: int
    chi: int
    sigma: int
    det_m: int
    det_m0: int


def exceptional_expectations(fp: FamilyParams) -> ExceptionalExpectations:
    n, s, k, l = fp.n, fp.s, fp.k, fp.l
    q = fp.q_stab
    p = fp.p_stab
    order = fp.lens_order
    euler = ((p - q + 1) * n * s + (l - k) * s) % order
    return ExceptionalExpectations(
        c2=4 * n * q * q + 4 * q * (k - l) - s + 1,
        d3_sphere=Fraction(n * q * q + q * (k - l)) - Fraction(1, 2),
        tb=-s * (s * n - 1),
        euler=euler,
        chi=4 + s,
        sigma=1 - s,
        det_m=(-1) ** (s - 1),
        det_m0=(-1) ** (s - 1) * (1 - s * (s * n - 1)),
    )


@dataclass(frozen=True)
class StandardClass:
    """Census row from a maximal-tb realisation in the tight sphere."""

    rot: int
    d3: Fraction
    residue: int


@dataclass(frozen=True)
class ExceptionalClass:
    """Census row from one exceptional realisation."""

    params: FamilyParams
    d3: Fraction
    residue: int


@dataclass(frozen=True)
class TightStructureCensus:
    """All tight structures on L(n*s^2-s+1, s^2) found by single surgeries.

    ``expected_count`` is the Giroux-Honda number. For s >= 2 the rows
    are distinguished by their Euler residues (the labels); for s = 1
    the Euler class is not injective on the realisations (e.g. rot = +/-2
    agree mod 4 on L(4,1)) and the distinguishing label is the rotation
    number itself, i.e. the first Chern class of the Stein filling, which
    separates the structures by Lisca-Matic.
    """

    n: int
    s: int
    lens: LensSpace
    standard: tuple[StandardClass, ...]
    exceptional: tuple[ExceptionalClass, ...]
    expected_count: int

    def class_labels(self) -> tuple[int, ...]:
        if self.s == 1:
            return tuple(row.rot for row in self.standard)
        return (tuple(row.residue for row in self.standard)
                + tuple(row.residue for row in self.exceptional))

    def rows(self):
        for row in self.standard:
            yield ("standard", f"tb={-self.s * (self.s * self.n - 1)} rot={row.rot}",
                   row.d3, row.residue)
        for row in self.exceptional:
            yield ("exceptional",
                   f"k={row.params.k} l={row.params.l} "
                   f"pstab={row.params.p_stab} qstab={row.params.q_stab}",
                   row.d3, row.residue)

    def problems(self) -> list[str]:
        out = []
        total = len(self.standard) + len(self.exceptional)
        if total != self.expected_count:
            out.append(f"found {total} structures, Giroux-Honda count is {self.expected_count}")
        labels = self.class_labels()
        rows = list(self.rows())
        seen: dict[int, int] = {}
        for idx, label in enumerate(labels):
            if label in seen:
                a, b = rows[seen[label]], rows[idx]
                out.append(f"duplicate class {label}: ({a[0]} {a[1]}) vs ({b[0]} {b[1]})")
            else:
                seen[label] = idx
        return out


def census(n: int, s: int) -> TightStructureCensus:
    """Assemble the census for one (n, s); call problems() to check it."""
    if n < 2:
        raise FamilyParamsError(f"need n >= 2, got {n}")
    if s < 1:
        raise FamilyParamsError(f"need s >= 1, got {s}")
    order = n * s * s - s + 1
    lens = LensSpace(order, s * s)
    standard = []
    for real in standard_realizations(n, s):
        diag = standard_diagram(n, s, real.rot)
        standard.append(StandardClass(rot=real.rot, d3=invariants.d3(diag),
                                      residue=real.rot % order))
    exceptional = []
    if s >= 2:
        for fp in family_params_grid(n, s):
            expect = exceptional_expectations(fp)
            d3_value = invariants.d3(surgered_diagram(fp))
            exceptional.append(ExceptionalClass(params=fp, d3=d3_value,
                                                residue=expect.euler))
    return TightStructureCensus(
        n=n, s=s, lens=lens,
        standard=tuple(standard),
        exceptional=tuple(exceptional),
        expected_count=tight_count(lens),
    )


@dataclass(frozen=True)
class DistinctnessBounds:
    """Evaluated inequalities separating all the Euler residues."""

    e_min: int
    e_max: int
    checks: tuple[tuple[str, bool], ...]

    def all_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


def distinctness_bounds(n: int, s: int) -> DistinctnessBounds:
    """Check the integer estimates that keep the census classes apart.

    The exceptional Euler numbers e = (p-q+1)ns + (l-k)s fit between
    e_min = -ns^2 + (n+2)s and e_max = -e_min, a window narrower than
    twice the homology order; negative values lifted into (0, order) are
    congruent to 1 mod s while nonnegative ones are divisible by s; and
    the two boundary inequalities keep the standard rotation numbers out
    of the exceptional range mod the order.
    """
    if n < 2 or s < 2:
        raise FamilyParamsError(f"need n >= 2 and s >= 2, got n={n}, s={s}")
    order = n * s * s - s + 1
    e_min = -n * s * s + (n + 2) * s
    e_max = n * s * s - (n + 2) * s
    values = [(fp.p_stab - fp.q_stab + 1) * n * s + (fp.l - fp.k) * s
              for fp in family_params_grid(n, s)]
    standard_top = (n - 1) * s - 1
    checks = (
        ("exceptional values attain the stated window",
         min(values) == e_min and max(values) == e_max),
        ("window narrower than twice the order", e_max - e_min < 2 * order),
        ("lifted negative values congruent 1 mod s",
         all(e >= 0 or (e + order) % s == 1 for e in values)),
        ("nonnegative values divisible by s",
         all(e < 0 or e % s == 0 for e in values)),
        ("exceptional values distinct in Z", len(set(values)) == len(values)),
        ("exceptional residues distinct mod order",
         len({e % order for e in values}) == len(values)),
        ("e_min + order = (n+1)s + 1 clears the standard range",
         e_min + order == (n + 1) * s + 1 and e_min + order > standard_top),
        ("-(n-1)s + 1 + order clears e_max",
         -standard_top + order == n * s * s - n * s + 2
         and -standard_top + order > e_max),
    )
    return DistinctnessBounds(e_min=e_min, e_max=e_max, checks=checks)
