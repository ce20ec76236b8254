"""Headline invariants of a contact surgery diagram.

For a diagram presenting a contact 3-manifold by (+1/-1)-surgeries, with
linking matrix M and rotation vector rot:

* ``c_squared``: solve M x = rot over Q, return x^t M x (= x . rot),
* ``d3``: Gompf's homotopy invariant of the tangent 2-plane field,
  computed from the surgery presentation as
  d3 = (c^2 - 3*sigma(X) - 2*chi(X)) / 4 + q, where X is the associated
  4-dimensional handlebody and q counts the (+1)-components,
* ``tb_surgered`` / ``rot_surgered``: the classical invariants of the
  distinguished knot in the surgered manifold, both read from y = M^-1 lk,
      tb = tb0 + det(M0)/det(M) = tb0 - <lk, y>,   rot = rot0 - <rot, y>,
  where M0 is M bordered by lk with corner 0; the two tb forms agree by
  the Schur complement det(M0) = -det(M) <lk, M^-1 lk>,
* ``euler_class``: the Euler class of the induced contact structure,
  Poincare dual to the rot-weighted sum of meridian classes, reported as
  coordinates in coker(M) = H1 of the surgered boundary.

Everything is exact. ``d3`` refuses to answer when its hypotheses fail
(non-torsion Euler class, i.e. singular M, or a (+1)-component with
tb = 0) instead of returning a number the formula does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import exactla
from .diagram import SurgeryDiagram, linking_matrix

__all__ = [
    "InvariantError",
    "NonTorsionEulerClassError",
    "D3PreconditionError",
    "InvariantReport",
    "chi",
    "q_plus",
    "c_squared",
    "d3",
    "tb_surgered",
    "rot_surgered",
    "euler_class",
    "report",
]


class InvariantError(Exception):
    """Base class for invariant computation failures."""


class NonTorsionEulerClassError(InvariantError):
    """The linking matrix is singular, so the Euler class is not torsion."""


class D3PreconditionError(InvariantError):
    """A (+1)-component has tb = 0; the d3 surgery formula does not apply."""


def chi(d: SurgeryDiagram) -> int:
    """Euler characteristic of the 4-dimensional handlebody: 1 + #components."""
    return 1 + len(d.components)


def q_plus(d: SurgeryDiagram) -> int:
    """Number of (+1)-surgered components."""
    return sum(1 for c in d.components if c.coeff == 1)


def _solve(m: exactla.IntMatrix, b) -> tuple[Fraction, ...]:
    try:
        return exactla.solve(m, b)
    except exactla.SingularMatrixError as exc:
        raise NonTorsionEulerClassError(
            "linking matrix is singular: Euler class is not torsion") from exc


def _pairing(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _c_squared(m: exactla.IntMatrix, rot) -> Fraction:
    # x^t M x = x^t rot because M x = rot.
    return _pairing(_solve(m, rot), rot)


def _d3_formula(d: SurgeryDiagram, c2: Fraction, sigma: int) -> Fraction:
    return (c2 - 3 * sigma - 2 * chi(d)) / 4 + q_plus(d)


def c_squared(d: SurgeryDiagram) -> Fraction:
    """x^t M x for the rational solution of M x = rot."""
    return _c_squared(linking_matrix(d), d.rot_vector())


def d3(d: SurgeryDiagram) -> Fraction:
    """d3-invariant of the presented contact structure.

    Requires det(M) != 0 (torsion Euler class) and tb != 0 on every
    (+1)-component. The empty diagram presents the standard tight
    three-sphere and evaluates to -1/2.
    """
    for c in d.components:
        if c.blocks_d3:
            raise D3PreconditionError(
                f"+1-component {c.id!r} has tb = 0; d3 formula not applicable")
    m = linking_matrix(d)
    return _d3_formula(d, _c_squared(m, d.rot_vector()), exactla.signature(m))


def _knot_solution(d: SurgeryDiagram):
    """lk and y = M^-1 lk; raises MissingKnotError without a knot."""
    lk = d.lk_vector()
    return lk, _solve(linking_matrix(d), lk)


def tb_surgered(d: SurgeryDiagram) -> Fraction:
    """Thurston-Bennequin invariant of the distinguished knot after surgery."""
    lk, y = _knot_solution(d)
    return d.knot.tb0 - _pairing(lk, y)


def rot_surgered(d: SurgeryDiagram) -> Fraction:
    """Rotation number of the distinguished knot after surgery."""
    _, y = _knot_solution(d)
    return d.knot.rot0 - _pairing(d.rot_vector(), y)


def euler_class(d: SurgeryDiagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Euler class as (torsion orders of H1, coordinates of the rot vector).

    Works for torsion and non-torsion classes alike: a zero order marks a
    free Z summand and its coordinate is an honest integer.
    """
    return exactla.cokernel_coordinates(linking_matrix(d), d.rot_vector())


@dataclass(frozen=True)
class InvariantReport:
    """Everything the generic pipeline can say about one diagram.

    Fields that fail their preconditions are None, with the reason listed
    in ``problems``. When H1 of the surgered manifold is finite cyclic
    and some meridian generates it, the Euler class is additionally
    expressed as ``euler_residue`` times that meridian's class; the
    generating component's id is recorded so the (sign) ambiguity in the
    choice of generator stays auditable.
    """

    chi: int
    sigma: int
    det_m: int
    q_plus: int
    c_squared: Fraction | None
    d3: Fraction | None
    h1: tuple[int, ...]
    euler_class: tuple[int, ...]
    euler_residue: int | None
    euler_generator: str | None
    problems: tuple[str, ...] = ()


def _cyclic_residue(dec: exactla.SmithDecomposition, d: SurgeryDiagram,
                    coords: tuple[int, ...], orders: tuple[int, ...]):
    """Express the class as a multiple of the first generating meridian."""
    if not orders:
        return 0, None  # trivial H1: the class is 0
    if len(orders) != 1 or orders[0] == 0:
        return None, None
    p = orders[0]
    n = len(d.components)
    for i, comp in enumerate(d.components):
        basis = [0] * n
        basis[i] = 1
        _, g = exactla.cokernel_from_decomposition(dec, basis)
        if g and gcd(g[0], p) == 1:
            inv = pow(g[0], -1, p)
            return (coords[0] * inv) % p, comp.id
    return None, None


def report(d: SurgeryDiagram) -> InvariantReport:
    """Aggregate report; partial when preconditions fail."""
    m = linking_matrix(d)
    det_m = exactla.det(m)
    sigma = exactla.signature(m)
    dec = exactla.smith(m)
    orders, coords = exactla.cokernel_from_decomposition(dec, d.rot_vector())
    residue, generator = _cyclic_residue(dec, d, coords, orders)

    problems: list[str] = []
    c2 = None
    d3_value = None
    if det_m == 0:
        problems.append("non-torsion: linking matrix is singular, c2 and d3 undefined")
    else:
        c2 = _c_squared(m, d.rot_vector())
        blockers = [c.id for c in d.components if c.blocks_d3]
        if blockers:
            problems.append(
                f"d3-precondition: +1-component(s) {blockers} with tb = 0")
        else:
            d3_value = _d3_formula(d, c2, sigma)

    return InvariantReport(
        chi=chi(d),
        sigma=sigma,
        det_m=det_m,
        q_plus=q_plus(d),
        c_squared=c2,
        d3=d3_value,
        h1=orders,
        euler_class=coords,
        euler_residue=residue,
        euler_generator=generator,
        problems=tuple(problems),
    )
