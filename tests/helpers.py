"""Shared fixtures-of-convenience for the test suite: the printed matrices
from the worked L(7,4) example, random matrix generators, and two naive
kernels used as independent oracles: a cofactor-expansion determinant and
Gaussian elimination over Fractions."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from contactsurg.diagram import LegendrianComponent, SurgeryDiagram
from contactsurg.exactla import IntMatrix, SingularMatrixError

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# 5x5 linking matrix of the exceptional L(7,4) diagram (components bottom
# to top: two +1-framed unknots, two tb=-2 rot=1 components, one tb=-1).
FIG2_M = IntMatrix([
    [0, -1, -1, -1, 0],
    [-1, 0, -1, -1, 0],
    [-1, -1, -3, -1, 0],
    [-1, -1, -1, -3, -1],
    [0, 0, 0, -1, -2],
])

# Same diagram extended by the distinguished trefoil L as row/column 0.
FIG2_M0 = IntMatrix([
    [0, -1, -1, -1, -1, 0],
    [-1, 0, -1, -1, -1, 0],
    [-1, -1, 0, -1, -1, 0],
    [-1, -1, -1, -3, -1, 0],
    [-1, -1, -1, -1, -3, -1],
    [0, 0, 0, 0, -1, -2],
])


def cofactor_det(m: IntMatrix) -> int:
    """Naive Laplace expansion along the first row; the det oracle."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    rest = list(range(1, n))
    for j in range(n):
        if m[0, j]:
            sub = m.submatrix(rest, [c for c in range(n) if c != j])
            total += (-1) ** j * m[0, j] * cofactor_det(sub)
    return total


def fraction_solve(m: IntMatrix, b) -> tuple[Fraction, ...]:
    """Gaussian elimination over Fractions; the solve oracle."""
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(b[i])]
         for i, row in enumerate(m.entries)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    x: list[Fraction] = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = a[r][n] - sum((a[r][c] * x[c] for c in range(r + 1, n)), Fraction(0))
        x[r] = acc / a[r][r]
    return tuple(x)


def random_matrix(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def random_symmetric(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> IntMatrix:
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(lo, hi)
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return IntMatrix(a)


def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """Product of random elementary row operations applied to the identity."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif kind == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif kind == 2:
            a[i] = [-x for x in a[i]]
    return IntMatrix(a)


def one_component_diagram(tb: int, rot: int, coeff: int = -1,
                          cid: str = "K") -> SurgeryDiagram:
    return SurgeryDiagram(
        components=(LegendrianComponent(id=cid, tb=tb, rot=rot, coeff=coeff),),
        linking={})


def build_diagram(specs, linking) -> SurgeryDiagram:
    """specs: iterable of (id, tb, rot, coeff); linking: {(a, b): lk}."""
    comps = tuple(LegendrianComponent(id=i, tb=t, rot=r, coeff=c)
                  for (i, t, r, c) in specs)
    return SurgeryDiagram(components=comps, linking=dict(linking))
