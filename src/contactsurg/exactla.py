"""Exact integer and rational linear algebra for small dense matrices.

Surgery presentations produce symmetric integer matrices that are rarely
larger than a dozen rows, but every downstream invariant (determinant
ratios, signatures, homology presentations) has to be computed exactly:
one rounded entry silently corrupts a classification. Floating point is
therefore never used here.

* ``det`` and ``solve`` share one fraction-free Bareiss elimination (all
  divisions exact); ``solve`` eliminates [M | scale*b] and back-substitutes
  det*x in integers, which Cramer's rule keeps integral,
* ``signature`` runs one fraction-free symmetric elimination and reads
  the signature off the signs of successive pivots (Jacobi's rule),
* ``smith`` returns a certified Smith normal form U*M*V = D with
  unimodular U, V; the certificate is re-checked before returning,
* ``cokernel_coordinates`` reduces an integer vector into the cokernel
  Z^n / M Z^n, the usual presentation of first homology by a relation
  matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

__all__ = [
    "ExactLAError",
    "DimensionError",
    "SingularMatrixError",
    "IntMatrix",
    "SmithDecomposition",
    "det",
    "solve",
    "signature",
    "smith",
    "cokernel_coordinates",
    "cokernel_from_decomposition",
]


class ExactLAError(Exception):
    """Base class for errors raised by the exact linear algebra layer."""


class DimensionError(ExactLAError):
    """Operand shape does not fit the operation (non-square, asymmetric...)."""


class SingularMatrixError(ExactLAError):
    """A linear solve hit a singular matrix."""


class IntMatrix:
    """Immutable dense matrix of arbitrary-precision integers.

    Entries are stored row-major as a tuple of tuples, so instances are
    safe to share between threads and usable as oracles in tests without
    defensive copying. Zero-by-zero matrices are allowed (the empty
    surgery diagram has an empty linking matrix).
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(self._as_int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise DimensionError("ragged rows in matrix literal")
        else:
            width = 0
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_entries", rows)

    @staticmethod
    def _as_int(x) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"matrix entries must be integers, got {x!r}")
        return x

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int | None = None,
                 cols: int | None = None) -> "IntMatrix":
        r = len(values) if rows is None else rows
        c = len(values) if cols is None else cols
        return cls([[values[i] if (i == j and i < len(values)) else 0
                     for j in range(c)] for i in range(r)])

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._entries

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self._entries)) if self.rows else IntMatrix([])

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        a = self._entries
        return all(a[i][j] == a[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix([[self._entries[i][j] for j in col_idx] for i in row_idx])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        bt = other.transpose()._entries
        return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in bt]
                          for row in self._entries])

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; accepts integer or Fraction vectors."""
        if len(v) != self.cols:
            raise DimensionError(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._entries]!r})"

    def __str__(self) -> str:
        if not self.rows:
            return "[]"
        width = max(len(str(x)) for r in self._entries for x in r)
        return "\n".join(" ".join(f"{x:>{width}}" for x in r) for r in self._entries)


def _require_square(m: IntMatrix, what: str) -> None:
    if m.rows != m.cols:
        raise DimensionError(f"{what} needs a square matrix, got {m.rows}x{m.cols}")


def _bareiss(a: list[list[int]]) -> int:
    """Fraction-free elimination of the leading square block of a, in place.

    ``a`` holds n rows of at least n integer columns; the columns past n
    (right-hand sides) are carried along. Returns det of the leading block,
    0 as soon as a column has no pivot. After a nonsingular run the block
    is upper triangular and each row is an integer multiple of one
    equation of the row-permuted system. Intermediate entries stay
    integral (each division is exact by Sylvester's identity), which keeps
    coefficient growth polynomial instead of the exponential blow-up of
    naive fraction-free expansion.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot, tail = a[k][k], a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = pivot
    return sign * prev


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    _require_square(m, "det")
    return _bareiss([list(row) for row in m.entries])


def solve(m: IntMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Solve m*x = b exactly over the rationals.

    ``b`` may hold integers or Fractions. Raises SingularMatrixError when
    det(m) = 0; the residual of the returned solution is identically
    zero, not merely small.
    """
    _require_square(m, "solve")
    n = m.rows
    if len(b) != n:
        raise DimensionError(f"right-hand side has length {len(b)}, expected {n}")
    ratios = [x.as_integer_ratio() for x in b]
    scale = lcm(*(q for _, q in ratios))
    a = [[*row, p * (scale // q)] for row, (p, q) in zip(m.entries, ratios)]
    det_m = _bareiss(a)
    if det_m == 0:
        raise SingularMatrixError("matrix is singular")
    # By Cramer's rule det_m * x is integral, so each division is exact.
    dx = [0] * n
    for k in range(n - 1, -1, -1):
        row = a[k]
        acc = det_m * row[n] - sum(row[j] * dx[j] for j in range(k + 1, n))
        dx[k] = acc // row[k]
    return tuple(Fraction(v, det_m * scale) for v in dx)


def signature(m: IntMatrix) -> int:
    """Signature (positives minus negatives) of a symmetric matrix.

    One fraction-free symmetric Bareiss elimination on the integers. The
    pivot p at step k is the leading (k+1)-minor of a congruent matrix and
    prev the leading k-minor, so by Jacobi's rule the step adds +1 to the
    signature when p and prev have the same sign and -1 otherwise. A zero
    pivot is repaired by a symmetric swap with a nonzero trailing diagonal
    entry or, when the whole trailing diagonal vanishes, by the fold
    row_k += row_j, col_k += col_j (new pivot 2*a[k][j]); a trailing row
    of zeros is a null direction and leaves the active block. These are
    congruences on trailing indices, which commute with the bordered
    minors, so every division stays exact.
    """
    _require_square(m, "signature")
    if not m.is_symmetric():
        raise DimensionError("signature needs a symmetric matrix")
    a = [list(row) for row in m.entries]
    size = len(a)
    sig, prev, k = 0, 1, 0
    while k < size:
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, size) if a[j][j]), None)
            if j is not None:
                _swap_rows(a, k, j)
                _swap_cols(a, k, j)
            else:
                j = next((j for j in range(k + 1, size) if a[k][j]), None)
                if j is None:  # null direction: contributes nothing
                    size -= 1
                    _swap_rows(a, k, size)
                    _swap_cols(a, k, size)
                    continue
                _add_row(a, k, j, 1)
                _add_col(a, k, j, 1)
        pivot, tail = a[k][k], a[k][k + 1:size]
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        for i in range(k + 1, size):
            row = a[i]
            f = row[k]
            row[k + 1:size] = [(x * pivot - f * y) // prev
                               for x, y in zip(row[k + 1:size], tail)]
        prev = pivot
        k += 1
    return sig


@dataclass(frozen=True)
class SmithDecomposition:
    """Certified Smith normal form: u * m * v = d.

    ``d`` is diagonal with nonnegative entries d1 | d2 | ... followed by
    zeros; ``u`` and ``v`` are unimodular. The certificate is verified
    when the decomposition is produced, so holders may rely on it.
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i, i] for i in range(min(self.d.rows, self.d.cols)))

    def verify(self, m: IntMatrix) -> bool:
        """Re-check u*m*v = d, unimodularity, and the divisibility chain."""
        if self.u @ m @ self.v != self.d:
            return False
        if abs(det(self.u)) != 1 or abs(det(self.v)) != 1:
            return False
        diag = self.diagonal()
        if any(x < 0 for x in diag):
            return False
        for prev, nxt in zip(diag, diag[1:]):
            if prev == 0 and nxt != 0:
                return False
            if prev != 0 and nxt % prev != 0:
                return False
        nonzero = [abs(x) for row in self.d.entries for x in row if x]
        return len(nonzero) == sum(1 for x in diag if x)


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a: list[list[int]], dst: int, src: int, factor: int) -> None:
    a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]


def _add_col(a: list[list[int]], dst: int, src: int, factor: int) -> None:
    for row in a:
        row[dst] += factor * row[src]


def _min_abs_nonzero(a: list[list[int]], t: int, nr: int, nc: int):
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            x = a[i][j]
            if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form by elementary row/column reduction.

    The pivot at each stage is the entry of minimal nonzero absolute
    value in the trailing block; remainders from the division steps keep
    shrinking it, and a non-divisible trailing entry is pulled into the
    pivot row until the divisibility chain holds. Signs are normalized
    to nonnegative at the end. Sizes here are tiny, so the quadratic
    pivot search is irrelevant next to having U, V as certificates.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    t = 0
    limit = min(nr, nc)
    while t < limit:
        if _min_abs_nonzero(a, t, nr, nc) is None:
            break
        while True:
            pi, pj = _min_abs_nonzero(a, t, nr, nc)
            if pi != t:
                _swap_rows(a, t, pi)
                _swap_rows(u, t, pi)
            if pj != t:
                _swap_cols(a, t, pj)
                _swap_cols(v, t, pj)
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        _add_row(a, i, t, -q)
                        _add_row(u, i, t, -q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        _add_col(a, j, t, -q)
                        _add_col(v, j, t, -q)
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            stuck = None
            for i in range(t + 1, nr):
                if any(a[i][j] % pivot for j in range(t + 1, nc)):
                    stuck = i
                    break
            if stuck is None:
                break
            _add_row(a, t, stuck, 1)
            _add_row(u, t, stuck, 1)
        t += 1
    # Sign-normalize through V so that U stays as close to a permutation as
    # the reduction allows; cokernel coordinates only see U.
    for i in range(limit):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            for row in v:
                row[i] = -row[i]
    dec = SmithDecomposition(d=IntMatrix(a), u=IntMatrix(u), v=IntMatrix(v))
    if not dec.verify(m):
        raise ExactLAError("smith normal form certificate failed to verify")
    return dec


def cokernel_coordinates(m: IntMatrix, v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Image of an integer vector in coker(m) = Z^n / m Z^n.

    Returns ``(orders, coords)``: the invariant-factor orders of the
    cokernel with trivial (order 1) factors dropped, a 0 meaning a free
    Z summand, and the coordinates of v reduced into [0, order) in each
    finite factor. Two vectors represent the same cokernel element iff
    their coordinate tuples agree.
    """
    _require_square(m, "cokernel_coordinates")
    if len(v) != m.rows:
        raise DimensionError(f"vector of length {len(v)} against {m.rows}x{m.cols}")
    return cokernel_from_decomposition(smith(m), v)


def cokernel_from_decomposition(dec: SmithDecomposition,
                                v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Same as cokernel_coordinates but reusing an existing decomposition."""
    w = dec.u.apply(v)
    orders: list[int] = []
    coords: list[int] = []
    for i, d in enumerate(dec.diagonal()):
        if d == 1:
            continue
        orders.append(d)
        coords.append(w[i] % d if d else w[i])
    return tuple(orders), tuple(coords)
