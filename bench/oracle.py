"""Exact arithmetic the benchmark owns, used to check the program's answers.

Nothing here imports ``contactsurg``: every value the checker compares
against is computed from the benchmark's own description of an input,
with plain Python integers. Each solver result is certified by an integer
residual before it is trusted, so a bug in this file shows up as a check
failure rather than as a silently accepted wrong answer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod


class OracleError(Exception):
    """The benchmark's own computation failed its certificate."""


def bareiss(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free forward elimination with row pivoting on a copy.

    Works on an n x (n + k) array whose left block is square. Returns the
    eliminated array (upper triangular on the left block, leading entry of
    row i equal to the i-th pivot) and the sign of the row permutation.
    A zero pivot column leaves the array partially reduced: the caller
    reads singularity from the last pivot being 0.
    """
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                a[n - 1][n - 1] = 0
                return a, sign
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, len(ri)):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
            ri[k] = 0
        prev = p
    return a, sign


def det(m: list[list[int]]) -> int:
    if not m:
        return 1
    a, sign = bareiss(m)
    return sign * a[-1][-1]


def solve_scaled(m: list[list[int]], rhs: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Return (D, [D*x for each right-hand side b]) with D = det(m) != 0.

    D*x is integral by Cramer's rule, so back-substitution divides
    exactly. The result is checked by the plain-integer residual
    m*(D*x) = D*b before it is returned.
    """
    n = len(m)
    k = len(rhs)
    aug = [list(m[i]) + [b[i] for b in rhs] for i in range(n)]
    a, sign = bareiss(aug)
    top = a[-1][n - 1] if n else 1
    if top == 0:
        raise OracleError("singular matrix")
    d = sign * top
    cols = []
    for c in range(k):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            acc = top * row[n + c] - sum(row[j] * y[j] for j in range(i + 1, n))
            q, r = divmod(acc, row[i])
            if r:
                raise OracleError("inexact back-substitution")
            y[i] = q
        # y = top * x; rescale to d * x (d = sign * top).
        y = [sign * v for v in y]
        if any(sum(mij * yj for mij, yj in zip(mi, y)) != d * rhs[c][i]
               for i, mi in enumerate(m)):
            raise OracleError("solve residual is not zero")
        cols.append(y)
    return d, cols


def _leading_minor_signature(m: list[list[int]]) -> int | None:
    """Jacobi's rule: sign changes along 1, D1, ..., Dn; None if some Dk = 0."""
    a = [list(r) for r in m]
    n = len(a)
    prev, changes, last = 1, 0, 1
    for k in range(n):
        p = a[k][k]
        if p == 0:
            return None
        if (p > 0) != (last > 0):
            changes += 1
        last = p
        rk = a[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * p - f * rk[j]) // prev
        prev = p
    return n - 2 * changes


def signature(m: list[list[int]]) -> int:
    """Signature of a nonsingular symmetric integer matrix.

    Jacobi's rule needs nonzero leading minors. When one vanishes, the
    matrix is replaced by a congruent P^t M P with P unit lower triangular
    (so the signature is unchanged) until every leading minor is nonzero.
    """
    n = len(m)
    rng = random.Random(n)
    cur = m
    for _ in range(64):
        sig = _leading_minor_signature(cur)
        if sig is not None:
            return sig
        p = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(n)]
             for i in range(n)]
        mp = [[sum(m[i][t] * p[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        cur = [[sum(p[t][i] * mp[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    raise OracleError("no congruence with nonzero leading minors (matrix singular?)")


def rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix, by Bareiss elimination with full pivoting."""
    a = [list(r) for r in m]
    n = len(a)
    r, prev = 0, 1
    for k in range(n):
        piv = next(((i, j) for i in range(k, n) for j in range(k, n) if a[i][j]), None)
        if piv is None:
            break
        i0, j0 = piv
        a[k], a[i0] = a[i0], a[k]
        for row in a:
            row[k], row[j0] = row[j0], row[k]
        p = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - f * a[k][j]) // prev
            a[i][k] = 0
        prev = p
        r += 1
    return r


# --------------------------------------------------------------------------
# Surgery diagrams described as plain data:
#   spec = {"tb": [...], "rot": [...], "coeff": [...], "lk": n x n symmetric
#           (diagonal ignored), "ids": [...], "knot": None or
#           {"tb0", "rot0", "lk": [...]}}
# --------------------------------------------------------------------------

def linking_matrix(spec: dict) -> list[list[int]]:
    n = len(spec["tb"])
    return [[spec["tb"][i] + spec["coeff"][i] if i == j else spec["lk"][i][j]
             for j in range(n)] for i in range(n)]


def diagram_facts(spec: dict) -> dict:
    """Every invariant the program reports, from the benchmark's own algebra.

    Solutions of M x = b are certified by the residual inside solve_scaled.
    For singular M only det, chi, q and the rank are given.
    """
    m = linking_matrix(spec)
    n = len(m)
    rot = spec["rot"]
    knot = spec.get("knot")
    d = det(m)
    facts = {"n": n, "det": d, "chi": 1 + n,
             "q": sum(1 for c in spec["coeff"] if c == 1),
             "tb0_blocked": any(c == 1 and t == 0 for c, t in zip(spec["coeff"], spec["tb"]))}
    if d == 0:
        facts["rank"] = rank(m)
        return facts
    rhs = [rot] + ([knot["lk"]] if knot else [])
    dd, cols = solve_scaled(m, rhs)
    facts["sigma"] = signature(m)
    facts["c2"] = Fraction(sum(x * r for x, r in zip(cols[0], rot)), dd)
    facts["rot_in_image"] = all(x % dd == 0 for x in cols[0])
    if knot:
        m0 = [[0, *knot["lk"]]] + [[knot["lk"][i], *m[i]] for i in range(n)]
        facts["tb_L"] = knot["tb0"] + Fraction(det(m0), d)
        facts["rot_L"] = knot["rot0"] - Fraction(
            sum(r * y for r, y in zip(rot, cols[1])), dd)
    return facts


def d3_from(c2: Fraction, sigma: int, chi: int, q: int) -> Fraction:
    return (c2 - 3 * sigma - 2 * chi) / 4 + q


def residue_holds(spec: dict, residue: int, generator_index: int, order: int) -> bool:
    """rot == residue * meridian(generator) in coker M = Z^n / M Z^n.

    True iff M^-1 (rot - residue * e_g) is integral, and the meridian
    class itself has order ``order`` (it generates the cyclic group).
    """
    m = linking_matrix(spec)
    n = len(m)
    b = list(spec["rot"])
    b[generator_index] -= residue
    e = [int(i == generator_index) for i in range(n)]
    d, (z, g) = solve_scaled(m, [b, e])
    if any(x % d for x in z):
        return False
    # e_g has order |d| / gcd(|d|, gcd of d * M^-1 e_g) in the cokernel.
    return abs(d) // gcd(abs(d), *g) == order


# --------------------------------------------------------------------------
# Lens spaces and the L(ns^2 - s + 1, s^2) family
# --------------------------------------------------------------------------

def neg_contfrac(p: int, q: int) -> list[int]:
    terms = []
    while q > 0:
        a = -(-p // q)
        terms.append(a)
        p, q = q, a * q - p
    return terms


def convergent(terms: list[int]) -> tuple[int, int]:
    """[a0, ..., ak] as (numerator, denominator) by the integer recurrence."""
    h2, h1, k2, k1 = 0, 1, -1, 0
    for a in terms:
        h2, h1 = h1, a * h1 - h2
        k2, k1 = k1, a * k1 - k2
    return h1, k1


def giroux_honda(p: int, q: int) -> int:
    return prod(a - 1 for a in neg_contfrac(p, q))


def family_order(n: int, s: int) -> int:
    return n * s * s - s + 1


def standard_rots(n: int, s: int) -> list[int]:
    """Rotation numbers of the maximal-tb torus knots, s >= 2 (Etnyre-Honda)."""
    vals = [-(n - 1) * s + 1, (n - 1) * s - 1]
    for j in range(-(n - 3), n - 2, 2):
        vals += [j * s - 1, j * s + 1]
    return sorted(vals)


def family_cells(n: int, s: int):
    """(k, l, p_stab, q_stab) for every exceptional realisation."""
    for k in range(n - 1):
        for q in range(1, s):
            yield k, n - 2 - k, s - 1 - q, q


def exceptional_spec(n: int, s: int, k: int, l: int, p: int, q: int) -> dict:
    """The paper's (s+3)-component diagram with its knot L, as plain data."""
    ids = ["u1", "u2"] + [f"v{i}" for i in range(1, s)] + ["a", "b"]
    tb = [-1, -1] + [-2] * (s - 1) + [-s, -n + 1]
    rot = [0, 0] + [1] * (s - 1) + [q - p, l - k]
    coeff = [1, 1] + [-1] * (s + 1)
    size = s + 3
    lk = [[0] * size for _ in range(size)]

    def link(i, j, v):
        lk[i][j] = lk[j][i] = v
    link(0, 1, -1)
    ia, ib = size - 2, size - 1
    for v in range(2, ia):
        link(0, v, -1)
        link(1, v, -1)
        link(v, ia, -1)
        for w in range(v + 1, ia):
            link(v, w, -2)
    link(0, ia, -1)
    link(1, ia, -1)
    link(ia, ib, -1)
    knot = {"tb0": -1, "rot0": 0, "lk": [-1] * (size - 1) + [0]}
    return {"ids": ids, "tb": tb, "rot": rot, "coeff": coeff, "lk": lk, "knot": knot}


def promote(spec: dict, coeff: int = -1) -> dict:
    """Surger the knot too: it becomes component 0 with coefficient ``coeff``."""
    k = spec["knot"]
    n = len(spec["tb"])
    lk = [[0, *k["lk"]]] + [[k["lk"][i], *spec["lk"][i]] for i in range(n)]
    return {"ids": ["L", *spec["ids"]], "tb": [k["tb0"], *spec["tb"]],
            "rot": [k["rot0"], *spec["rot"]], "coeff": [coeff, *spec["coeff"]],
            "lk": lk, "knot": None}


def exceptional_closed_forms(n: int, s: int, k: int, l: int, p: int, q: int) -> dict:
    """The paper's closed forms for one exceptional realisation."""
    return {"c2": 4 * n * q * q + 4 * q * (k - l) - s + 1,
            "d3_sphere": Fraction(n * q * q + q * (k - l)) - Fraction(1, 2),
            "tb": -s * (s * n - 1),
            "euler": ((p - q + 1) * n * s + (l - k) * s) % family_order(n, s)}


def standard_d3(n: int, s: int, rot: int) -> Fraction:
    tb = -s * (s * n - 1)
    return (Fraction(rot * rot, tb - 1) - 1) / 4
