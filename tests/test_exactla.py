import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurg.exactla import (
    DimensionError,
    ExactLAError,
    IntMatrix,
    SingularMatrixError,
    cokernel_coordinates,
    det,
    signature,
    smith,
    solve,
)

from helpers import (
    FIG2_M,
    FIG2_M0,
    cofactor_det,
    fraction_solve,
    random_matrix,
    random_symmetric,
    random_unimodular,
)

small_squares = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n))


def section4_full_matrix(m: int) -> IntMatrix:
    """Six-component presentation of L(4m+3,4): the torus knot surgered too."""
    return IntMatrix([
        [-2, -1, -1, -1, -1, 0],
        [-1, 0, -1, -1, -1, 0],
        [-1, -1, 0, -1, -1, 0],
        [-1, -1, -1, -3, -1, 0],
        [-1, -1, -1, -1, -3, -1],
        [0, 0, 0, 0, -1, -(m + 1)],
    ])


class TestIntMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.5]])
        with pytest.raises(TypeError):
            IntMatrix([[True]])

    def test_immutable(self):
        m = IntMatrix([[1]])
        with pytest.raises(AttributeError):
            m.rows = 2

    def test_matmul_shape_check(self):
        with pytest.raises(DimensionError):
            IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]])

    def test_identity_and_diagonal(self):
        assert IntMatrix.identity(2) == IntMatrix([[1, 0], [0, 1]])
        assert IntMatrix.diagonal([2, 3], rows=3, cols=2) == IntMatrix(
            [[2, 0], [0, 3], [0, 0]])

    def test_transpose_roundtrip(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.transpose().rows == 3


class TestDet:
    def test_fig2_linking_matrix(self):
        assert det(FIG2_M) == -1

    def test_fig2_extended_matrix(self):
        assert det(FIG2_M0) == 5

    def test_identity(self):
        assert det(IntMatrix.identity(4)) == 1

    def test_empty(self):
        assert det(IntMatrix([])) == 1

    def test_singular(self):
        assert det(IntMatrix([[1, 2], [2, 4]])) == 0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det(IntMatrix([[1, 2]]))

    def test_general_family_det(self):
        from contactsurg.diagram import linking_matrix
        from contactsurg.families import exceptional_diagram, family_params_grid
        for n in range(2, 7):
            for s in range(2, 7):
                fp = next(iter(family_params_grid(n, s)))
                assert det(linking_matrix(exceptional_diagram(fp))) == (-1) ** (s - 1)

    @given(small_squares)
    def test_matches_cofactor_expansion(self, rows):
        m = IntMatrix(rows)
        assert det(m) == cofactor_det(m)


class TestSolve:
    def test_fig2_rotation_system(self):
        x = solve(FIG2_M, [0, 0, 1, 1, 0])
        assert x == tuple(Fraction(v) for v in (-7, -7, 3, 4, -2))

    def test_section4_family_solution(self):
        for m in range(1, 5):
            for k in range(m):
                l = m - 1 - k
                mat = IntMatrix([row[1:] for row in section4_full_matrix(m).entries[1:]])
                x = solve(mat, [0, 0, 1, 1, l - k])
                expected = (-6 * k - 2 * l - 7, -6 * k - 2 * l - 7,
                            3 * k + l + 3, 3 * k + l + 4, -2)
                assert x == tuple(Fraction(v) for v in expected)

    def test_zero_rhs(self):
        assert solve(FIG2_M, [0] * 5) == (Fraction(0),) * 5

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve(IntMatrix([[1, 2], [2, 4]]), [1, 0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            solve(IntMatrix.identity(2), [1])

    def test_exact_residual_randomized(self):
        rng = random.Random(7)
        done = 0
        while done < 60:
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            if det(m) == 0:
                continue
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            x = solve(m, b)
            assert list(m.apply(x)) == b
            done += 1

    def test_matches_fraction_oracle(self):
        """Zero leading pivots, singular matrices and Fraction right-hand
        sides, each drawn on purpose, against Gaussian elimination over Q."""
        rng = random.Random(11)
        seen = {"zero-pivot": 0, "singular": 0, "fraction-rhs": 0}
        for _ in range(600):
            n = rng.randint(1, 9)
            rows = [list(r) for r in random_matrix(rng, n).entries]
            if rng.random() < 0.3:
                rows[0][0] = 0
                seen["zero-pivot"] += 1
            if n > 1 and rng.random() < 0.2:
                i, j = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                rows[i] = [c * y for y in rows[j]]
            if rng.random() < 0.5:
                b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                seen["fraction-rhs"] += 1
            else:
                b = [rng.randint(-9, 9) for _ in range(n)]
            m = IntMatrix(rows)
            try:
                want = fraction_solve(m, b)
            except SingularMatrixError:
                seen["singular"] += 1
                with pytest.raises(SingularMatrixError):
                    solve(m, b)
                continue
            assert solve(m, b) == want
        assert all(count >= 50 for count in seen.values()), seen


class TestSignature:
    def test_fig2(self):
        assert signature(FIG2_M) == -1

    def test_reduced_exceptional(self):
        reduced = IntMatrix([
            [0, -1, -1, 0],
            [-1, -3, -1, 0],
            [-1, -1, -3, -1],
            [0, 0, -1, -2],
        ])
        assert signature(reduced) == -2

    def test_negative_identity(self):
        for k in range(1, 5):
            assert signature(IntMatrix.diagonal([-1] * k)) == -k

    def test_hyperbolic_plane(self):
        assert signature(IntMatrix([[0, 1], [1, 0]])) == 0
        assert signature(IntMatrix([[0, -2], [-2, 0]])) == 0

    def test_empty(self):
        assert signature(IntMatrix([])) == 0

    def test_general_family(self):
        from contactsurg.diagram import linking_matrix
        from contactsurg.families import exceptional_diagram, family_params_grid
        for n in range(2, 7):
            for s in range(2, 7):
                fp = next(iter(family_params_grid(n, s)))
                assert signature(linking_matrix(exceptional_diagram(fp))) == 1 - s

    def test_non_symmetric_rejected(self):
        with pytest.raises(DimensionError):
            signature(IntMatrix([[0, 1], [2, 0]]))

    def test_congruence_invariance_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_symmetric(rng, n)
            g = random_unimodular(rng, n)
            assert signature(g.transpose() @ m @ g) == signature(m)

    def test_signature_parity_and_nullity(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_symmetric(rng, n)
            sig = signature(m)
            rank = sum(1 for d in smith(m).diagonal() if d)
            nullity = n - rank
            assert abs(sig) + nullity <= n
            if det(m) != 0:
                assert (sig - n) % 2 == 0


class TestSmith:
    def test_rank_one(self):
        assert smith(IntMatrix([[-7]])).diagonal() == (7,)

    def test_section4_presentation(self):
        for m in range(1, 7):
            dec = smith(section4_full_matrix(m))
            assert dec.diagonal() == (1, 1, 1, 1, 1, 4 * m + 3)

    def test_diag_2_3(self):
        assert smith(IntMatrix.diagonal([2, 3])).diagonal() == (1, 6)

    def test_zero_matrix(self):
        dec = smith(IntMatrix([[0, 0], [0, 0]]))
        assert dec.diagonal() == (0, 0)

    def test_rectangular(self):
        m = IntMatrix([[2, 4, 4], [-6, 6, 12]])
        dec = smith(m)
        assert dec.verify(m)
        assert dec.d.rows == 2 and dec.d.cols == 3

    @given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-6, 6), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0], max_size=rc[0])))
    @settings(max_examples=80)
    def test_certificate_randomized(self, rows):
        m = IntMatrix(rows)
        dec = smith(m)
        assert dec.verify(m)

    def test_nonzero_product_matches_det(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n)
            d = det(m)
            if d == 0:
                continue
            prod = 1
            for x in smith(m).diagonal():
                prod *= x
            assert prod == abs(d)


class TestCokernel:
    def test_cyclic_presentation(self):
        assert cokernel_coordinates(IntMatrix([[-7]]), [1]) == ((7,), (1,))

    def test_section4_euler_class(self):
        for m in range(1, 5):
            for k in range(m):
                l = m - 1 - k
                mat = section4_full_matrix(m)
                rot = [0, 0, 0, 1, 1, l - k]
                mu_l = [2 * (l - k), 0, 0, 0, 0, 0]
                assert cokernel_coordinates(mat, rot) == cokernel_coordinates(mat, mu_l)

    def test_image_vanishes(self):
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n)
            w = [rng.randint(-3, 3) for _ in range(n)]
            _, coords = cokernel_coordinates(m, m.apply(w))
            assert all(c == 0 for c in coords)

    @given(small_squares, st.data())
    @settings(max_examples=60)
    def test_shift_invariance(self, rows, data):
        m = IntMatrix(rows)
        n = m.rows
        v = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        w = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        shifted = [vi + mwi for vi, mwi in zip(v, m.apply(w))]
        assert cokernel_coordinates(m, v) == cokernel_coordinates(m, shifted)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            cokernel_coordinates(IntMatrix([[1, 2]]), [1])
