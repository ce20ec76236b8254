from fractions import Fraction

import pytest

from contactsurg.diagram import extended_matrix, linking_matrix, validate
from contactsurg.exactla import det, signature, solve
from contactsurg.families import (
    FamilyParams,
    FamilyParamsError,
    census,
    distinctness_bounds,
    exceptional_diagram,
    exceptional_expectations,
    exceptional_x_vector,
    family_params_grid,
    standard_diagram,
    standard_realizations,
    standard_rot_range,
    surgered_diagram,
)
from contactsurg.invariants import c_squared, d3, report, rot_surgered, tb_surgered
from contactsurg.lens import LensSpace, tight_count

from helpers import FIG2_M, FIG2_M0

FIG2_PARAMS = FamilyParams(n=2, s=2, k=0, l=0, p_stab=0, q_stab=1)


class TestFamilyParams:
    @pytest.mark.parametrize("kwargs", [
        dict(n=1, s=2, k=0, l=0, p_stab=0, q_stab=1),
        dict(n=2, s=1, k=0, l=0, p_stab=0, q_stab=0),
        dict(n=3, s=2, k=0, l=0, p_stab=0, q_stab=1),   # k + l != n - 2
        dict(n=2, s=3, k=0, l=0, p_stab=2, q_stab=0),   # q_stab must be >= 1
        dict(n=2, s=3, k=0, l=0, p_stab=0, q_stab=1),   # p + q != s - 1
        dict(n=2, s=2, k=-1, l=1, p_stab=0, q_stab=1),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(FamilyParamsError):
            FamilyParams(**kwargs)

    def test_grid_size(self):
        for n in range(2, 8):
            for s in range(2, 8):
                assert sum(1 for _ in family_params_grid(n, s)) == (s - 1) * (n - 1)


class TestStandardRealizations:
    def test_l74_pair(self):
        assert standard_rot_range(2, 2) == (-1, 1)
        for real in standard_realizations(2, 2):
            assert real.tb == -6

    def test_s2_odd_range(self):
        for n in range(2, 8):
            m = n - 1
            assert standard_rot_range(n, 2) == tuple(range(-2 * m + 1, 2 * m, 2))

    def test_s1_unknots(self):
        for n in range(2, 8):
            assert standard_rot_range(n, 1) == tuple(range(-n + 2, n - 1, 2))
            assert all(r.tb == -(n - 1) for r in standard_realizations(n, 1))

    def test_counts(self):
        for n in range(2, 9):
            for s in range(2, 9):
                assert len(standard_rot_range(n, s)) == 2 * (n - 1)
            assert len(standard_rot_range(n, 1)) == n - 1

    def test_standard_diagram_presents_the_lens_space(self):
        for n in range(2, 5):
            for s in range(1, 5):
                rot = standard_rot_range(n, s)[0]
                rep = report(standard_diagram(n, s, rot))
                assert rep.h1 == (n * s * s - s + 1,)


class TestExceptionalDiagram:
    def test_fig2_matrices(self):
        d = exceptional_diagram(FIG2_PARAMS)
        assert validate(d) == []
        assert linking_matrix(d) == FIG2_M
        assert extended_matrix(d) == FIG2_M0
        assert d.rot_vector() == (0, 0, 1, 1, 0)
        assert d.knot.tb0 == -1 and d.knot.rot0 == 0

    def test_s2_general_n_matrix(self):
        for n in range(2, 7):
            fp = FamilyParams(n=n, s=2, k=n - 2, l=0, p_stab=0, q_stab=1)
            m = linking_matrix(exceptional_diagram(fp))
            # only the last diagonal entry differs from the L(7,4) matrix
            assert m[4, 4] == -n
            for i in range(5):
                for j in range(5):
                    if (i, j) != (4, 4):
                        assert m[i, j] == FIG2_M[i, j]

    def test_component_count_and_validity(self):
        for n in range(2, 6):
            for s in range(2, 6):
                for fp in family_params_grid(n, s):
                    d = exceptional_diagram(fp)
                    assert len(d.components) == s + 3
                    assert validate(d) == []

    def test_surgered_diagram_shape(self):
        d = surgered_diagram(FIG2_PARAMS)
        assert d.knot is None
        assert d.components[0].id == "L"
        assert d.components[0].framing == -2


class TestExpectations:
    def test_fig2_values(self):
        e = exceptional_expectations(FIG2_PARAMS)
        assert e.d3_sphere == Fraction(3, 2)
        assert e.tb == -6
        assert e.c2 == 7
        assert e.euler == 0
        assert (e.chi, e.sigma, e.det_m, e.det_m0) == (6, -1, -1, 5)

    def test_section4_d3_is_2k_plus_3_halves(self):
        for m in range(1, 6):
            for k in range(m):
                fp = FamilyParams(n=m + 1, s=2, k=k, l=m - 1 - k, p_stab=0, q_stab=1)
                assert exceptional_expectations(fp).d3_sphere == 2 * k + Fraction(3, 2)
                assert d3(exceptional_diagram(fp)) == 2 * k + Fraction(3, 2)

    def test_pipeline_matches_closed_forms(self):
        for n in range(2, 5):
            for s in range(2, 5):
                for fp in family_params_grid(n, s):
                    d = exceptional_diagram(fp)
                    e = exceptional_expectations(fp)
                    m = linking_matrix(d)
                    assert det(m) == e.det_m
                    assert det(extended_matrix(d)) == e.det_m0
                    assert signature(m) == e.sigma
                    assert c_squared(d) == e.c2
                    assert d3(d) == e.d3_sphere
                    assert tb_surgered(d) == e.tb
                    assert rot_surgered(d) % fp.lens_order == e.euler
                    assert tuple(solve(m, d.rot_vector())) == tuple(
                        Fraction(x) for x in exceptional_x_vector(fp))

    def test_overtwistedness_witness(self):
        for n in range(2, 7):
            for s in range(2, 7):
                for fp in family_params_grid(n, s):
                    assert exceptional_expectations(fp).d3_sphere > Fraction(-1, 2)


class TestCensus:
    def test_l74(self):
        c = census(2, 2)
        assert c.lens == LensSpace(7, 4)
        assert c.expected_count == 3
        assert sorted(c.class_labels()) == [0, 1, 6]
        assert c.problems() == []
        standard_d3 = {row.d3 for row in c.standard}
        assert standard_d3 == {Fraction(-2, 7)}
        assert c.exceptional[0].d3 == 0

    def test_s1_standard_only(self):
        for n in range(2, 7):
            c = census(n, 1)
            assert c.exceptional == ()
            assert len(c.standard) == n - 1 == c.expected_count
            assert c.problems() == []

    def test_s1_labels_are_chern_classes_not_residues(self):
        # on L(4,1) the rotations -2 and 2 reduce to the same Euler class;
        # the structures are still distinguished, by the Chern class of the
        # Stein filling, so the census labels s=1 rows by rot itself
        c = census(4, 1)
        residues = [row.residue for row in c.standard]
        assert len(set(residues)) < len(residues)
        assert len(set(c.class_labels())) == len(c.standard)

    def test_s2_exceptional_residue_pattern(self):
        # for s=2 the exceptional classes land on -2m+2, -2m+6, ..., 2m-2
        for n in range(2, 7):
            m = n - 1
            order = 4 * m + 3
            c = census(n, 2)
            residues = sorted(row.residue for row in c.exceptional)
            expected = sorted(e % order for e in range(-2 * m + 2, 2 * m - 1, 4))
            assert residues == expected

    def test_partition_and_counts(self):
        for n in range(2, 6):
            for s in range(2, 6):
                c = census(n, s)
                assert len(c.standard) == 2 * (n - 1)
                assert len(c.exceptional) == (s - 1) * (n - 1)
                assert c.expected_count == tight_count(c.lens)
                assert c.problems() == []

    def test_census_rejects_bad_parameters(self):
        with pytest.raises(FamilyParamsError):
            census(1, 1)
        with pytest.raises(FamilyParamsError):
            census(3, 0)


class TestDistinctnessBounds:
    def test_l74_degenerate_window(self):
        b = distinctness_bounds(2, 2)
        assert b.e_min == 0 and b.e_max == 0
        assert b.all_pass()

    def test_grid(self):
        for n in range(2, 7):
            for s in range(2, 7):
                b = distinctness_bounds(n, s)
                assert b.all_pass(), (n, s, [name for name, ok in b.checks if not ok])

    def test_requires_s_at_least_2(self):
        with pytest.raises(FamilyParamsError):
            distinctness_bounds(2, 1)
