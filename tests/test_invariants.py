from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactsurg.diagram import (
    DistinguishedKnot,
    LegendrianComponent,
    MissingKnotError,
    SurgeryDiagram,
    extended_matrix,
    linking_matrix,
    promote_knot,
)
from contactsurg.exactla import det, signature
from contactsurg.invariants import (
    D3PreconditionError,
    NonTorsionEulerClassError,
    c_squared,
    chi,
    d3,
    euler_class,
    q_plus,
    report,
    rot_surgered,
    tb_surgered,
)

from helpers import build_diagram, one_component_diagram
from test_diagram import diagrams


class TestCSquared:
    def test_fig2(self, fig2):
        assert c_squared(fig2) == 7

    def test_trefoil(self, trefoil_pos, trefoil_neg):
        assert c_squared(trefoil_pos) == Fraction(-1, 7)
        assert c_squared(trefoil_neg) == Fraction(-1, 7)

    def test_zero_rotations(self):
        d = build_diagram([("a", -2, 0, -1), ("b", -4, 0, -1)], {("a", "b"): 1})
        assert c_squared(d) == 0

    def test_singular(self):
        d = one_component_diagram(tb=-1, rot=1, coeff=1)  # framing 0
        with pytest.raises(NonTorsionEulerClassError):
            c_squared(d)


class TestD3:
    def test_fig2(self, fig2):
        assert d3(fig2) == Fraction(3, 2)

    def test_trefoils(self, trefoil_pos, trefoil_neg):
        assert d3(trefoil_pos) == Fraction(-2, 7)
        assert d3(trefoil_neg) == Fraction(-2, 7)

    def test_reduced_exceptional(self, fig2_reduced):
        assert d3(fig2_reduced) == 0

    def test_empty_is_standard_tight(self, empty_diagram):
        assert d3(empty_diagram) == Fraction(-1, 2)

    def test_precondition_refused(self):
        d = build_diagram([("a", 0, 1, 1), ("b", -2, 0, -1)], {("a", "b"): 0})
        with pytest.raises(D3PreconditionError):
            d3(d)

    def test_singular(self):
        d = one_component_diagram(tb=-1, rot=0, coeff=1)
        with pytest.raises(NonTorsionEulerClassError):
            d3(d)

    def test_one_component_closed_form(self):
        # unknot with topological framing -p and rotation r:
        # d3 = (r^2/(-p) + 3 - 4)/4, independently of how we reach it
        for p in range(2, 9):
            for r in range(-3, 4):
                d = one_component_diagram(tb=-p + 1, rot=r, coeff=-1)
                assert d.components[0].framing == -p
                assert d3(d) == (Fraction(r * r, -p) + 3 - 4) / 4

    @given(diagrams())
    @settings(max_examples=80)
    def test_formula_consistency(self, d):
        m = linking_matrix(d)
        if det(m) == 0 or any(c.coeff == 1 and c.tb == 0 for c in d.components):
            return
        lhs = 4 * (d3(d) - q_plus(d))
        rhs = c_squared(d) - 3 * signature(m) - 2 * chi(d)
        assert lhs == rhs

    @given(diagrams())
    @settings(max_examples=60)
    def test_global_rot_negation(self, d):
        m = linking_matrix(d)
        if det(m) == 0 or any(c.coeff == 1 and c.tb == 0 for c in d.components):
            return
        flipped = SurgeryDiagram(
            components=tuple(
                LegendrianComponent(id=c.id, tb=c.tb, rot=-c.rot, coeff=c.coeff)
                for c in d.components),
            linking=d.linking)
        assert d3(flipped) == d3(d)


class TestKnotInvariants:
    def test_fig2_tb(self, fig2):
        assert tb_surgered(fig2) == -6

    def test_fig2_rot(self, fig2):
        assert rot_surgered(fig2) == -7  # = -(4m+3) + 2(l-k) with m=1, k=l=0

    def test_unlinked_knot_keeps_invariants(self):
        base = build_diagram([("a", -2, 1, -1), ("b", -3, 1, -1)], {("a", "b"): 1})
        d = SurgeryDiagram(components=base.components, linking=base.linking,
                           knot=DistinguishedKnot(id="L", tb0=-4, rot0=3,
                                                  lk={"a": 0, "b": 0}))
        assert tb_surgered(d) == -4
        assert rot_surgered(d) == 3

    def test_zero_rotations_keep_rot0(self):
        base = build_diagram([("a", -2, 0, -1), ("b", -3, 0, -1)], {("a", "b"): 1})
        d = SurgeryDiagram(components=base.components, linking=base.linking,
                           knot=DistinguishedKnot(id="L", tb0=-1, rot0=2,
                                                  lk={"a": 1, "b": -1}))
        assert rot_surgered(d) == 2

    @given(diagrams(knot=True))
    @settings(max_examples=80)
    def test_tb_matches_det_ratio(self, d):
        det_m = det(linking_matrix(d))
        assume(det_m != 0)
        assert tb_surgered(d) == d.knot.tb0 + Fraction(det(extended_matrix(d)), det_m)

    def test_missing_knot(self, trefoil_pos):
        with pytest.raises(MissingKnotError):
            tb_surgered(trefoil_pos)
        with pytest.raises(MissingKnotError):
            rot_surgered(trefoil_pos)

    def test_reordering_invariance(self, fig2):
        reordered = SurgeryDiagram(
            components=tuple(fig2.components[i] for i in (4, 2, 0, 1, 3)),
            linking=fig2.linking, knot=fig2.knot)
        assert tb_surgered(reordered) == tb_surgered(fig2)
        assert rot_surgered(reordered) == rot_surgered(fig2)
        assert d3(reordered) == d3(fig2)


class TestEulerClass:
    def test_single_unknot_residues(self):
        for p in range(2, 8):
            for r in range(-2, 3):
                d = one_component_diagram(tb=-p + 1, rot=r, coeff=-1)
                rep = report(d)
                assert rep.h1 == (p,)
                assert rep.euler_residue == r % p

    def test_zero_rot_zero_class(self):
        d = build_diagram([("a", -2, 0, -1), ("b", -3, 0, -1)], {("a", "b"): 0})
        orders, coords = euler_class(d)
        assert all(c == 0 for c in coords)

    @given(diagrams(), st.data())
    @settings(max_examples=50)
    def test_shift_by_relations(self, d, data):
        n = len(d.components)
        m = linking_matrix(d)
        w = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        shift = m.apply(w)
        shifted = SurgeryDiagram(
            components=tuple(
                LegendrianComponent(id=c.id, tb=c.tb, rot=c.rot + s, coeff=c.coeff)
                for c, s in zip(d.components, shift)),
            linking=d.linking)
        assert euler_class(shifted) == euler_class(d)


class TestReport:
    def test_fig2(self, fig2):
        rep = report(fig2)
        assert rep.chi == 6
        assert rep.sigma == -1
        assert rep.det_m == -1
        assert rep.q_plus == 2
        assert rep.c_squared == 7
        assert rep.d3 == Fraction(3, 2)
        assert rep.h1 == ()
        assert rep.problems == ()

    def test_empty(self, empty_diagram):
        rep = report(empty_diagram)
        assert rep.chi == 1
        assert rep.sigma == 0
        assert rep.d3 == Fraction(-1, 2)
        assert rep.h1 == ()
        assert rep.euler_residue == 0

    def test_surgered_fig2(self, fig2):
        rep = report(promote_knot(fig2))
        assert rep.chi == 7
        assert rep.h1 == (7,)
        assert rep.d3 == 0
        assert rep.euler_generator == "L"
        assert rep.euler_residue == 0

    def test_partial_on_singular(self):
        rep = report(one_component_diagram(tb=-1, rot=1, coeff=1))
        assert rep.c_squared is None and rep.d3 is None
        assert any("singular" in p for p in rep.problems)
        assert rep.h1 == (0,)  # a zero-framed unknot leaves a free factor

    def test_partial_on_precondition(self):
        d = build_diagram([("a", 0, 1, 1), ("b", -2, 0, -1)], {("a", "b"): 0})
        rep = report(d)
        assert rep.c_squared is not None
        assert rep.d3 is None
        assert any("d3-precondition" in p for p in rep.problems)
