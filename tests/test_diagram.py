import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurg.diagram import (
    DiagramFormatError,
    DiagramValidationError,
    DistinguishedKnot,
    LegendrianComponent,
    MissingKnotError,
    SurgeryDiagram,
    diagram_from_json,
    diagram_to_json,
    extended_matrix,
    linking_matrix,
    load_diagram,
    promote_knot,
    validate,
)
from contactsurg.exactla import IntMatrix, det, signature, smith

from helpers import FIG2_M, FIG2_M0, FIXTURES, build_diagram, one_component_diagram


@st.composite
def diagrams(draw, max_components=5, knot=False):
    n = draw(st.integers(0, max_components))
    comps = tuple(
        LegendrianComponent(
            id=f"c{i}",
            tb=draw(st.integers(-3, 3)),
            rot=draw(st.integers(-2, 2)),
            coeff=draw(st.sampled_from((1, -1))),
        )
        for i in range(n))
    linking = {}
    for i in range(n):
        for j in range(i + 1, n):
            linking[(f"c{i}", f"c{j}")] = draw(st.integers(-2, 2))
    k = None
    if knot:
        k = DistinguishedKnot(
            id="L", tb0=draw(st.integers(-6, -1)), rot0=draw(st.integers(-3, 3)),
            lk={c.id: draw(st.integers(-2, 2)) for c in comps})
    return SurgeryDiagram(components=comps, linking=linking, knot=k)


class TestLinkingMatrix:
    def test_fig2(self, fig2):
        assert linking_matrix(fig2) == FIG2_M

    def test_single_unknot(self):
        assert linking_matrix(one_component_diagram(-6, 1)) == IntMatrix([[-7]])

    def test_empty(self, empty_diagram):
        m = linking_matrix(empty_diagram)
        assert m.rows == 0 and m.cols == 0

    def test_missing_pair(self):
        d = build_diagram([("a", -1, 0, -1), ("b", -1, 0, -1)], {})
        with pytest.raises(DiagramValidationError):
            linking_matrix(d)

    def test_asymmetric_conflict(self):
        d = build_diagram([("a", -1, 0, -1), ("b", -1, 0, -1)],
                          {("a", "b"): 1, ("b", "a"): 2})
        with pytest.raises(DiagramValidationError):
            linking_matrix(d)

    @given(diagrams())
    @settings(max_examples=60)
    def test_symmetric(self, d):
        m = linking_matrix(d)
        assert m.is_symmetric()

    def test_reordering_conjugates(self, fig2):
        base = linking_matrix(fig2)
        for perm in itertools.islice(itertools.permutations(range(5)), 0, 24, 5):
            reordered = SurgeryDiagram(
                components=tuple(fig2.components[i] for i in perm),
                linking=fig2.linking, knot=fig2.knot)
            m = linking_matrix(reordered)
            assert det(m) == det(base)
            assert signature(m) == signature(base)
            assert smith(m).diagonal() == smith(base).diagonal()


class TestExtendedMatrix:
    def test_fig2(self, fig2):
        assert extended_matrix(fig2) == FIG2_M0

    def test_restriction_is_linking_matrix(self, fig2):
        m0 = extended_matrix(fig2)
        inner = m0.submatrix(range(1, 6), range(1, 6))
        assert inner == linking_matrix(fig2)
        assert m0[0, 0] == 0

    def test_unlinked_knot_block_structure(self):
        d = build_diagram([("a", -2, 1, -1), ("b", -3, 0, -1)], {("a", "b"): 1})
        d = SurgeryDiagram(components=d.components, linking=d.linking,
                           knot=DistinguishedKnot(id="L", tb0=-1, rot0=0,
                                                  lk={"a": 0, "b": 0}))
        m0 = extended_matrix(d)
        assert m0.row(0) == (0, 0, 0)
        assert m0.column(0) == (0, 0, 0)
        assert det(m0) == 0

    def test_missing_knot(self, trefoil_pos):
        with pytest.raises(MissingKnotError):
            extended_matrix(trefoil_pos)


class TestPromoteKnot:
    def test_fig2_promotion(self, fig2):
        promoted = promote_knot(fig2)
        assert promoted.knot is None
        assert promoted.components[0].id == "L"
        assert promoted.components[0].framing == -2
        m = linking_matrix(promoted)
        # the knot column agrees with the extended matrix except the corner
        assert m.row(0)[1:] == extended_matrix(fig2).row(0)[1:]
        assert m[0, 0] == -2

    def test_requires_knot(self, trefoil_pos):
        with pytest.raises(MissingKnotError):
            promote_knot(trefoil_pos)


class TestValidate:
    def test_fig2_clean(self, fig2):
        assert validate(fig2) == []

    def test_tb_zero_plus_one_warning(self):
        d = build_diagram([("a", 0, 0, 1)], {})
        found = validate(d)
        assert len(found) == 1
        assert found[0].code == "d3-precondition"
        assert not found[0].fatal

    def test_asymmetric_linking(self):
        d = build_diagram([("a", -1, 0, -1), ("b", -1, 0, -1)],
                          {("a", "b"): 1, ("b", "a"): 2})
        assert any(v.code == "linking-symmetry" for v in validate(d))

    def test_missing_linking(self):
        d = build_diagram([("a", -1, 0, -1), ("b", -1, 0, -1)], {})
        assert any(v.code == "linking-missing" for v in validate(d))

    def test_duplicate_ids(self):
        d = build_diagram([("a", -1, 0, -1), ("a", -2, 0, -1)], {("a", "a"): 0})
        codes = {v.code for v in validate(d)}
        assert "component-ids" in codes

    def test_bad_coeff(self):
        d = build_diagram([("a", -1, 0, 2)], {})
        assert any(v.code == "contact-coeff" for v in validate(d))

    def test_knot_id_collision(self):
        d = build_diagram([("a", -1, 0, -1)], {})
        d = SurgeryDiagram(components=d.components, linking={},
                           knot=DistinguishedKnot(id="a", tb0=-1, rot0=0, lk={"a": 0}))
        assert any(v.code == "knot-id" for v in validate(d))

    def test_knot_lk_coverage(self):
        d = build_diagram([("a", -1, 0, -1)], {})
        d = SurgeryDiagram(components=d.components, linking={},
                           knot=DistinguishedKnot(id="L", tb0=-1, rot0=0, lk={}))
        assert any(v.code == "knot-lk" for v in validate(d))


class TestJsonFormat:
    def test_fixtures_load(self):
        for name in ("fig2", "fig2_reduced", "trefoil_tb-6_rot1",
                     "trefoil_tb-6_rot-1", "empty"):
            d = load_diagram(FIXTURES / f"{name}.json")
            assert validate(d) == []

    def test_roundtrip(self, fig2):
        again = diagram_from_json(diagram_to_json(fig2))
        assert again.components == fig2.components
        assert again.knot == fig2.knot
        assert linking_matrix(again) == linking_matrix(fig2)

    def test_unknown_top_level_field(self):
        with pytest.raises(DiagramFormatError):
            diagram_from_json({"components": [], "linking": [], "extra": 1})

    def test_unknown_component_field(self):
        with pytest.raises(DiagramFormatError):
            diagram_from_json({
                "components": [{"id": "a", "tb": -1, "rot": 0, "coeff": -1, "x": 0}],
                "linking": []})

    def test_duplicate_pair(self):
        obj = {
            "components": [
                {"id": "a", "tb": -1, "rot": 0, "coeff": -1},
                {"id": "b", "tb": -1, "rot": 0, "coeff": -1}],
            "linking": [
                {"a": "a", "b": "b", "lk": 0},
                {"a": "b", "b": "a", "lk": 0}]}
        with pytest.raises(DiagramFormatError):
            diagram_from_json(obj)

    def test_missing_pair(self):
        obj = {
            "components": [
                {"id": "a", "tb": -1, "rot": 0, "coeff": -1},
                {"id": "b", "tb": -1, "rot": 0, "coeff": -1}],
            "linking": []}
        with pytest.raises(DiagramFormatError):
            diagram_from_json(obj)

    def test_bad_coeff_value(self):
        obj = {"components": [{"id": "a", "tb": -1, "rot": 0, "coeff": 3}],
               "linking": []}
        with pytest.raises(DiagramFormatError):
            diagram_from_json(obj)

    def test_bool_is_not_an_integer(self):
        obj = {"components": [{"id": "a", "tb": True, "rot": 0, "coeff": -1}],
               "linking": []}
        with pytest.raises(DiagramFormatError):
            diagram_from_json(obj)

    def test_knot_lk_must_cover_components(self):
        obj = {
            "components": [{"id": "a", "tb": -1, "rot": 0, "coeff": -1}],
            "linking": [],
            "knot": {"id": "L", "tb0": -1, "rot0": 0, "lk": {}}}
        with pytest.raises(DiagramFormatError):
            diagram_from_json(obj)

    @pytest.mark.parametrize("code, obj", [
        ("component-ids", {"components": [
            {"id": "a", "tb": -1, "rot": 0, "coeff": -1},
            {"id": "a", "tb": -2, "rot": 0, "coeff": -1}], "linking": []}),
        ("contact-coeff", {"components": [
            {"id": "a", "tb": -1, "rot": 0, "coeff": 2}], "linking": []}),
        ("linking-ids", {"components": [
            {"id": "a", "tb": -1, "rot": 0, "coeff": -1}],
            "linking": [{"a": "a", "b": "z", "lk": 1}]}),
        ("linking-missing", {"components": [
            {"id": "a", "tb": -1, "rot": 0, "coeff": -1},
            {"id": "b", "tb": -1, "rot": 0, "coeff": -1}], "linking": []}),
        ("knot-id", {"components": [
            {"id": "a", "tb": -1, "rot": 0, "coeff": -1}], "linking": [],
            "knot": {"id": "a", "tb0": -1, "rot0": 0, "lk": {"a": 0}}}),
        ("knot-lk", {"components": [
            {"id": "a", "tb": -1, "rot": 0, "coeff": -1}], "linking": [],
            "knot": {"id": "L", "tb0": -1, "rot0": 0, "lk": {"a": 0, "z": 1}}}),
    ])
    def test_fatal_validation_is_a_format_error(self, code, obj):
        with pytest.raises(DiagramFormatError, match=code):
            diagram_from_json(obj)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(DiagramFormatError):
            load_diagram(path)

    def test_emitted_file_parses(self, fig2, tmp_path):
        from contactsurg.diagram import save_diagram
        path = tmp_path / "out.json"
        save_diagram(fig2, path)
        obj = json.loads(path.read_text())
        assert set(obj) == {"components", "linking", "knot"}
        assert diagram_from_json(obj).components == fig2.components
