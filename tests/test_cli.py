import json
from fractions import Fraction

import pytest

from contactsurg import cli

from helpers import FIXTURES


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_fig2_golden(self, capsys):
        code, out, _ = run(capsys, "invariants", FIXTURES / "fig2.json")
        assert code == 0
        for line in ("chi = 6", "sigma = -1", "det M = -1", "q = 2",
                     "c2 = 7", "d3 = 3/2", "H1 = trivial"):
            assert line in out

    def test_trefoil_golden(self, capsys):
        code, out, _ = run(capsys, "invariants", FIXTURES / "trefoil_tb-6_rot1.json")
        assert code == 0
        assert "d3 = -2/7" in out
        assert "c2 = -1/7" in out
        assert "H1 = Z_7" in out
        assert "euler residue = 1 (generator: meridian of T)" in out

    def test_trefoil_negative_rotation(self, capsys):
        code, out, _ = run(capsys, "invariants", FIXTURES / "trefoil_tb-6_rot-1.json")
        assert code == 0
        assert "euler residue = 6" in out

    def test_empty_diagram(self, capsys):
        code, out, _ = run(capsys, "invariants", FIXTURES / "empty.json")
        assert code == 0
        assert "d3 = -1/2" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "invariants", FIXTURES / "fig2.json",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["chi"] == 6
        assert obj["sigma"] == -1
        assert Fraction(obj["d3"]) == Fraction(3, 2)
        assert Fraction(obj["c_squared"]) == 7
        assert obj["h1"] == []
        # parse -> format -> parse is the identity on every field
        code2, out2, _ = run(capsys, "invariants", FIXTURES / "fig2.json",
                             "--format", "json")
        assert json.loads(out2) == obj

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "invariants", FIXTURES / "nope.json")
        assert code == 2
        assert err

    def test_invalid_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"components": [], "linking": [], "junk": 1}')
        code, _, err = run(capsys, "invariants", path)
        assert code == 2
        assert "junk" in err

    @pytest.mark.parametrize("data", [
        b'{"components": [\xff\xfe], "linking": []}',
        b'{"components": [{"id": "a", "tb": 7' + b"3" * 4400
        + b', "rot": 0, "coeff": -1}], "linking": []}',
        b'{"components": ' + b"[" * 50000 + b"]" * 50000 + b', "linking": []}',
    ], ids=["non-utf8", "long-int", "deep-nesting"])
    def test_hostile_file_exit_code(self, capsys, tmp_path, data):
        path = tmp_path / "hostile.json"
        path.write_bytes(data)
        code, _, err = run(capsys, "invariants", path)
        assert code == 2
        assert err and "Traceback" not in err

    def test_singular_matrix_exit_code(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "components": [{"id": "a", "tb": -1, "rot": 1, "coeff": 1}],
            "linking": []}))
        code, out, err = run(capsys, "invariants", path)
        assert code == 3
        assert "singular" in err
        assert "chi = 2" in out  # partial report still printed

    def test_tb_zero_precondition_exit_code(self, capsys, tmp_path):
        path = tmp_path / "tbzero.json"
        path.write_text(json.dumps({
            "components": [
                {"id": "a", "tb": 0, "rot": 1, "coeff": 1},
                {"id": "b", "tb": -2, "rot": 0, "coeff": -1}],
            "linking": [{"a": "a", "b": "b", "lk": 0}]}))
        code, _, err = run(capsys, "invariants", path)
        assert code == 3
        assert "d3-precondition" in err


class TestKnotCommand:
    def test_fig2(self, capsys):
        code, out, _ = run(capsys, "knot", FIXTURES / "fig2.json")
        assert code == 0
        assert "tb = -6" in out
        assert "rot = -7" in out

    def test_no_knot_exit_code(self, capsys):
        code, _, err = run(capsys, "knot", FIXTURES / "empty.json")
        assert code == 4
        assert err

    def test_singular_matrix_exit_code(self, capsys, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "components": [{"id": "a", "tb": -1, "rot": 1, "coeff": 1}],
            "linking": [],
            "knot": {"id": "L", "tb0": -5, "rot0": 2, "lk": {"a": 1}}}))
        code, _, err = run(capsys, "knot", path)
        assert code == 3
        assert "singular" in err

    def test_unlinked_knot(self, capsys, tmp_path):
        path = tmp_path / "unlinked.json"
        path.write_text(json.dumps({
            "components": [{"id": "a", "tb": -3, "rot": 1, "coeff": -1}],
            "linking": [],
            "knot": {"id": "L", "tb0": -5, "rot0": 2, "lk": {"a": 0}}}))
        code, out, _ = run(capsys, "knot", path)
        assert code == 0
        assert "tb = -5" in out
        assert "rot = 2" in out


class TestNumberCommands:
    def test_contfrac(self, capsys):
        code, out, _ = run(capsys, "contfrac", 7, 4)
        assert code == 0
        assert "[2, 4]" in out

    def test_contfrac_invalid(self, capsys):
        code, _, err = run(capsys, "contfrac", 4, 2)
        assert code == 2
        assert err

    def test_tight_count(self, capsys):
        code, out, _ = run(capsys, "tight-count", 7, 4)
        assert code == 0
        assert out.strip() == "3"


class TestFamilyCommand:
    def test_family_then_knot(self, capsys, tmp_path):
        emitted = tmp_path / "family.json"
        code, out, _ = run(capsys, "family", "--n", 3, "--s", 2, "--k", 1,
                           "--l", 0, "--pstab", 0, "--qstab", 1,
                           "--emit", emitted)
        assert code == 0
        assert "tb = -10" in out
        code, out, _ = run(capsys, "knot", emitted)
        assert code == 0
        assert "tb = -10" in out

    def test_family_bad_params(self, capsys):
        code, _, err = run(capsys, "family", "--n", 3, "--s", 2, "--k", 0,
                           "--l", 0, "--pstab", 0, "--qstab", 1)
        assert code == 2
        assert err


class TestCensusCommand:
    def test_l74(self, capsys):
        code, out, _ = run(capsys, "census", "--n", 2, "--s", 2)
        assert code == 0
        assert "L(7,4): expected tight structures = 3" in out
        assert "census ok: 3 distinct classes" in out
        assert out.count("standard") == 2
        assert out.count("exceptional") == 1

    def test_s1_rows(self, capsys):
        code, out, _ = run(capsys, "census", "--n", 4, "--s", 1)
        assert code == 0
        assert out.count("standard") == 3

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "census", "--n", 2, "--s", 2,
                           "--grid", 3, 3)
        assert code == 0
        assert out.count("ok") == 6  # n in {2,3} x s in {1,2,3}

    def test_duplicate_class_exits_5(self, capsys, monkeypatch):
        from contactsurg import families

        real_census = families.census

        def broken(n, s):
            c = real_census(n, s)
            doubled = c.standard + (c.standard[0],)
            return families.TightStructureCensus(
                n=c.n, s=c.s, lens=c.lens, standard=doubled,
                exceptional=c.exceptional, expected_count=c.expected_count)

        monkeypatch.setattr(cli, "census", broken)
        code, _, err = run(capsys, "census", "--n", 2, "--s", 2)
        assert code == 5
        assert "duplicate class" in err

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "census", "--n", 1, "--s", 1)
        assert code == 2
        assert err


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
