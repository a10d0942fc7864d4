import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pexpfan import catalog, cli
from pexpfan.cli import run
from pexpfan.errors import ResolutionCheckFailed, ResultCheckFailed
from pexpfan.fan import Fan, SubdivisionMap, resolve
from pexpfan.laurent import LaurentPoly, format_poly, poly_from_json
from pexpfan.pexp import pexp_to_json

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
GOLDEN = REPO / "tests" / "golden"
# the data/ arguments of the cli benchmark, relative to the repository root
DATA_FAN, DATA_CLASS = "data/p112_fan.json", "data/p112_class.json"
DATA_SPANNING, DATA_CONES = "data/p112_spanning.json", "data/p112_duality_cones.json"


def invoke(argv, capsys):
    code = run([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def data_files(tmp_path):
    """Self-contained copies of the demo inputs plus a corrupted variant."""
    fan = catalog.weighted_p112()
    fan_path = tmp_path / "fan.json"
    fan_path.write_text(json.dumps(fan.to_json()) + "\n")

    xi = catalog.p112_demo_class(fan)
    xi_path = tmp_path / "class.json"
    xi_path.write_text(json.dumps(pexp_to_json(xi)) + "\n")

    spans = catalog.p112_spanning_classes(fan)
    spans_path = tmp_path / "spanning.json"
    spans_path.write_text(json.dumps([pexp_to_json(g) for g in spans]) + "\n")

    cones_path = tmp_path / "cones.json"
    cones_path.write_text(json.dumps([[], [[-1, -2]], [[1, 0], [-1, -2]]]) + "\n")

    corrupted = pexp_to_json(xi)
    corrupted["values"][0]["terms"][0]["exp"] = [5, 0]  # perturb one exponent
    bad_path = tmp_path / "corrupted.json"
    bad_path.write_text(json.dumps(corrupted) + "\n")

    sub = resolve(fan)
    map_path = tmp_path / "resolution.json"
    map_path.write_text(json.dumps(sub.to_json()) + "\n")
    from pexpfan.pexp import pullback

    fine_path = tmp_path / "fine_class.json"
    fine_path.write_text(json.dumps(pexp_to_json(pullback(xi, sub))) + "\n")

    return {
        "fan": fan_path,
        "class": xi_path,
        "spanning": spans_path,
        "cones": cones_path,
        "corrupted": bad_path,
        "map": map_path,
        "fine": fine_path,
        "tmp": tmp_path,
    }


class TestHappyPaths:
    def test_validate_fan(self, data_files, capsys):
        code, out = invoke(["validate-fan", "--fan", data_files["fan"]], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_chi_is_pinned_value(self, data_files, capsys):
        code, out = invoke(
            ["chi", "--fan", data_files["fan"], "--pexp", data_files["class"]], capsys
        )
        assert code == 0
        assert json.loads(out)["result"] == {"rank": 2, "terms": []}

    def test_decompose_matches_worked_identity(self, data_files, capsys):
        code, out = invoke(
            [
                "decompose",
                "--fan", data_files["fan"],
                "--pexp", data_files["class"],
                "--basis", data_files["spanning"],
            ],
            capsys,
        )
        assert code == 0
        coeffs = json.loads(out)["result"]["coefficients"]
        assert coeffs[0]["terms"] == [
            {"coeff": 1, "exp": [0, 1]},
            {"coeff": 1, "exp": [1, 0]},
        ]
        assert coeffs[1]["terms"] == [
            {"coeff": 1, "exp": [-2, 1]},
            {"coeff": 1, "exp": [-1, 0]},
        ]
        assert coeffs[2]["terms"] == [
            {"coeff": 1, "exp": [0, 0]},
            {"coeff": 1, "exp": [1, -1]},
        ]

    def test_restrict_text(self, data_files, capsys):
        code, out = invoke(
            [
                "restrict", "--format", "text",
                "--fan", data_files["fan"],
                "--pexp", data_files["class"],
                "--cone", "[[-1,-2]]",
            ],
            capsys,
        )
        assert code == 0
        assert out == "1*e^[0] + 1*e^[1]\n"

    def test_pair_and_gram(self, data_files, capsys):
        code, out = invoke(
            [
                "pair",
                "--fan", data_files["fan"],
                "--pexp", data_files["class"],
                "--cone", "[]",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"] == {"rank": 2, "terms": []}
        code, out = invoke(
            [
                "gram",
                "--fan", data_files["fan"],
                "--functions", data_files["spanning"],
                "--cones", data_files["cones"],
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["rows"] == ["f0", "f1", "f2"]

    def test_resolve_and_descend_roundtrip(self, data_files, capsys):
        code, out = invoke(
            [
                "descend",
                "--map", data_files["map"],
                "--pexp", data_files["fine"],
            ],
            capsys,
        )
        assert code == 0
        got = json.loads(out)["result"]["values"]
        original = json.loads(data_files["class"].read_text())["values"]
        assert got == original

    def test_dual_basis(self, data_files, capsys):
        code, out = invoke(
            [
                "dual-basis",
                "--fan", data_files["fan"],
                "--spanning", data_files["spanning"],
                "--cones", data_files["cones"],
            ],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["result"]["functions"]) == 3

    def test_gram_text_is_the_golden_matrix(self, capsys):
        code, out = invoke(
            ["gram", "--format", "text", "--fan", DATA / "p112_fan.json",
             "--functions", DATA / "p112_spanning.json", "--cones", DATA / "p112_duality_cones.json"],
            capsys,
        )
        assert code == 0
        golden = json.loads((GOLDEN / "p112_gram.json").read_text())
        lines = ["\t" + "\t".join(golden["cols"])]
        for label, row in zip(golden["rows"], golden["entries"]):
            lines.append(label + "\t" + "\t".join(format_poly(poly_from_json(e)) for e in row))
        assert out == "\n".join(lines) + "\n"

    def test_decompose_text_pairs_to_the_golden_chi(self, capsys):
        # chi(xi) = sum_i c_i <f_i, [O_X]>, with the pairings the golden
        # Gram's column of the zero cone
        code, out = invoke(
            ["decompose", "--format", "text", "--fan", DATA / "p112_fan.json",
             "--pexp", DATA / "p112_class.json", "--basis", DATA / "p112_spanning.json"],
            capsys,
        )
        assert code == 0
        assert out == "1*e^[0,1] + 1*e^[1,0]\n1*e^[-2,1] + 1*e^[-1,0]\n1*e^[0,0] + 1*e^[1,-1]\n"
        coeffs = [
            LaurentPoly.from_dict(2, {tuple(map(int, e.split(","))): int(c)
                                      for c, e in re.findall(r"(-?\d+)\*e\^\[([^]]*)\]", line)})
            for line in out.splitlines()
        ]
        golden = json.loads((GOLDEN / "p112_gram.json").read_text())
        assert golden["cols"][0] == "cone[]"
        chi = sum((c * poly_from_json(row[0]) for c, row in zip(coeffs, golden["entries"])),
                  LaurentPoly.zero(2))
        assert chi == poly_from_json(json.loads((GOLDEN / "p112_chi_demo_class.json").read_text()))

    @pytest.mark.parametrize("argv", [
        ["restrict", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--cone", "[[-1,-2]]"],
        ["chi", "--fan", DATA_FAN, "--pexp", DATA_CLASS],
        ["pair", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--cone", "[]"],
        ["pair", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--cone", "[[-1,-2]]"],
    ], ids=["restrict", "chi", "pair-origin", "pair-ray"])
    def test_polynomial_text_is_the_formatted_result(self, argv, capsys, monkeypatch):
        monkeypatch.chdir(REPO)
        code, out = invoke(argv, capsys)
        assert invoke([*argv, "--format", "text"], capsys) == (
            code, format_poly(poly_from_json(json.loads(out)["result"])) + "\n")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["validate-fan", "--fan", DATA_FAN],
        ["resolve", "--fan", DATA_FAN],
        ["gkm-check", "--pexp", DATA_CLASS],
        ["dual-basis", "--fan", DATA_FAN, "--spanning", DATA_SPANNING, "--cones", DATA_CONES],
        ["chi", "--fan", "missing.json", "--pexp", DATA_CLASS],
        ["pair", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--cone", "[[1,1]]"],
    ], ids=["validate-fan", "resolve", "gkm-check", "dual-basis", "chi-missing-fan", "pair-foreign-cone"])
    def test_text_without_a_text_form_is_the_json_document(self, argv, capsys, monkeypatch):
        # a result with no text form, and every failure, prints its JSON
        monkeypatch.chdir(REPO)
        code, out = invoke(argv, capsys)
        assert invoke([*argv, "--format", "text"], capsys) == (code, out)
        assert json.loads(out)["status"] == ("ok" if code == 0 else "error")

    def test_output_file_holds_what_stdout_would(self, tmp_path, capsys):
        argv = ["gram", "--fan", DATA / "p112_fan.json", "--functions", DATA / "p112_spanning.json",
                "--cones", DATA / "p112_duality_cones.json"]
        code, out = invoke(argv, capsys)
        target = tmp_path / "gram.json"
        assert invoke([*argv, "-o", target], capsys) == (code, "")
        assert target.read_text() == out
        golden = json.loads((GOLDEN / "p112_gram.json").read_text())
        assert json.loads(target.read_text()) == {"status": "ok", "result": golden}

    def test_gkm_check_ok(self, data_files, capsys):
        code, out = invoke(
            ["gkm-check", "--fan", data_files["fan"], "--pexp", data_files["class"]],
            capsys,
        )
        assert code == 0


class TestNegativesAndErrors:
    def test_gkm_check_corrupted_names_the_face(self, data_files, capsys):
        code, out = invoke(
            ["gkm-check", "--fan", data_files["fan"], "--pexp", data_files["corrupted"]],
            capsys,
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "violation"
        faces = {tuple(v["face"]) for v in doc["violations"]}
        assert faces  # each report names the offending face
        assert all("restriction_a" in v for v in doc["violations"])

    def test_validate_fan_negative(self, tmp_path, capsys):
        bad = tmp_path / "bad_fan.json"
        bad.write_text(json.dumps({
            "rank": 2,
            "rays": [[1, 0], [0, 1], [1, 1]],
            "max_cones": [[0, 1], [0, 2]],
        }))
        code, out = invoke(["validate-fan", "--fan", bad], capsys)
        assert code == 2
        assert json.loads(out)["status"] == "invalid"

    def test_resolve_negative_extra_rounds(self, capsys):
        code, out = invoke(["resolve", "--fan", DATA / "p112_fan.json", "--extra-rounds", "-2"],
                           capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "error",
            "kind": "ValueError",
            "detail": "extra_rounds must be nonnegative, got -2",
        }

    def test_chi_past_the_term_budget_is_refused(self, tmp_path, capsys):
        # on P^1 the class with values 1 and e^(2^40) has a chi of 2^40 + 1 terms
        fan = tmp_path / "p1.json"
        fan.write_text(json.dumps({"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}))
        values = [{"rank": 1, "terms": [{"coeff": 1, "exp": [e]}]} for e in (0, 2 ** 40)]
        pexp = tmp_path / "class.json"
        pexp.write_text(json.dumps({"fan": "p1.json", "values": values}))
        code, out = invoke(["chi", "--fan", fan, "--pexp", pexp], capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "error",
            "kind": "WorkBudgetExceeded",
            "detail": f"a quotient of {2 ** 40 + 1} terms passes the budget of 8388608",
        }

    def test_sign_is_not_an_option(self, capsys):
        # the localization sign is fixed; --epsilon is an unknown argument
        with pytest.raises(SystemExit) as exc:
            run(["chi", "--epsilon", "1", "--fan", DATA_FAN, "--pexp", DATA_CLASS])
        assert exc.value.code == 2
        assert "unrecognized arguments: --epsilon 1" in capsys.readouterr().err

    def test_validate_fan_negative_rank(self, tmp_path, capsys):
        bad = tmp_path / "negative_rank.json"
        bad.write_text(json.dumps({"rank": -2, "rays": [], "max_cones": [[]]}))
        code, out = invoke(["validate-fan", "--fan", bad], capsys)
        assert code == 2
        assert json.loads(out) == {
            "status": "invalid",
            "kind": "NotAFan",
            "detail": "fan rank must be nonnegative, got -2",
        }

    def test_validate_fan_repeated_ray_index(self, tmp_path, capsys):
        bad = tmp_path / "repeated_index.json"
        bad.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 0, 1]]}))
        code, out = invoke(["validate-fan", "--fan", bad], capsys)
        assert code == 2
        assert json.loads(out) == {
            "status": "invalid",
            "kind": "NotAFan",
            "detail": "cone [0, 0, 1] lists a ray twice",
        }

    def test_descend_negative_names_coarse_cone(self, tmp_path, capsys):
        from pexpfan.fan import Fan, stellar_subdivision
        from pexpfan.laurent import LaurentPoly
        from pexpfan.pexp import PiecewiseExponential

        coarse = Fan.build(2, [(1, 0), (0, 1)], [(0, 1)])
        sub = stellar_subdivision(coarse, (1, 1))
        one = LaurentPoly.one(2)
        e = LaurentPoly.exponential
        values = []
        for c in sub.fine.maximal_cones:
            rays = {sub.fine.rays[i] for i in c}
            values.append(one + e((1, 2)) if rays == {(1, 0), (1, 1)} else one + e((2, 1)))
        f = PiecewiseExponential.from_values(sub.fine, values)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(sub.to_json()))
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(pexp_to_json(f)))
        code, out = invoke(["descend", "--map", map_path, "--pexp", f_path], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["kind"] == "NotDescendable"
        assert doc["coarse_cone"] == 0

    def test_decompose_not_in_span(self, tmp_path, capsys):
        fan = catalog.projective_line()
        fan_path = tmp_path / "fan.json"
        fan_path.write_text(json.dumps(fan.to_json()))
        cls = catalog.p1_degree_class(fan, 1)
        cls_path = tmp_path / "cls.json"
        cls_path.write_text(json.dumps(pexp_to_json(cls)))
        from pexpfan.pexp import PiecewiseExponential

        basis_path = tmp_path / "basis.json"
        basis_path.write_text(
            json.dumps([pexp_to_json(PiecewiseExponential.constant(fan, 1))])
        )
        code, out = invoke(
            ["decompose", "--fan", fan_path, "--pexp", cls_path, "--basis", basis_path],
            capsys,
        )
        assert code == 2
        assert json.loads(out)["kind"] == "NotInSpan"

    def test_dual_basis_singular_gram(self, tmp_path, capsys):
        unit, divisor, _ = catalog.p112_spanning_classes()
        spanning = tmp_path / "spanning.json"
        spanning.write_text(json.dumps([pexp_to_json(g) for g in (unit, unit, divisor)]))
        code, out = invoke(
            [
                "dual-basis",
                "--fan", DATA / "p112_fan.json",
                "--spanning", spanning,
                "--cones", DATA / "p112_duality_cones.json",
            ],
            capsys,
        )
        assert code == 2
        assert json.loads(out) == {
            "status": "negative",
            "kind": "SingularGram",
            "detail": "the Gram matrix is singular over the fraction field",
        }

    def test_decompose_dependent_basis(self, tmp_path, capsys):
        unit = catalog.p112_spanning_classes()[0]
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps([pexp_to_json(unit), pexp_to_json(unit)]))
        code, out = invoke(
            ["decompose", "--fan", DATA / "p112_fan.json", "--pexp", DATA / "p112_class.json",
             "--basis", basis],
            capsys,
        )
        assert code == 2
        doc = json.loads(out)
        assert (doc["status"], doc["kind"]) == ("negative", "DependentBasis")

    def test_missing_file_is_structural(self, capsys):
        code, out = invoke(["validate-fan", "--fan", "no_such_file.json"], capsys)
        assert code == 1
        assert json.loads(out)["status"] == "error"

    def test_malformed_json_is_structural(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = invoke(["validate-fan", "--fan", bad], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--fan", "[" * 100_000 + "]" * 100_000),
            ("--pexp", '{"values": ' * 50_000 + "[]" + "}" * 50_000),
        ],
        ids=["fan-arrays", "pexp-objects"],
    )
    def test_deeply_nested_file_is_structural(self, tmp_path, capsys, flag, text):
        # the decoder recurses once per level; too deep a document is refused as JSON
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        if flag == "--fan":
            argv = ["validate-fan", "--fan", deep]
        else:
            argv = ["gkm-check", "--fan", DATA / "p112_fan.json", "--pexp", deep]
        code, out = invoke(argv, capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "error", "kind": "json", "detail": f"{deep}: JSON nested too deeply",
        }

    @pytest.mark.parametrize("command", ["restrict", "pair"])
    def test_deeply_nested_cone_is_structural(self, capsys, command):
        argv = [command, "--fan", DATA / "p112_fan.json", "--pexp", DATA / "p112_class.json",
                "--cone", "[" * 5_000 + "]" * 5_000]
        code, out = invoke(argv, capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "error", "kind": "json", "detail": "--cone: JSON nested too deeply",
        }

    @pytest.mark.parametrize("text, doc", [
        ("[[", {"status": "error", "kind": "json",
                "detail": "--cone: Expecting value: line 1 column 3 (char 2)"}),
        ('{"a": 1, "a": 2}', {"status": "error", "kind": "json", "detail": "--cone: repeated key 'a'"}),
        ("3", {"status": "error", "kind": "ValueError", "detail": "cone must be a list, got 3"}),
        ("[[1,0],[2,0]]", {"status": "error", "kind": "ConeNotInFan",
                           "detail": "cone lists the ray (1, 0) twice"}),
    ], ids=["malformed", "repeated-key", "number", "repeated-generator"])
    @pytest.mark.parametrize("command", ["restrict", "pair"])
    def test_cone_argument_is_decoded_like_a_file(self, capsys, command, text, doc):
        argv = [command, "--fan", DATA / "p112_fan.json", "--pexp", DATA / "p112_class.json",
                "--cone", text]
        code, out = invoke(argv, capsys)
        assert code == 1
        assert json.loads(out) == doc

    def test_unwritable_output_is_an_io_error_on_stdout(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "fan.json"
        code, out = invoke(["validate-fan", "--fan", DATA / "p112_fan.json", "-o", target], capsys)
        assert code == 1
        doc = json.loads(out)
        assert (doc["status"], doc["kind"]) == ("error", "io")
        assert str(target) in doc["detail"]
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "flag, text, key",
        [
            ("--fan", '{"rank": 2, "rank": 3, "rays": [[1, 0]], "max_cones": [[0]]}', "rank"),
            ("--pexp", '{"values": [{"rank": 1, "terms": [{"coeff": 1, "coeff": 5, "exp": [0]}]},'
                       ' {"rank": 1, "terms": []}]}', "coeff"),
        ],
        ids=["fan-rank", "term-coeff"],
    )
    def test_repeated_key_is_structural(self, tmp_path, capsys, flag, text, key):
        # json keeps the last of repeated keys; the loader refuses them instead
        fan_path = tmp_path / "fan.json"
        fan_path.write_text(json.dumps(catalog.projective_line().to_json()))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if flag == "--fan":
            argv = ["validate-fan", "--fan", bad]
        else:
            argv = ["gkm-check", "--fan", fan_path, "--pexp", bad]
        code, out = invoke(argv, capsys)
        assert code == 1
        assert json.loads(out) == {
            "status": "error", "kind": "json", "detail": f"{bad}: repeated key '{key}'",
        }

    @pytest.mark.parametrize(
        "rays, cones, detail",
        [
            ([[1, 0], [0, 1], [-1, -1]], [[0, 1.9], [0, 2], [1, 2]], "must be an integer"),
            ([[1.0, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]], "must be an integer"),
            ([1, 2], [[0, 1]], "ray must be a list, got 1"),
            ([[1, 0], [0, 1]], 3, "max_cones must be a list, got 3"),
            ([[1, 0], [0, 1]], [0], "cone must be a list, got 0"),
        ],
        ids=["fractional-cone-index", "float-ray", "number-ray", "number-cones", "number-cone"],
    )
    def test_non_integer_fan_entry_is_structural(self, tmp_path, capsys, rays, cones, detail):
        bad = tmp_path / "fan.json"
        bad.write_text(json.dumps({"rank": 2, "rays": rays, "max_cones": cones}))
        code, out = invoke(["validate-fan", "--fan", bad], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert detail in doc["detail"]

    def test_boolean_coefficient_is_structural(self, tmp_path, capsys):
        fan_path = tmp_path / "fan.json"
        fan_path.write_text(json.dumps(catalog.projective_line().to_json()))
        value = {"rank": 1, "terms": [{"coeff": True, "exp": [False]}]}
        pexp_path = tmp_path / "f.json"
        pexp_path.write_text(json.dumps({"values": [value, value]}))
        code, out = invoke(
            ["gkm-check", "--format", "text", "--fan", fan_path, "--pexp", pexp_path],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert "must be an integer" in doc["detail"]

    def test_term_without_exponent_is_structural(self, tmp_path, capsys):
        fan_path = tmp_path / "fan.json"
        fan_path.write_text(json.dumps(catalog.projective_line().to_json()))
        value = {"rank": 1, "terms": [{"coeff": 1}]}
        pexp_path = tmp_path / "f.json"
        pexp_path.write_text(json.dumps({"values": [value, value]}))
        code, out = invoke(["gkm-check", "--fan", fan_path, "--pexp", pexp_path], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert "needs 'coeff' and 'exp'" in doc["detail"]

    @pytest.mark.parametrize(
        "command, flag, doc, detail",
        [
            ("gkm-check", "--pexp", {"values": 3}, "values must be a list, got 3"),
            ("gkm-check", "--pexp", [1, 2], "must be a JSON object, got [1, 2]"),
            ("gram", "--functions", [3], "must be a JSON object, got 3"),
            ("gkm-check", "--pexp",
             {"values": [{"rank": 2, "terms": [{"coeff": 1, "exp": [0, 0]},
                                               {"coeff": 2, "exp": [0, 0]}]}]},
             "duplicate exponent (0, 0)"),
            ("gkm-check", "--pexp", {"fan": "null.json", "values": []},
             "fan JSON needs 'rank', 'rays', and 'max_cones'"),
            ("gkm-check", "--pexp", {"fan": "string.json", "values": []},
             "fan JSON needs 'rank', 'rays', and 'max_cones'"),
        ],
        ids=["number-values", "array-pexp", "number-function", "duplicate-exponent",
             "fan-path-to-null", "fan-path-to-string"],
    )
    def test_malformed_pexp_document_is_structural(
        self, data_files, capsys, command, flag, doc, detail
    ):
        # a path-valued "fan" is read relative to the document
        (data_files["tmp"] / "null.json").write_text("null")
        (data_files["tmp"] / "string.json").write_text(json.dumps("fan.json"))
        path = data_files["tmp"] / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--fan", data_files["fan"], flag, path]
        if command == "gram":
            argv += ["--cones", data_files["cones"]]
        code, out = invoke(argv, capsys)
        assert code == 1
        result = json.loads(out)
        assert result["status"] == "error"
        assert detail in result["detail"]

    @pytest.mark.parametrize(
        "change, detail",
        [
            (lambda m: {"fine": m["fine"], "coarse": m["coarse"]}, "needs 'fine', 'coarse'"),
            (lambda m: dict(m, assignment=3), "assignment must be a list, got 3"),
            (lambda m: dict(m, assignment=[0, 1.0, 2]), "must be an integer, got 1.0"),
            (lambda m: dict(m, assignment=[0, 1]), "assignment length must match"),
            (lambda m: dict(m, assignment=[0, 1, 7]), "assigned to missing coarse cone 7"),
            (lambda m: dict(m, assignment=[0, 1, -1]), "assigned to missing coarse cone -1"),
            (lambda m: dict(m, assignment=[0, 0, 1]), "fine cone 1 does not lie in its coarse cone 0"),
            (
                lambda m: dict(m, fine={"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]},
                               assignment=[0]),
                "some coarse cone has no fine cone",
            ),
            (
                lambda m: dict(m, fine=catalog.projective_line().to_json(), assignment=[0, 1]),
                "fine fan of rank 1 over a coarse fan of rank 2",
            ),
        ],
        ids=["no-assignment", "number", "float-entry", "short", "past-end", "negative",
             "wrong-cone", "unassigned-coarse-cone", "rank-mismatch"],
    )
    def test_bad_subdivision_map_is_structural(self, data_files, capsys, change, detail):
        # the identity map of P(1,1,2), whose cone 0 is <(1,0),(0,1)>
        good = SubdivisionMap.identity(catalog.weighted_p112()).to_json()
        assert good["coarse"]["max_cones"][0] == [0, 1]
        path = data_files["tmp"] / "map.json"
        path.write_text(json.dumps(change(good)))
        code, out = invoke(["descend", "--map", path, "--pexp", data_files["class"]], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert detail in doc["detail"]

    def test_map_whose_fine_cones_do_not_cover_is_structural(self, tmp_path, capsys):
        # <(1,0),(1,1)> lies in <(1,0),(1,2)> but leaves <(1,1),(1,2)> uncovered
        doc = {"fine": {"rank": 2, "rays": [[1, 0], [1, 1]], "max_cones": [[0, 1]]},
               "coarse": {"rank": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0, 1]]},
               "assignment": [0]}
        (tmp_path / "map.json").write_text(json.dumps(doc))
        (tmp_path / "unit.json").write_text(json.dumps(
            {"values": [{"rank": 2, "terms": [{"coeff": 1, "exp": [0, 0]}]}]}))
        code, out = invoke(["descend", "--map", tmp_path / "map.json", "--pexp", tmp_path / "unit.json"], capsys)
        assert code == 1
        assert json.loads(out) == {"status": "error", "kind": "ValueError",
                                   "detail": "the fine cones assigned to coarse cone 0 do not cover it"}

    def test_cone_not_in_fan_is_structural(self, data_files, capsys):
        code, out = invoke(
            [
                "restrict",
                "--fan", data_files["fan"],
                "--pexp", data_files["class"],
                "--cone", "[[1,1]]",
            ],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("error", [ResultCheckFailed, ResolutionCheckFailed])
    def test_failed_result_check_is_a_status_document(self, data_files, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error("dual basis Gram is not the identity")

        monkeypatch.setattr(cli, "dual_basis_solve", failing)
        code, out = invoke(
            [
                "dual-basis",
                "--fan", data_files["fan"],
                "--spanning", data_files["spanning"],
                "--cones", data_files["cones"],
            ],
            capsys,
        )
        assert code == 1
        assert json.loads(out) == {
            "status": "error",
            "kind": error.__name__,
            "detail": "dual basis Gram is not the identity",
        }


class TestEmbeddedFan:
    """`--fan F --pexp P` with a fan embedded in P validates F once; an
    embedded fan that is invalid or differs from F is still an error."""

    def _chi_with_embedded(self, tmp_path, capsys, embedded):
        doc = json.loads((DATA / "p112_class.json").read_text())
        doc["fan"] = embedded
        pexp_path = tmp_path / "class.json"
        pexp_path.write_text(json.dumps(doc))
        code, out = invoke(["chi", "--fan", DATA / "p112_fan.json", "--pexp", pexp_path], capsys)
        return code, json.loads(out)

    def test_embedded_copy_is_validated_once(self, capsys, monkeypatch):
        calls = []
        validate = Fan._validate
        monkeypatch.setattr(Fan, "_validate", lambda fan: calls.append(fan) or validate(fan))
        code, out = invoke(
            ["chi", "--fan", DATA / "p112_fan.json", "--pexp", DATA / "p112_class.json"], capsys
        )
        assert code == 0 and json.loads(out)["status"] == "ok"
        assert len(calls) == 1

    def test_invalid_embedded_fan(self, tmp_path, capsys):
        overlapping = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "max_cones": [[0, 1], [1, 2]]}
        code, doc = self._chi_with_embedded(tmp_path, capsys, overlapping)
        assert code == 1
        assert doc == {
            "status": "error",
            "kind": "NotAFan",
            "detail": "cones (0, 1) and (1, 2) intersect in a non-face",
        }

    def test_differing_embedded_fan(self, tmp_path, capsys):
        code, doc = self._chi_with_embedded(tmp_path, capsys, catalog.projective_plane().to_json())
        assert code == 1
        assert doc == {
            "status": "error",
            "kind": "ValueError",
            "detail": "embedded fan differs from the --fan argument",
        }


class TestDeterminism:
    def test_byte_identical_runs(self, data_files):
        cmd = [
            sys.executable, "-m", "pexpfan", "gram",
            "--fan", str(data_files["fan"]),
            "--functions", str(data_files["spanning"]),
            "--cones", str(data_files["cones"]),
        ]
        a = subprocess.run(cmd, capture_output=True, cwd=REPO)
        b = subprocess.run(cmd, capture_output=True, cwd=REPO)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_chi_under_optimize_flag(self, capsys):
        # python -O strips asserts; the result must not depend on them
        args = ["chi", "--fan", DATA / "p112_fan.json", "--pexp", DATA / "p112_class.json"]
        code, out = invoke(args, capsys)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pexpfan", *map(str, args)],
            capture_output=True,
            cwd=REPO,
        )
        assert code == proc.returncode == 0
        assert proc.stdout.decode() == out

    @pytest.mark.parametrize("argv", [
        ["validate-fan", "--fan", DATA_FAN],
        ["resolve", "--fan", DATA_FAN],
        ["gkm-check", "--pexp", DATA_CLASS],
        ["restrict", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--cone", "[[-1,-2]]"],
        ["chi", "--fan", DATA_FAN, "--pexp", DATA_CLASS],
        ["pair", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--cone", "[]"],
        ["gram", "--fan", DATA_FAN, "--functions", DATA_SPANNING, "--cones", DATA_CONES],
        ["decompose", "--fan", DATA_FAN, "--pexp", DATA_CLASS, "--basis", DATA_SPANNING],
        ["dual-basis", "--fan", DATA_FAN, "--spanning", DATA_SPANNING, "--cones", DATA_CONES],
    ], ids=lambda argv: argv[0])
    def test_data_commands_match_benchmark_digests(self, argv, capsys, monkeypatch):
        """The cli benchmark's commands on data/, with its relative paths, print
        the stdout whose sha256 perfbench/expected.json records."""
        recorded = json.loads((REPO / "perfbench" / "expected.json").read_text())["cli"]
        monkeypatch.chdir(REPO)
        code, out = invoke(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == recorded[argv[0]]

    def test_shipped_data_round_trip(self, capsys):
        code, out = invoke(
            ["gkm-check", "--pexp", DATA / "p112_class.json"], capsys
        )
        assert code == 0
        emitted = json.loads(out)["result"]
        again = json.dumps(emitted)
        assert json.loads(again) == emitted


# -- the JSON boundary under arbitrary values ----------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
DELETE = object()

PEXP_FIELDS = [
    (), ("fan",), ("fan", "rank"), ("fan", "rays"), ("fan", "rays", 0), ("fan", "rays", 0, 1),
    ("fan", "max_cones"), ("fan", "max_cones", 0), ("fan", "max_cones", 0, 0), ("values",),
    ("values", 0), ("values", 0, "rank"), ("values", 0, "terms"), ("values", 0, "terms", 0),
    ("values", 0, "terms", 0, "coeff"), ("values", 0, "terms", 0, "exp"),
]
MAP_FIELDS = [
    (), ("fine",), ("fine", "rank"), ("fine", "rays"), ("fine", "rays", 0), ("fine", "max_cones"),
    ("fine", "max_cones", 0), ("fine", "max_cones", 0, 1), ("coarse",), ("coarse", "rays", 2),
    ("coarse", "max_cones"), ("coarse", "max_cones", 1), ("assignment",), ("assignment", 0),
    ("assignment", 3),
]
CONES_FIELDS = [(), (0,), (1,), (1, 0), (1, 0, 1), (2,), (2, 1), (2, 1, 0)]
CONE_FIELDS = [(), (0,), (1,), (0, 0), (1, 1)]
# a list of three functions: the first embeds the fan, the second names its
# file, the third takes the --fan argument
LIST_FIELDS = [
    (), (0,), (0, "fan"), (0, "fan", "rank"), (0, "fan", "rays"), (0, "fan", "rays", 1),
    (0, "fan", "max_cones", 0), (0, "values"), (0, "values", 0), (0, "values", 1, "terms"),
    (0, "values", 2, "terms", 0, "exp"), (1,), (1, "fan"), (1, "values"), (1, "values", 1, "rank"),
    (1, "values", 2, "terms", 0, "coeff"), (2,), (2, "values"), (2, "values", 0), (2, "values", 1, "terms", 0),
]


def _replaced(doc, path, value):
    """A deep copy of doc with the field at path replaced (or deleted)."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_documents(tmp_path_factory):
    fan = catalog.weighted_p112()
    sub = resolve(fan)
    from pexpfan.pexp import pullback

    fine_class = tmp_path_factory.mktemp("fuzz") / "fine.json"
    fine_class.write_text(json.dumps(pexp_to_json(pullback(catalog.p112_demo_class(fan), sub))))
    cones = [[], [[-1, -2]], [[1, 0], [-1, -2]]]
    fan_path, spanning = DATA / "p112_fan.json", DATA / "p112_spanning.json"
    functions = json.loads(spanning.read_text())
    functions[0]["fan"] = fan.to_json()
    functions[1]["fan"] = str(fan_path)
    del functions[2]["fan"]
    return {
        "gkm-check": ("gkm-check", pexp_to_json(catalog.p112_demo_class(fan)), PEXP_FIELDS, ["--pexp"]),
        "descend": ("descend", sub.to_json(), MAP_FIELDS, ["--pexp", fine_class, "--map"]),
        "gram": ("gram", cones, CONES_FIELDS, ["--fan", fan_path, "--functions", spanning, "--cones"]),
        # the --cone argument is the document's JSON text, not a file
        "pair": ("pair", cones[2], CONE_FIELDS,
                 ["--fan", fan_path, "--pexp", DATA / "p112_class.json", "--cone"]),
        "gram-functions": ("gram", functions, LIST_FIELDS,
                           ["--fan", fan_path, "--cones", DATA / "p112_duality_cones.json", "--functions"]),
        "decompose": ("decompose", functions, LIST_FIELDS,
                      ["--fan", fan_path, "--pexp", DATA / "p112_class.json", "--basis"]),
        "dual-basis": ("dual-basis", functions, LIST_FIELDS,
                       ["--fan", fan_path, "--cones", DATA / "p112_duality_cones.json", "--spanning"]),
    }


@pytest.mark.parametrize(
    "document", ["gkm-check", "descend", "gram", "pair", "gram-functions", "decompose", "dual-basis"]
)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_arbitrary_json_fields_never_escape(fuzz_documents, tmp_path_factory, document, data):
    """Any JSON value in place of any field of a document gives an exit code
    of 0, 1 or 2 and a status document, never an uncaught exception."""
    command, good, fields, argv = fuzz_documents[document]
    path = data.draw(st.sampled_from(fields))
    value = data.draw(JSON_VALUES | st.just(DELETE)) if path else data.draw(JSON_VALUES)
    text = json.dumps(_replaced(good, path, value))
    if command == "pair":
        last = text
    else:
        last = tmp_path_factory.getbasetemp() / "fuzzed.json"
        last.write_text(text)
    *head, flag = map(str, argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # flag=value, so that argparse takes a value such as -1 as the argument
        code = run([command, *head, f"{flag}={last}"])
    assert code in (0, 1, 2)
    assert "status" in json.loads(out.getvalue())
