import json
import math
import random
from fractions import Fraction

import pytest

from chernloc.cli import main
from chernloc.fredholm import random_idempotent, random_model
from chernloc.multiform import GeneratorTable

TABLE_TEXT = """\
# degree-four model with one contractible pair
d 4
x 1 u
u 2 0
y 1 0
"""


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(TABLE_TEXT)
    return path


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """The whole text as one JSON document without NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, argv):
    code = main(argv)
    return code, strict_json(capsys.readouterr().out)


def test_strict_json_rejects_non_finite_constants():
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError, match="non-standard"):
            strict_json(text)


def test_check_bar(table_file, capsys):
    code, doc = run_cli(capsys, ["check-bar", str(table_file),
                                 "--chains", "30", "--seed", "1"])
    assert code == 0
    assert doc["ok"] and doc["table_ok"] and not doc["failures"]


def _model_doc():
    # seed 11 draws p with a nonzero lower-left entry, so the curvature
    # words have nonzero traces and the chain is not one word
    rng = random.Random(11)
    table = GeneratorTable(6)
    table.add_generator("y", 3)
    table.add_generator("w", 2)
    table.set_differential("w", "y")
    m = random_model(table, rng, 2, 2, scale=0.3, q_scale=0.7)
    p = random_idempotent(table, rng, n=2, scale=Fraction(1, 4))
    return {
        "table": {"top_degree": 6, "generators": [["y", 3, "0"], ["w", 2, "y"]]},
        "dim_plus": 2,
        "dim_minus": 2,
        "Q": [[[z.real, z.imag] for z in row] for row in m.Q.tolist()],
        "c": {table.mono_str(mono): [[[z.real, z.imag] for z in row]
                                     for row in mat.tolist()]
              for mono, mat in m.c_map.items() if mono},
        "p": [[e.canonical_str() for e in row] for row in p.rows],
        "t": 1.0,
    }


def test_mckean_singer_cli(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_doc()))
    code, doc = run_cli(capsys, ["mckean-singer", str(path), "--tol", "1e-8"])
    assert code == 0
    assert doc["ok"]
    assert doc["difference"] < 1e-8
    # the comparison is not between two values that vanish
    assert abs(complex(*doc["lhs"])) > 1e-4
    # the chain is summed in closed form: no series keys, no --n-max
    assert set(doc) == {"lhs", "rhs_heat_sq", "difference", "ok", "relations"}
    with pytest.raises(SystemExit):
        main(["mckean-singer", str(path), "--n-max", "5"])


def test_bismut_chern_cli(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_doc()))
    code, doc = run_cli(capsys, ["bismut-chern", str(path), "--n-max", "1"])
    assert code == 0
    assert doc["ok"] and doc["cyclic"] and doc["even"]
    assert doc["words"] > 1


def test_mehler_cli(tmp_path, capsys):
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({
        "d": 4,
        "generators": ["u", "v"],
        "R": [["0", "u", "0", "v"],
              ["-u", "0", "v", "0"],
              ["0", "-v", "0", "u"],
              ["-v", "0", "-u", "0"]],
        "taus": ["1/4", "1/2"],
    }))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 0
    assert doc["ok"] and doc["semigroup_exact"] and doc["heat_equation_exact"]
    assert doc["kappa_constant"] == "-1/2"


def test_mehler_cli_convolves_with_the_kappa_it_derives(tmp_path, capsys, monkeypatch):
    # a wrong derived constant must break the semigroup check it reports
    import chernloc.mehler as mh
    monkeypatch.setattr(mh, "solve_kappa_constant", lambda R: Fraction(-1, 4))
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({
        "d": 4,
        "generators": ["u", "v"],
        "R": [["0", "u", "0", "0"], ["-u", "0", "0", "0"],
              ["0", "0", "0", "v"], ["0", "0", "-v", "0"]],
        "taus": ["1/4", "1/2"],
    }))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 1
    assert doc["kappa_constant"] == "-1/4"
    assert doc["semigroup_exact"] is False and not doc["ok"]
    assert doc["heat_equation_exact"]


def test_localize_cli(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "d": 2,
        "generators": ["w"],
        "R": [["0", "w"], ["-w", "0"]],
        "word": ["sigma w"],
    }))
    code, doc = run_cli(capsys, ["localize", str(path)])
    assert code == 0
    assert doc["ok"] and doc["exact_equal"]


def test_localize_cli_d6_letter_with_two_homogeneous_parts(tmp_path, capsys):
    # the d = 6 case of the README examples in CI
    path = tmp_path / "case6.json"
    path.write_text(json.dumps({
        "d": 6,
        "generators": ["u", "v", "w"],
        "R": [["0", "u", "0", "0", "0", "w"],
              ["-u", "0", "0", "0", "0", "0"],
              ["0", "0", "0", "v", "0", "0"],
              ["0", "0", "-v", "0", "0", "0"],
              ["0", "0", "0", "0", "0", "w"],
              ["-w", "0", "0", "0", "-w", "0"]],
        "word": ["sigma u + sigma u v"],
    }))
    code, doc = run_cli(capsys, ["localize", str(path)])
    assert code == 0
    assert doc["ok"] is True and doc["exact_equal"]
    # the one letter splits one way, whatever its degrees
    assert doc["patterns"] == 1 and doc["lhs"] != "0"


def test_torus_cli(capsys):
    code, doc = run_cli(capsys, ["torus", "--t-grid", "0.1,0.05",
                                 "--beta", "0.5"])
    assert code == 0
    assert doc["ok"]
    assert doc["rows"][-1]["relative"] < 1e-4
    assert doc["supertrace_max"] < 1e-10


def test_torus_cli_detects_underresolved_cutoff(capsys):
    code, doc = run_cli(capsys, ["torus", "-K", "2", "--t-grid", "0.05",
                                 "--beta", "0.5"])
    assert code == 1
    assert doc["rows"][0]["relative"] > 1e-4


def test_torus_cli_has_no_json_flag(capsys):
    # the report is always JSON; the flag that suppressed a text table is gone
    with pytest.raises(SystemExit):
        main(["torus", "--json"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value", [
    ("--L1", "-1"), ("--L1", "0"), ("--L2", "nan"), ("--L1", "inf")])
def test_torus_cli_rejects_bad_side_lengths(capsys, flag, value):
    code, doc = run_cli(capsys, ["torus", flag, value])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("ValueError: side lengths")


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_torus_cli_rejects_non_finite_beta(capsys, beta):
    code, doc = run_cli(capsys, ["torus", f"--beta={beta}"])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("ValueError: Fourier coefficient (0, 0)")


@pytest.mark.parametrize("coeff", [
    float("nan"), float("-inf"), "nan", [1.0, float("inf")],
    # strings and string pairs parse, then fail the finiteness check
    pytest.param("inf", id="str-inf"), pytest.param("-inf", id="str-minus-inf"),
    pytest.param("1+infi", id="str-1+infi"), pytest.param("nani", id="str-nani"),
    pytest.param(["1", "nan"], id="pair-1-nan"), pytest.param(["-inf", 0], id="pair-minus-inf-0")])
def test_torus_cli_rejects_non_finite_theta(tmp_path, capsys, coeff):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"0,0": 1.0, "2,-1": coeff}))
    code, doc = run_cli(capsys, ["torus", "--theta", str(path)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("ValueError: Fourier coefficient (2, -1)")


@pytest.mark.parametrize("coeff, value", [
    ("2i", 2j), ("-i", -1j), ("1-2.5i", 1 - 2.5j), ("3", 3), (["0.5", "-1"], 0.5 - 1j)])
def test_torus_cli_reads_complex_strings_and_pairs(tmp_path, capsys, coeff, value):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"0,0": coeff}))
    code, doc = run_cli(capsys, ["torus", "--theta", str(path), "-K", "2"])
    assert code in (0, 1)
    target = complex(*doc["rows"][0]["target"])
    assert target == pytest.approx(value * (2 * math.pi) ** 2 / (2j * math.pi))


@pytest.mark.parametrize("coeff", ["1 + 2i", "1/2", "ii", "", [1], [1, 2, 3],
                                   ["1/2", 0], [True, 0], True, None, {"re": 1}])
def test_torus_cli_names_a_malformed_theta_value(tmp_path, capsys, coeff):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"0,0": 1.0, "2,-1": coeff}))
    code, doc = run_cli(capsys, ["torus", "--theta", str(path)])
    assert code == 2
    assert doc == {"ok": False, "error": f"ValueError: bad complex number {coeff!r}"}


@pytest.mark.parametrize("field", ["Q", "c"])
@pytest.mark.parametrize("coeff", ["1 + 2i", ["1", "x"], None])
def test_model_cli_names_a_malformed_matrix_value(tmp_path, capsys, field, coeff):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_with_entry(field, coeff)))
    code, doc = run_cli(capsys, ["mckean-singer", str(path)])
    assert code == 2
    assert doc == {"ok": False, "error": f"ValueError: bad complex number {coeff!r}"}


@pytest.mark.parametrize("field", ["Q", "c"])
@pytest.mark.parametrize("coeff", ["inf", "1+infi", ["1", "nan"]])
def test_model_cli_still_rejects_non_finite_matrix_values(tmp_path, capsys, field, coeff):
    model = _model_with_entry(field, coeff)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, doc = run_cli(capsys, ["mckean-singer", str(path)])
    name = "Q" if field == "Q" else f"c({next(iter(model['c']))})"
    assert code == 2
    assert doc == {"ok": False,
                   "error": f"ValueError: bad model: {name} has a non-finite entry"}


def _model_with_entry(field, coeff):
    """The CLI model document with one odd entry of Q, or of the first c
    matrix, replaced by ``coeff``."""
    doc = _model_doc()
    mat = doc["Q"] if field == "Q" else next(iter(doc["c"].values()))
    mat[0][2] = coeff
    return doc


@pytest.mark.parametrize("argv, message", [
    (["--t-grid", "inf"], "the scaling parameter t must be positive with t^2 a positive "
                          "finite float, got inf"),
    (["--t-grid", "0.2,1e200"], "the scaling parameter t must be positive with t^2 a positive "
                                "finite float, got 1e+200"),
    (["--t-grid", "0.2,1e-200"], "the scaling parameter t must be positive with t^2 a positive "
                                 "finite float, got 1e-200"),
    (["--L1", "1e200", "--L2", "1e200"], "the area L1 * L2 = 1e+200 * 1e+200 overflows")])
def test_torus_cli_rejects_overflowing_times_and_sides(capsys, argv, message):
    code, doc = run_cli(capsys, ["torus", *argv, "-K", "2"])
    assert code == 2
    assert doc == {"ok": False, "error": f"ValueError: {message}"}


def test_non_finite_result_is_a_json_error(capsys):
    # a finite beta whose target overflows gives an infinite target and a NaN
    # relative error; the report is refused before anything reaches stdout
    code, doc = run_cli(capsys, ["torus", "--beta", "1e308", "-K", "2"])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("ValueError: Out of range float values")


def test_malformed_json_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "R": [')
    code, doc = run_cli(capsys, ["localize", str(path)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("JSONDecodeError: ")


def test_missing_file_is_a_json_error(tmp_path, capsys):
    code, doc = run_cli(capsys, ["mckean-singer", str(tmp_path / "absent.json")])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("FileNotFoundError: ")


def test_model_without_p_is_a_json_error(tmp_path, capsys):
    doc = _model_doc()
    del doc["p"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["mckean-singer", str(path)])
    assert code == 2
    assert out == {"ok": False,
                   "error": "ValueError: model document needs an idempotent 'p'"}


def test_zero_denominator_in_a_word_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "d": 2,
        "generators": ["w"],
        "R": [["0", "w"], ["-w", "0"]],
        "word": ["1/0 * sigma w"],
    }))
    code, doc = run_cli(capsys, ["localize", str(path)])
    assert code == 2
    assert doc == {"ok": False,
                   "error": "ValueError: zero denominator in '1/0'"}


def test_unknown_generator_in_a_table_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text("d 4\nx 1 u\ny 1 0\n")
    code, doc = run_cli(capsys, ["check-bar", str(path), "--chains", "1"])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: unknown generator 'u'"}



def test_mehler_cli_with_a_degree_four_curvature_term(tmp_path, capsys):
    # the kappa constant is matched on the degree-two part of each entry
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({
        "d": 4,
        "generators": ["u", "v"],
        "R": [["0", "u + u v", "0", "0"],
              ["-u - u v", "0", "0", "0"],
              ["0", "0", "0", "v"],
              ["0", "0", "-v", "0"]],
    }))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 0
    assert doc["ok"] and doc["semigroup_exact"] and doc["heat_equation_exact"]
    assert doc["a_hat_normalized"]
    assert doc["kappa_constant"] == "-1/2"


def test_parenthesized_sum_in_a_word_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "d": 2,
        "generators": ["w"],
        "R": [["0", "w"], ["-w", "0"]],
        "word": ["-(1 + w) * sigma w"],
    }))
    code, doc = run_cli(capsys, ["localize", str(path)])
    assert code == 2
    assert doc == {"ok": False,
                   "error": "ValueError: '(1 + w)' is not a number literal; "
                            "a parenthesized sum is not expanded"}


def test_inexact_curvature_in_mehler_is_a_json_error(tmp_path, capsys):
    # the kappa constant is derived exactly, so a float entry is named
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({
        "d": 2,
        "generators": ["u"],
        "R": [["0", "0.5 * u"], ["-0.5 * u", "0"]],
    }))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 2
    assert doc == {"ok": False,
                   "error": "ValueError: curvature entry (0, 1) = (0.5+0j) * u is "
                            "inexact; the kappa derivation needs exact coefficients"}


def test_flat_curvature_in_mehler_is_a_json_error(tmp_path, capsys):
    # a flat R leaves no cross term to derive the kappa constant from
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({
        "d": 2,
        "generators": ["w"],
        "R": [["0", "0"], ["0", "0"]],
        "taus": ["1/4", "1/2"],
    }))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 2
    assert doc == {"ok": False,
                   "error": "ArithmeticError: degenerate curvature; cannot solve"}


@pytest.mark.parametrize("command", ["mehler", "localize"])
@pytest.mark.parametrize("entry, negated, generators",
                         [("1", "-1", []), ("1 + w", "-1 - w", ["w"])])
def test_constant_curvature_entry_is_a_json_error(tmp_path, capsys, command, entry,
                                                  negated, generators):
    # such an R is not nilpotent; the series over its powers would not end
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"d": 2, "generators": generators,
                                "R": [["0", entry], [negated, "0"]]}))
    code, doc = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert doc["ok"] is False
    assert doc["error"].startswith("ValueError: curvature entry (0, 1) = ")
    assert doc["error"].endswith("has a constant term, so it is not nilpotent")


def test_non_integer_fiber_dimension_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({"d": 4.7, "generators": ["u", "v"], "R": R4}))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 2
    assert doc == {"ok": False,
                   "error": "ValueError: top degree must be an integer, got 4.7"}


def test_negative_n_max_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_model_doc()))
    code, doc = run_cli(capsys, ["bismut-chern", str(path), "--n-max", "-1"])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: n_max must be at least 0, got -1"}


def test_no_chains_is_a_json_error(table_file, capsys):
    code, doc = run_cli(capsys, ["check-bar", str(table_file), "--chains", "-3"])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: --chains must be at least 1, got -3"}


def test_empty_taus_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "mehler.json"
    path.write_text(json.dumps({
        "d": 2,
        "generators": ["w"],
        "R": [["0", "w"], ["-w", "0"]],
        "taus": [],
    }))
    code, doc = run_cli(capsys, ["mehler", str(path)])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: taus must not be empty, got []"}


R4 = [["0", "u", "0", "v"],
      ["-u", "0", "v", "0"],
      ["0", "-v", "0", "u"],
      ["-v", "0", "-u", "0"]]


@pytest.mark.parametrize("command", ["mehler", "localize"])
def test_fiber_dimension_other_than_R_is_a_json_error(tmp_path, capsys, command):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"d": 6, "generators": ["u", "v"], "R": R4}))
    code, doc = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: curvature matrix is 4 x 4 "
                                         "but the table's top degree is 6"}


def test_localize_fiber_dimension_other_than_the_table_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({
        "d": 6,
        "table": {"top_degree": 4, "generators": [["u", 2, "0"], ["v", 2, "0"]]},
        "R": R4,
    }))
    code, doc = run_cli(capsys, ["localize", str(path)])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: fiber dimension 6 does not "
                                         "match the 4 x 4 curvature matrix"}


D2 = {"d": 2, "generators": ["u"], "R": [["0", "u"], ["-u", "0"]]}


@pytest.mark.parametrize("command, key, value", [
    ("mehler", "generators", "uw"),       # read as the generators u and w
    ("localize", "generators", "uw"),
    ("localize", "word", "sigma u"),      # read as the letters s, i, g, ...
    ("mehler", "taus", "1/2"),            # read as the times 1, /, 2
])
def test_a_string_where_a_list_belongs_is_a_json_error(tmp_path, capsys, command,
                                                        key, value):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({**D2, key: value}))
    code, doc = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert doc == {"ok": False,
                   "error": f"ValueError: {key!r} must be a JSON list, got {value!r}"}


@pytest.mark.parametrize("command", ["mehler", "localize"])
def test_curvature_documents_read_a_table(tmp_path, capsys, command):
    table = {"top_degree": 2, "generators": [["u", 2, "0"]]}
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"d": 2, "table": table, "R": D2["R"],
                                "word": ["sigma u"]}))
    code, doc = run_cli(capsys, [command, str(path)])
    assert code == 0 and doc["ok"]
    path.write_text(json.dumps({"d": 4, "table": table, "R": D2["R"]}))
    code, doc = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert doc == {"ok": False, "error": "ValueError: fiber dimension 4 does not "
                                         "match the 2 x 2 curvature matrix"}
